import numpy as np
import pytest

from ambc.bd import backscatter_frame, sample_bits
from ambc.channel import (CirProfile, realization_from_parts, sample_cir,
                          sample_realization)
from ambc.config import Scheme, SimParams
from ambc.ofdm import gen_frame


def _random_realization(seed, L=32, P=4, alpha_sq=0.2):
    rng = np.random.default_rng(seed)
    return sample_realization(SimParams(L=L, P=P, alpha_sq=alpha_sq), rng), rng


def _tag_filter(real, scheme):
    """The tag's transmit filter b, from a_l = beta G_l b_l x_l s."""
    return real.effective_gain(scheme) / (real.beta * real.G)


def test_sample_bits_pilot():
    bits = sample_bits(50, np.random.default_rng(0), pilot_first=True)
    assert bits[0] == 1
    assert np.all(np.isin(bits, (-1, 1)))


def test_cuif_waveform():
    # impulse filter: b = 1 on every subcarrier, ||b||^2 = L
    real, _ = _random_realization(0)
    for scheme in (Scheme.CUIF, Scheme.GENIE_CUIF, Scheme.ENERGY):
        assert np.allclose(_tag_filter(real, scheme), np.ones(32))


def test_camf_flat_channel_is_all_ones():
    real = realization_from_parts(np.array([1.0 + 0j]), np.array([1.0 + 0j]),
                                  8, alpha=0.5, theta=0.3)
    assert np.allclose(_tag_filter(real, Scheme.CAMF), np.ones(8))


def test_camf_rejects_zero_channel():
    with pytest.raises(ValueError):
        realization_from_parts(np.array([1.0 + 0j]), np.zeros(2, complex),
                               8, alpha=0.5, theta=0.3)


def test_camf_conjugation_and_energy():
    rng = np.random.default_rng(1)
    params = SimParams(L=16, P=16)
    for _ in range(2000):
        real = sample_realization(params, rng)
        b = _tag_filter(real, Scheme.CAMF)
        assert abs(np.linalg.norm(b) ** 2 - 16) < 1e-9
        # per element, b is a positive multiple of conj(G)
        assert np.allclose(np.angle(b * real.G), 0.0, atol=1e-9)


def test_energy_parity_cuif_vs_camf():
    real, _ = _random_realization(2)
    assert np.isclose(np.linalg.norm(_tag_filter(real, Scheme.CUIF)) ** 2,
                      np.linalg.norm(_tag_filter(real, Scheme.CAMF)) ** 2)


def test_backscatter_two_route_agreement():
    real, rng = _random_realization(3)
    x = gen_frame(32, 1, rng)
    a = backscatter_frame(real.effective_gain(Scheme.CAMF), x, np.array([-1]))
    kappa = np.sqrt(32) / np.linalg.norm(real.G)
    direct = (real.beta * kappa * real.G * np.conj(real.G)) * x[:, 0] * -1
    assert np.allclose(a[:, 0], direct, atol=1e-12)


def test_backscatter_flat_channel_reduces_to_cuif():
    real = realization_from_parts(np.array([1.0 + 0j]), np.array([1.0 + 0j]),
                                  8, alpha=np.sqrt(0.2), theta=0.7)
    x = gen_frame(8, 1, np.random.default_rng(4))
    camf, cuif = (backscatter_frame(real.effective_gain(scheme), x,
                                    np.array([1]))
                  for scheme in (Scheme.CAMF, Scheme.CUIF))
    assert np.allclose(camf, cuif)
    assert np.allclose(camf, real.beta * x)


def test_backscatter_zero_reflection():
    rng = np.random.default_rng(5)
    h, g = sample_cir(CirProfile(4), rng), sample_cir(CirProfile(4), rng)
    zero = realization_from_parts(h, g, 32, alpha=0.0, theta=0.4)
    x = gen_frame(32, 1, rng)
    assert np.allclose(backscatter_frame(zero.effective_gain(Scheme.CUIF), x,
                                         np.array([1])), 0)


def test_camf_common_phase_property():
    real, _ = _random_realization(6)
    phases = np.angle(real.effective_gain(Scheme.CAMF))
    ref = np.angle(real.beta_tilde)
    assert np.allclose((phases - ref + np.pi) % (2 * np.pi) - np.pi, 0,
                       atol=1e-12)


def test_backscatter_frame_matches_columns():
    real, rng = _random_realization(7)
    frame = gen_frame(32, 10, rng)
    s = sample_bits(10, rng)
    for gain in (real.beta_tilde * real.V, real.beta * real.G):
        a = backscatter_frame(gain, frame, s)
        for m in range(10):
            assert np.allclose(a[:, m], gain * frame[:, m] * s[m])
