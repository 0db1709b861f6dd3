import numpy as np
import pytest

from ambc.bd import backscatter_frame, sample_bits
from ambc.channel import (CirProfile, cir_to_freq, effective_gain,
                          sample_cir, sample_realization)
from ambc.config import Scheme, SimParams
from ambc.ofdm import gen_frame


def _random_tag_link(seed, L=32, P=4, alpha_sq=0.2):
    """A drawn tag-link response G, beta = alpha e^{j theta} and the rest
    of the stream."""
    rng = np.random.default_rng(seed)
    _, G, theta = sample_realization(SimParams(L=L, P=P, alpha_sq=alpha_sq),
                                     rng)
    return G, np.sqrt(alpha_sq) * np.exp(1j * theta), rng


def _tag_filter(G, beta, scheme):
    """The tag's transmit filter b, from a_l = beta G_l b_l x_l s."""
    return effective_gain(G, beta, scheme) / (beta * G)


def test_sample_bits_pilot():
    bits = sample_bits(50, np.random.default_rng(0), pilot_first=True)
    assert bits[0] == 1
    assert np.all(np.isin(bits, (-1, 1)))


def test_cuif_waveform():
    # impulse filter: b = 1 on every subcarrier, ||b||^2 = L
    G, beta, _ = _random_tag_link(0)
    for scheme in (Scheme.CUIF, Scheme.GENIE_CUIF, Scheme.ENERGY):
        assert np.allclose(_tag_filter(G, beta, scheme), np.ones(32))


def test_camf_flat_channel_is_all_ones():
    G = cir_to_freq(np.array([1.0 + 0j]), 8)
    assert np.allclose(_tag_filter(G, 0.5 * np.exp(0.3j), Scheme.CAMF),
                       np.ones(8))


def test_camf_rejects_zero_channel():
    G = cir_to_freq(np.zeros(2, complex), 8)
    for scheme in (Scheme.CAMF, Scheme.GENIE_CAMF):
        with pytest.raises(ValueError, match="G is identically zero"):
            effective_gain(G, 0.5 * np.exp(0.3j), scheme)


def test_camf_conjugation_and_energy():
    rng = np.random.default_rng(1)
    params = SimParams(L=16, P=16)
    for _ in range(2000):
        _, G, theta = sample_realization(params, rng)
        b = _tag_filter(G, np.sqrt(params.alpha_sq) * np.exp(1j * theta),
                        Scheme.CAMF)
        assert abs(np.linalg.norm(b) ** 2 - 16) < 1e-9
        # per element, b is a positive multiple of conj(G)
        assert np.allclose(np.angle(b * G), 0.0, atol=1e-9)


def test_energy_parity_cuif_vs_camf():
    G, beta, _ = _random_tag_link(2)
    assert np.isclose(np.linalg.norm(_tag_filter(G, beta, Scheme.CUIF)) ** 2,
                      np.linalg.norm(_tag_filter(G, beta, Scheme.CAMF)) ** 2)


def test_backscatter_two_route_agreement():
    G, beta, rng = _random_tag_link(3)
    x = gen_frame(32, 1, rng)
    a = backscatter_frame(effective_gain(G, beta, Scheme.CAMF), x,
                          np.array([-1]))
    kappa = np.sqrt(32) / np.linalg.norm(G)
    direct = (beta * kappa * G * np.conj(G)) * x[:, 0] * -1
    assert np.allclose(a[:, 0], direct, atol=1e-12)


def test_backscatter_flat_channel_reduces_to_cuif():
    G = cir_to_freq(np.array([1.0 + 0j]), 8)
    beta = np.sqrt(0.2) * np.exp(0.7j)
    x = gen_frame(8, 1, np.random.default_rng(4))
    camf, cuif = (backscatter_frame(effective_gain(G, beta, scheme), x,
                                    np.array([1]))
                  for scheme in (Scheme.CAMF, Scheme.CUIF))
    assert np.allclose(camf, cuif)
    assert np.allclose(camf, beta * x)


def test_backscatter_zero_reflection():
    rng = np.random.default_rng(5)
    _, g = sample_cir(CirProfile(4), rng), sample_cir(CirProfile(4), rng)
    G = cir_to_freq(g, 32)
    x = gen_frame(32, 1, rng)
    for scheme in (Scheme.CAMF, Scheme.CUIF):
        gain = effective_gain(G, 0.0 * np.exp(0.4j), scheme)
        assert np.allclose(backscatter_frame(gain, x, np.array([1])), 0)


def test_camf_common_phase_property():
    G, beta, _ = _random_tag_link(6)
    phases = np.angle(effective_gain(G, beta, Scheme.CAMF))
    # kappa > 0, so the common phase is beta's
    ref = np.angle(beta)
    assert np.allclose((phases - ref + np.pi) % (2 * np.pi) - np.pi, 0,
                       atol=1e-12)


def test_backscatter_frame_matches_columns():
    G, beta, rng = _random_tag_link(7)
    frame = gen_frame(32, 10, rng)
    s = sample_bits(10, rng)
    for gain in (effective_gain(G, beta, Scheme.CAMF),
                 effective_gain(G, beta, Scheme.CUIF)):
        a = backscatter_frame(gain, frame, s)
        for m in range(10):
            assert np.allclose(a[:, m], gain * frame[:, m] * s[m])
