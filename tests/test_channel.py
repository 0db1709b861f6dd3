import numpy as np
import pytest

from ambc.channel import (ChannelRealization, CirProfile, cir_to_freq,
                          realization_from_parts, sample_cir,
                          sample_realization)
from ambc.config import Scheme, SimParams


def test_profile_validation():
    with pytest.raises(ValueError):
        CirProfile(taps=2, variances=np.array([0.5]))
    with pytest.raises(ValueError):
        CirProfile(taps=1, variances=np.array([-0.1]))
    with pytest.raises(ValueError):
        CirProfile(taps=0, variances=np.array([]))


def test_uniform_profile():
    prof = CirProfile.uniform(4)
    assert np.allclose(prof.variances, 0.25)


def test_zero_variance_tap_is_deterministic_zero():
    prof = CirProfile(taps=1, variances=np.array([0.0]))
    rng = np.random.default_rng(0)
    assert sample_cir(prof, rng)[0] == 0


def test_tap_variance_matches_profile():
    prof = CirProfile.uniform(4)
    rng = np.random.default_rng(7)
    n = 10 ** 5
    draws = np.array([sample_cir(prof, rng) for _ in range(n)])
    power = np.abs(draws) ** 2
    # |g_p|^2 is exponential with mean 1/4 and std 1/4
    se = 0.25 / np.sqrt(n)
    assert np.all(np.abs(power.mean(axis=0) - 0.25) < 3 * se)


def test_cir_to_freq_single_tap():
    assert np.allclose(cir_to_freq(np.array([1.0]), 8), np.ones(8))


def test_cir_to_freq_pure_delay():
    out = cir_to_freq(np.array([0.0, 1.0]), 4)
    assert np.allclose(out, [1, -1j, -1, 1j])


def test_cir_to_freq_rejects_long_cir():
    with pytest.raises(ValueError):
        cir_to_freq(np.ones(9), 8)


def test_parseval():
    rng = np.random.default_rng(3)
    for _ in range(50):
        taps = sample_cir(CirProfile.uniform(4), rng)
        H = cir_to_freq(taps, 32)
        lhs = np.sum(np.abs(H) ** 2)
        rhs = 32 * np.sum(np.abs(taps) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_realization_beta_with_zero_phase():
    h = np.array([1.0 + 0j])
    g = np.array([1.0 + 0j])
    real = realization_from_parts(h, g, 8, alpha=np.sqrt(0.2), theta=0.0)
    assert np.isclose(real.beta, np.sqrt(0.2))


def test_flat_g_gives_unit_kappa():
    real = realization_from_parts(np.array([1.0 + 0j]), np.array([1.0 + 0j]),
                                  32, alpha=0.5, theta=1.0)
    assert np.allclose(np.abs(real.G), 1.0)
    assert np.isclose(real.kappa, 1.0)


def test_realization_invariants_sweep():
    params = SimParams()
    rng = np.random.default_rng(11)
    for _ in range(10 ** 4):
        real = sample_realization(params, rng)
        assert abs(real.kappa * np.linalg.norm(real.G)
                   - np.sqrt(params.L)) < 1e-9
        assert np.isclose(abs(real.f), 1.0)
        assert np.all(real.V >= 0)


def test_derived_fields_consistent():
    params = SimParams()
    rng = np.random.default_rng(2)
    real = sample_realization(params, rng)
    assert isinstance(real, ChannelRealization)
    assert np.allclose(real.H, cir_to_freq(real.h, params.L))
    assert np.allclose(real.G, cir_to_freq(real.g, params.L))
    assert np.isclose(real.beta, real.alpha * real.f)
    assert np.isclose(real.beta_tilde, real.beta * real.kappa)
    assert np.allclose(real.V, np.abs(real.G) ** 2)
    for scheme in Scheme:
        camf = scheme in (Scheme.CAMF, Scheme.GENIE_CAMF)
        expected = real.beta_tilde * real.V if camf else real.beta * real.G
        assert np.array_equal(real.effective_gain(scheme), expected)
