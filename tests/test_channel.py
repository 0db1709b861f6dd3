import numpy as np
import pytest

from ambc.channel import (CirProfile, cir_to_freq, effective_gain,
                          sample_cir, sample_realization)
from ambc.config import Scheme, SimParams


def test_profile_validation():
    with pytest.raises(ValueError):
        CirProfile(taps=0)


def test_uniform_profile():
    prof = CirProfile.uniform(4)
    assert np.allclose(prof.variances, 0.25)


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
    # stacked CIRs: the taps run along the last axis
    with pytest.raises(ValueError):
        cir_to_freq(np.ones((2, 9)), 8)
    assert cir_to_freq(np.ones((9, 2)), 8).shape == (9, 8)


def test_parseval():
    rng = np.random.default_rng(3)
    for _ in range(50):
        taps = sample_cir(CirProfile.uniform(4), rng)
        H = cir_to_freq(taps, 32)
        lhs = np.sum(np.abs(H) ** 2)
        rhs = 32 * np.sum(np.abs(taps) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_realization_beta_with_zero_phase():
    # theta = 0 makes beta = alpha: a flat unit G passes it on as the gain
    G = cir_to_freq(np.array([1.0 + 0j]), 8)
    beta = np.sqrt(0.2) * np.exp(1j * 0.0)
    assert np.isclose(beta, np.sqrt(0.2))
    assert np.allclose(effective_gain(G, beta, Scheme.CUIF), np.sqrt(0.2))


def test_flat_g_gives_unit_kappa():
    G = cir_to_freq(np.array([1.0 + 0j]), 32)
    beta = 0.5 * np.exp(1j * 1.0)
    assert np.allclose(np.abs(G), 1.0)
    # kappa = sqrt(L) / ||G|| = 1: the matched filter leaves the gain as is
    assert np.allclose(effective_gain(G, beta, Scheme.CAMF),
                       effective_gain(G, beta, Scheme.CUIF))
    assert np.allclose(effective_gain(G, beta, Scheme.CAMF), beta)


def test_realization_invariants_sweep():
    params = SimParams()
    rng = np.random.default_rng(11)
    alpha = np.sqrt(params.alpha_sq)
    for _ in range(10 ** 4):
        H, G, theta = sample_realization(params, rng)
        assert H.shape == G.shape == (params.L,) and 0 <= theta < 2 * np.pi
        beta = alpha * np.exp(1j * theta)
        camf = effective_gain(G, beta, Scheme.CAMF)
        # CUIF's gain is beta G, so |beta| = alpha
        assert np.allclose(np.abs(effective_gain(G, beta, Scheme.CUIF)),
                           alpha * np.abs(G), rtol=1e-12, atol=0)
        # CAMF's is beta kappa |G|^2: one common phase, theta's, and
        # nonnegative magnitudes, summing to alpha kappa ||G||^2 with
        # kappa = sqrt(L) / ||G||
        assert np.all((camf * np.exp(-1j * theta)).real >= 0)
        assert np.allclose((camf * np.exp(-1j * theta)).imag, 0,
                           atol=1e-12)
        assert abs(np.abs(camf).sum() - alpha * np.sqrt(params.L)
                   * np.linalg.norm(G)) < 1e-9


def test_derived_fields_consistent():
    params = SimParams()
    H, G, theta = sample_realization(params, np.random.default_rng(2))
    # the same draws, in sample_realization's order
    rng = np.random.default_rng(2)
    profile = CirProfile(params.P)
    h, g = sample_cir(profile, rng), sample_cir(profile, rng)
    assert theta == rng.uniform(0.0, 2.0 * np.pi)
    assert np.allclose(H, cir_to_freq(h, params.L))
    assert np.allclose(G, cir_to_freq(g, params.L))
    # the gain rule, for every scheme, in the rule's arithmetic order
    beta = np.sqrt(params.alpha_sq) * np.exp(1j * theta)
    kappa = np.sqrt(params.L) / np.linalg.norm(G)
    for scheme in Scheme:
        camf = scheme in (Scheme.CAMF, Scheme.GENIE_CAMF)
        expected = beta * kappa * np.abs(G) ** 2 if camf else beta * G
        assert np.array_equal(effective_gain(G, beta, scheme), expected)


def test_effective_gain_rejects_a_non_scheme():
    # a scheme's name is not a Scheme: "CAMF" would get the impulse filter
    G = cir_to_freq(np.array([0.6 + 0.2j, 0.3j]), 8)
    for scheme in ("CAMF", "CUIF", None):
        with pytest.raises(ValueError, match="scheme must be a Scheme"):
            effective_gain(G, 0.5, scheme)
