import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from ambc.analysis import (LinkBudget, ber_cuif_closed, ber_cuif_conditional,
                           ber_unknown_symbols, q_function, theorem1_gap)
from ambc.channel import cir_to_freq, sample_cir, CirProfile
from ambc.config import E_X, SimParams


def budget_at(snr_db, L=32, P=4, alpha_sq=0.2):
    return LinkBudget.from_sim(SimParams(L=L, P=P, alpha_sq=alpha_sq,
                                         snr_db=snr_db))


def test_q_function_half_at_zero():
    assert q_function(0.0) == 0.5


def test_q_function_tail_limits():
    assert q_function(-8.0) > 1 - 1e-14
    assert q_function(40.0) < 1e-300


def test_q_function_against_quadrature():
    for x in (-2.0, -0.5, 0.3, 1.959964, 3.0):
        val, _ = integrate.quad(
            lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), x, np.inf)
        assert abs(q_function(x) - val) < 1e-12
    assert abs(q_function(1.959964) - 0.025) < 1e-6


def test_gamma_x_conversion():
    assert np.isclose(budget_at(6.0).gamma_x, 2 * 10 ** 0.6)


def test_conditional_cuif_no_signal():
    G = np.ones(8)
    assert ber_cuif_conditional(G, 0.0, 1.0) == 0.5


def test_conditional_cuif_forms_agree():
    rng = np.random.default_rng(0)
    g = sample_cir(CirProfile.uniform(4), rng)
    G = cir_to_freq(g, 32)
    beta, n0 = 0.4 + 0.2j, 0.5
    via_l = ber_cuif_conditional(G, beta, n0)
    arg = 2 * abs(beta) ** 2 * 32 * (E_X / n0) * np.sum(np.abs(g) ** 2)
    via_p = float(q_function(np.sqrt(arg)))
    assert abs(via_l - via_p) < 1e-10


def test_conditional_cuif_noiseless_limit():
    G = np.ones(8)
    assert ber_cuif_conditional(G, 0.5, 1e-12) < 1e-300


def test_closed_form_single_branch():
    b = budget_at(4.0, P=1)
    branch = b.L * b.beta_sq * b.gamma_x * (1 / b.P)
    mu = np.sqrt(branch / (1 + branch))
    assert np.isclose(ber_cuif_closed(b), (1 - mu) / 2)


def test_closed_form_high_snr_limit():
    assert ber_cuif_closed(budget_at(80.0)) < 1e-12


def test_closed_form_matches_conditional_expectation():
    # Monte Carlo mean of the conditional BER over channel draws
    b = budget_at(4.0)
    rng = np.random.default_rng(2)
    n = 10 ** 5
    g = np.sqrt(0.25 / 2) * (rng.standard_normal((n, 4))
                             + 1j * rng.standard_normal((n, 4)))
    arg = 2 * b.beta_sq * b.L * b.gamma_x * np.sum(np.abs(g) ** 2, axis=1)
    samples = q_function(np.sqrt(arg))
    mean = samples.mean()
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(mean - ber_cuif_closed(b)) < 3 * se


# (L, P, snr_db, ber_cuif_closed, ber_unknown_symbols) at alpha_sq = 0.2,
# recorded before the closed forms were restated for equal-power taps
PINNED_CLOSED_FORMS = [
    (16, 1, 0.0, 0.03500944502472286, 0.050518117867270146),
    (16, 1, 6.0, 0.009532360363268766, 0.012171722537767899),
    (16, 4, 0.0, 0.003606138831793749, 0.010339248696185417),
    (16, 4, 6.0, 4.909938295346258e-05, 0.0001274391257205495),
    (16, 8, 0.0, 0.0012574509935342959, 0.005682851814717197),
    (16, 8, 6.0, 1.1765634966094887e-06, 7.236014464306761e-06),
    (32, 1, 0.0, 0.018456587656923207, 0.02693032501794632),
    (32, 1, 6.0, 0.0048349817617980295, 0.006143950996178781),
    (32, 4, 0.0, 0.0004887401061955535, 0.0017107567269972499),
    (32, 4, 6.0, 3.953718391991615e-06, 1.0198406580469006e-05),
    (32, 8, 0.0, 5.802922468481373e-05, 0.00043583762013629134),
    (32, 8, 6.0, 1.203402744304331e-08, 7.695430822518672e-08),
    (128, 1, 0.0, 0.004812431527861705, 0.007086504096834084),
    (128, 1, 6.0, 0.001222012459758226, 0.0015475496314926393),
    (128, 4, 0.0, 3.88423078403215e-06, 1.6887884716406465e-05),
    (128, 4, 6.0, 1.8905967984954832e-08, 4.85065129226497e-08),
    (128, 8, 0.0, 1.1642344735262284e-08, 1.8087671265932658e-07),
    (128, 8, 6.0, 4.13325010141341e-13, 2.6976527217860595e-12),
]


def test_closed_forms_pinned():
    for L, P, snr, closed, mix in PINNED_CLOSED_FORMS:
        b = budget_at(snr, L=L, P=P)
        assert ber_cuif_closed(b) == pytest.approx(closed, rel=1e-13, abs=0)
        assert ber_unknown_symbols(b) == pytest.approx(mix, rel=1e-13, abs=0)


def test_link_budget_validation():
    for kwargs in ({"P": 0}, {"gamma_x": 0.0}, {"alpha_sq": -0.1},
                   {"L": -3}, {"L": 2.5}, {"P": 2.5}, {"L": 2},
                   {"gamma_x": math.nan}, {"gamma_x": math.inf},
                   {"alpha_sq": math.nan}, {"alpha_sq": math.inf},
                   {"gamma_x": 1e308}, {"P": True},
                   # a bool is not a count, though L = P = 1 would hold
                   {"L": True, "P": True}):
        with pytest.raises(ValueError):
            LinkBudget(**{"L": 32, "P": 4, "alpha_sq": 0.2, "gamma_x": 5.0,
                          **kwargs})


def mrc_reference(branch, P):
    # P-branch MRC BER as a regularized incomplete beta:
    # sum_p C(P-1+p, p) (1-c)^p c^P = P(Bin(2P-1, c) >= P) = I_c(P, P)
    mu = np.sqrt(branch / (1.0 + branch))
    return np.minimum(special.betainc(P, P, (1.0 - mu) / 2.0), 0.5)


def mixture_reference(b):
    gamma_h = 1.0 / (E_X / b.gamma_x + b.beta_sq * E_X)
    p_ber = 0.5 * (1.0 - np.sqrt(gamma_h / (1.0 + gamma_h)))
    p_ser = 1.0 - (1.0 - p_ber) ** 2
    k = np.arange(b.L + 1)
    ber = mrc_reference(k * b.beta_sq * b.gamma_x * (1.0 / b.P), b.P)
    ber[0] = 0.5
    return min(stats.binom.pmf(k, b.L, 1.0 - p_ser) @ ber, 0.5)


@pytest.mark.filterwarnings("error")
def test_closed_forms_match_scipy_reference():
    x = np.concatenate([np.linspace(-40.0, 40.0, 799), [-1e300, 1e300]])
    got = q_function(x.reshape(3, -1))
    assert isinstance(got, np.ndarray) and got.shape == (3, 267)
    ref = 0.5 * special.erfc(x / np.sqrt(2.0))
    # past x = 37.5 the tail is subnormal, which libm keeps and scipy
    # flushes to 0: no relative error is defined there
    np.testing.assert_allclose(got.ravel(), ref, rtol=1e-12,
                               atol=np.finfo(float).tiny)
    for L in (1, 2, 16, 128, 1024, 4096):
        for P in (p for p in (1, 4, 64) if p <= L):
            for snr in (-1000.0, -40.0, 0.0, 30.0, 300.0, 1000.0):
                for alpha_sq in (1e-300, 0.2, 1.0):
                    b = budget_at(snr, L=L, P=P, alpha_sq=alpha_sq)
                    branch = L * alpha_sq * b.gamma_x * (1.0 / P)
                    for value, ref in (
                            (ber_cuif_closed(b), mrc_reference(branch, P)),
                            (ber_unknown_symbols(b), mixture_reference(b))):
                        assert math.isfinite(value) and 0.0 <= value <= 0.5
                        assert value == pytest.approx(float(ref), rel=1e-12,
                                                      abs=0)


def test_unknown_symbols_limits():
    b = budget_at(6.0)
    # the mixture sits between the known-symbol closed form and 0.5
    mix = ber_unknown_symbols(b)
    closed = ber_cuif_closed(b)
    assert closed < mix < 0.5


def test_unknown_symbols_strictly_above_closed_form():
    b = budget_at(6.0)
    assert ber_unknown_symbols(b) > ber_cuif_closed(b)


def test_unknown_symbols_k0_term():
    # with a single usable subcarrier budget, result approaches 0.5
    b = budget_at(-40.0)
    assert abs(ber_unknown_symbols(b) - 0.5) < 0.01


def test_theorem1_flat_equality():
    L = 16
    G = np.exp(1j * np.linspace(0, 5, L))
    camf, cuif = theorem1_gap(G, budget_at(6.0, L=L))
    assert abs(camf - cuif) <= 1e-10 * cuif


def test_theorem1_single_tone_max_gap():
    L = 8
    G = np.zeros(L, dtype=complex)
    G[0] = 2.0
    camf, cuif = theorem1_gap(G, budget_at(6.0, L=L))
    assert np.isclose(camf / cuif, L)


def test_theorem1_property_sweep():
    rng = np.random.default_rng(3)
    b = budget_at(6.0)
    for _ in range(10 ** 4):
        g = sample_cir(CirProfile.uniform(4), rng)
        G = cir_to_freq(g, 32)
        camf, cuif = theorem1_gap(G, b)
        assert camf >= cuif - 1e-12


def test_theorem1_rejects_zero_channel():
    with pytest.raises(ValueError):
        theorem1_gap(np.zeros(8), budget_at(6.0))


def test_probability_ranges_and_monotonicity():
    snrs = np.arange(-2.0, 12.0)
    closed = [ber_cuif_closed(budget_at(s)) for s in snrs]
    mix = [ber_unknown_symbols(budget_at(s)) for s in snrs]
    for seq in (closed, mix):
        assert all(0 <= v <= 0.5 for v in seq)
        assert all(a >= b for a, b in zip(seq, seq[1:]))
    # coin-flip points where rounding in the binomials exceeded 0.5
    for L, P in ((4, 1), (5, 5)):
        b = budget_at(-1000.0, L=L, P=P)
        assert ber_cuif_closed(b) <= 0.5 and ber_unknown_symbols(b) <= 0.5
    for L in (8, 16, 32, 64):
        assert (ber_cuif_closed(budget_at(6.0, L=2 * L))
                <= ber_cuif_closed(budget_at(6.0, L=L)))
    for a2 in (0.05, 0.1, 0.2, 0.4):
        assert (ber_cuif_closed(budget_at(6.0, alpha_sq=min(1.0, 2 * a2)))
                <= ber_cuif_closed(budget_at(6.0, alpha_sq=a2)))
