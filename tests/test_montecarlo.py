import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ambc import montecarlo
from ambc.analysis import LinkBudget, ber_cuif_closed
from ambc.config import EmConfig, Scheme, SimParams
from ambc.montecarlo import (BerCurve, BerPoint, compare_curves, run_slot,
                             slot_rng, sweep, trend_verdict)


def test_slot_rng_reproducible_and_distinct():
    a = slot_rng(7, 3, 1).standard_normal(4)
    b = slot_rng(7, 3, 1).standard_normal(4)
    c = slot_rng(7, 4, 1).standard_normal(4)
    d = slot_rng(7, 3, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_run_slot_deterministic():
    params = SimParams(scheme=Scheme.CAMF, seed=5)
    assert run_slot(params, 0) == run_slot(params, 0)


def test_run_slot_em_scores_data_bits_only():
    params = SimParams(M=40, scheme=Scheme.CAMF, seed=1)
    _, total = run_slot(params, 0)
    assert total == 39


def test_em_scheme_needs_a_data_bit_after_the_pilot():
    for scheme in (Scheme.CAMF, Scheme.CUIF):
        with pytest.raises(ValueError):
            SimParams(M=1, scheme=scheme)
    assert run_slot(SimParams(M=1, scheme=Scheme.GENIE_CAMF), 0)[1] == 1


@settings(max_examples=100, deadline=None, database=None)
@given(L=st.integers(1, 12), P=st.integers(1, 6), M=st.integers(1, 6),
       alpha_sq=st.floats(0.0, 1.0), snr_db=st.floats(-20.0, 40.0),
       scheme=st.sampled_from(Scheme), n_iter=st.integers(1, 3))
def test_every_accepted_point_runs(L, P, M, alpha_sq, snr_db, scheme, n_iter):
    try:
        params = SimParams(L=L, M=M, P=P, alpha_sq=alpha_sq, snr_db=snr_db,
                           scheme=scheme, em=EmConfig(n_iter_max=n_iter),
                           slots=1)
    except ValueError:
        return
    errors, bits = run_slot(params, 0)
    assert bits > 0
    assert 0 <= errors <= bits


def test_simparams_rejects_non_finite_snr_and_negative_seed():
    for snr_db in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            SimParams(snr_db=snr_db)
        with pytest.raises(ValueError):
            SimParams().at("snr_db", snr_db)
    with pytest.raises(ValueError):
        SimParams(seed=-1)
    assert SimParams(seed=0, snr_db=-30.0).seed == 0


def test_emconfig_rejects_non_finite_or_non_positive_epsilon():
    # a nan epsilon would make every convergence test false and silently
    # run each descent to n_iter_max
    for epsilon in (float("nan"), float("inf"), float("-inf"), 0.0, -1e-6):
        with pytest.raises(ValueError):
            EmConfig(epsilon=epsilon)
    assert EmConfig(n_iter_max=1, epsilon=1e300).epsilon == 1e300


# (bit_errors, total_bits) of the EM schemes at alpha^2 = 0.1, 6 slots,
# seed 11, recorded before the EM receiver was vectorised. Seeded counts
# are part of the output contract: a speed-up must leave them unchanged.
PINNED_EM_COUNTS = {
    ("CAMF", 32, -4.0): (175, 594),
    ("CAMF", 32, 0.0): (14, 594),
    ("CAMF", 128, -4.0): (195, 594),
    ("CAMF", 128, 0.0): (1, 594),
    ("CUIF", 32, -4.0): (272, 594),
    ("CUIF", 32, 0.0): (189, 594),
    ("CUIF", 128, -4.0): (294, 594),
    ("CUIF", 128, 0.0): (111, 594),
    # CAMF at 14 dB, alpha^2 = 0.004, 40 slots, EmConfig(20, 1e-6): here
    # restarts often end on the same estimate and exact log-likelihood ties
    # pick the winner (recorded before the E-step and M-step were derived
    # from the matched-filter output)
    ("CAMF", 16, 14.0): (29, 3960),
    ("CAMF", 32, 14.0): (9, 3960),
}


def test_em_counts_pinned():
    counts = {}
    for scheme in (Scheme.CAMF, Scheme.CUIF):
        for L in (32, 128):
            params = SimParams(L=L, alpha_sq=0.1, scheme=scheme, slots=6,
                               seed=11)
            for pt in sweep(params, "snr_db", [-4.0, 0.0]).points:
                counts[(scheme.value, L, pt.swept_value)] = (pt.bit_errors,
                                                             pt.total_bits)
    for L in (16, 32):
        params = SimParams(L=L, alpha_sq=0.004, scheme=Scheme.CAMF, slots=40,
                           seed=11, em=EmConfig(n_iter_max=20, epsilon=1e-6))
        pt = sweep(params, "snr_db", [14.0]).points[0]
        counts[("CAMF", L, 14.0)] = (pt.bit_errors, pt.total_bits)
    assert counts == PINNED_EM_COUNTS


def test_run_slot_genie_scores_all_bits():
    params = SimParams(M=40, scheme=Scheme.GENIE_CUIF, seed=1)
    _, total = run_slot(params, 0)
    assert total == 40


def test_run_slot_high_snr_error_free():
    params = SimParams(snr_db=40.0, scheme=Scheme.GENIE_CAMF, seed=2)
    errors = sum(run_slot(params, i)[0] for i in range(20))
    assert errors == 0


def test_genie_cuif_matches_closed_form():
    # bits within a slot share one channel draw, so the spread is set by
    # the slot-level variance rather than the per-bit binomial one
    params = SimParams(snr_db=0.0, scheme=Scheme.GENIE_CUIF, seed=3)
    n = 1500
    per_slot = np.array([run_slot(params, i)[0] for i in range(n)])
    ber = per_slot.sum() / (n * params.M)
    se = per_slot.std(ddof=1) / np.sqrt(n) / params.M
    expected = ber_cuif_closed(LinkBudget.from_sim(params))
    assert abs(ber - expected) < 3 * se


def test_energy_scheme_runs_and_beats_chance():
    params = SimParams(snr_db=8.0, scheme=Scheme.ENERGY, seed=4)
    errors = total = 0
    for i in range(50):
        e, t = run_slot(params, i)
        errors += e
        total += t
    assert 0 < errors / total < 0.5


def test_sweep_rejects_bad_axis_and_empty_values():
    params = SimParams()
    with pytest.raises(ValueError):
        sweep(params, "bogus", [1.0])
    with pytest.raises(ValueError):
        sweep(params, "snr_db", [])


def test_sweep_points_sorted_and_counts_consistent():
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=20, seed=6)
    curve = sweep(params, "snr_db", [4.0, 0.0])
    values = [p.swept_value for p in curve.points]
    assert values == [0.0, 4.0]
    for pt in curve.points:
        assert pt.total_bits == 20 * params.M
        assert np.isclose(pt.ber, pt.bit_errors / pt.total_bits)


def test_sweep_applies_axis_value():
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=5, seed=6)
    curve = sweep(params, "L", [16])
    assert curve.points[0].total_bits == 5 * params.M
    # a different L must change the sampled channel, hence the counts stream
    a = sweep(params, "L", [16]).points[0]
    b = sweep(params, "L", [64]).points[0]
    assert (a.bit_errors, a.total_bits) == (curve.points[0].bit_errors,
                                            curve.points[0].total_bits)
    assert b.total_bits == a.total_bits


def test_at_maps_axes_and_rejects_non_integral_values():
    params = SimParams()
    assert params.at("L", 16.0).L == 16
    assert params.at("n_iter", 3.0).em.n_iter_max == 3
    assert params.at("snr_db", 2).snr_db == 2.0
    for axis in ("L", "P", "n_iter"):
        with pytest.raises(ValueError):
            params.at(axis, 2.5)
    with pytest.raises(ValueError):
        params.at("bogus", 1.0)
    with pytest.raises(ValueError):
        sweep(params.with_(scheme=Scheme.GENIE_CUIF, slots=1), "L", [16.5])


def test_sweep_n_iter_axis():
    params = SimParams(scheme=Scheme.CAMF, slots=3, seed=7)
    curve = sweep(params, "n_iter", [1])
    assert curve.points[0].total_bits == 3 * (params.M - 1)


def test_sweep_worker_count_invariant():
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=30, seed=8)
    one = sweep(params, "snr_db", [0.0, 4.0], n_workers=1)
    many = sweep(params, "snr_db", [0.0, 4.0], n_workers=3)
    for p1, p2 in zip(one.points, many.points):
        assert (p1.bit_errors, p1.total_bits) == (p2.bit_errors, p2.total_bits)


def test_sweep_starts_one_pool_for_all_points(monkeypatch):
    started = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    params = SimParams(scheme=Scheme.GENIE_CUIF, slots=5, seed=9)
    values = [0.0, 2.0, 4.0]
    many = sweep(params, "snr_db", values, n_workers=2)
    assert started == [{"max_workers": 2}]
    one = sweep(params, "snr_db", values, n_workers=1)
    assert len(started) == 1
    assert [(p.bit_errors, p.total_bits) for p in one.points] == [
        (p.bit_errors, p.total_bits) for p in many.points]


def test_curve_requires_sorted_points():
    params = SimParams()
    pts = (BerPoint.from_counts(4.0, 1, 100),
           BerPoint.from_counts(0.0, 1, 100))
    with pytest.raises(ValueError):
        BerCurve(axis_name="snr_db", points=pts, params_snapshot=params)


def make_curve(bers, totals=10 ** 6):
    params = SimParams()
    pts = tuple(BerPoint.from_counts(float(i), int(round(b * totals)), totals)
                for i, b in enumerate(bers))
    return BerCurve(axis_name="snr_db", points=pts, params_snapshot=params)


def test_trend_verdicts():
    assert trend_verdict(make_curve([1e-2, 3e-3, 1e-3, 3e-4])) == "decreasing"
    assert trend_verdict(make_curve([3e-4, 1e-3, 3e-3, 1e-2])) == "increasing"
    assert trend_verdict(make_curve([1e-3, 1.01e-3, 0.99e-3])) == "flat"


def test_trend_single_point_flat():
    assert trend_verdict(make_curve([1e-3][:1])) == "flat"


def test_compare_curves():
    a = make_curve([1e-2, 1e-3, 1e-4])
    b = make_curve([2e-2, 2e-3, 2e-4])
    cmp = compare_curves(a, b)
    assert np.all(cmp.diffs < 0)
    assert cmp.trend_a == cmp.trend_b == "decreasing"
    assert np.allclose(cmp.pooled_stderrs,
                       np.hypot(a.stderrs, b.stderrs))


def test_compare_curves_mismatched_axes():
    a = make_curve([1e-2, 1e-3])
    params = SimParams()
    pts = (BerPoint.from_counts(0.0, 10, 1000),)
    b = BerCurve(axis_name="snr_db", points=pts, params_snapshot=params)
    with pytest.raises(ValueError):
        compare_curves(a, b)
