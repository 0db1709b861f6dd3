import numpy as np
import pytest

from ambc.ofdm import Constellation, detect_grid, gen_frame, qam4

POINTS = qam4().points


def qam_detect(y, gain):
    """Scalar reference for detect_grid: the point minimizing
    |y - gain*x|^2, ties (including gain = 0) to the first point."""
    d = np.abs(y - gain * POINTS) ** 2
    return POINTS[int(np.argmin(d))]


def test_qam4_points():
    const = qam4()
    assert np.allclose(np.abs(const.points) ** 2, 2.0)
    assert np.isclose(const.points.mean(), 0.0)
    assert const.points.size == 4


def test_constellation_rejects_nonconstant_modulus():
    with pytest.raises(ValueError):
        Constellation(points=np.array([1 + 0j, -1 + 0j, 3 + 0j, -3 + 0j]),
                      symbol_energy=1.0)


def test_gen_frame_entries_in_constellation():
    frame = gen_frame(32, 100, np.random.default_rng(0))
    assert frame.shape == (32, 100)
    assert np.all(np.isin(frame, POINTS))
    assert np.allclose(np.abs(frame) ** 2, 2.0)


def test_gen_frame_single_symbol():
    frame = gen_frame(1, 1, np.random.default_rng(1))
    assert frame.shape == (1, 1)
    assert frame[0, 0] in POINTS


def test_gen_frame_zero_mean():
    n = 10 ** 5
    frame = gen_frame(n, 1, np.random.default_rng(2))
    # per-component std is 1, so the complex mean has se sqrt(2/n)
    assert abs(frame.mean()) < 3 * np.sqrt(2.0 / n)


def test_qam_detect_nearest_point():
    y, gain = np.array([[2 + 2j]]), np.array([1 + 0j])
    assert detect_grid(np.conj(gain)[..., None] * y)[0, 0] == 1 + 1j


def test_qam_detect_noise_free_round_trip():
    rng = np.random.default_rng(3)
    x = POINTS[rng.integers(0, 4, (200, 5))]
    gain = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    y = gain[:, None] * x
    assert np.array_equal(detect_grid(np.conj(gain)[..., None] * y), x)


def test_qam_detect_zero_gain_returns_first_point():
    y, gain = np.array([[5 - 3j, -1 + 2j]]), np.zeros(1, complex)
    out = detect_grid(np.conj(gain)[..., None] * y)
    assert np.all(out == POINTS[0])


def test_qam_detect_matches_bruteforce():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((500, 1)) + 1j * rng.standard_normal((500, 1))
    gain = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    out = detect_grid(np.conj(gain)[..., None] * y)
    for l in range(500):
        best = min(POINTS, key=lambda x: abs(y[l, 0] - gain[l] * x) ** 2)
        assert out[l, 0] == best


def test_detect_grid_matches_scalar():
    rng = np.random.default_rng(5)
    for _ in range(20):
        L, M = rng.integers(1, 9, size=2)
        scale = 10.0 ** rng.uniform(-3, 3)
        y = scale * (rng.standard_normal((L, M))
                     + 1j * rng.standard_normal((L, M)))
        gain = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        out = detect_grid(np.conj(gain)[..., None] * y)
        assert out.shape == (L, M)
        for l in range(L):
            for m in range(M):
                assert out[l, m] == qam_detect(y[l, m], gain[l])


def test_detect_grid_batched_gain():
    rng = np.random.default_rng(7)
    R, L, M = 3, 5, 7
    y = rng.standard_normal((L, M)) + 1j * rng.standard_normal((L, M))
    gain = (rng.standard_normal((R, 2, L))
            + 1j * rng.standard_normal((R, 2, L)))
    out = detect_grid(np.conj(gain)[..., None] * y)
    assert out.shape == (R, 2, L, M)
    for r in range(R):
        for k in range(2):
            assert np.array_equal(
                out[r, k], detect_grid(np.conj(gain[r, k])[..., None] * y))
            for l in range(L):
                for m in range(M):
                    assert out[r, k, l, m] == qam_detect(y[l, m],
                                                         gain[r, k, l])


def test_detect_grid_exact_ties_follow_first_point_rule():
    # z = conj(gain) y on an axis (or zero) is an exact tie between points;
    # the closed form must pick what argmin's first-point rule picks
    y = np.array([[1.0, -1.0, 1j, -1j, 0.0, 2 - 2j, -3 + 1j]])
    for gain in (np.array([1.0 + 0j]), np.array([1j]), np.array([-1.0 + 0j]),
                 np.array([0j]), np.array([2.0 + 2.0j])):
        out = detect_grid(np.conj(gain)[..., None] * y)
        for m in range(y.shape[1]):
            assert out[0, m] == qam_detect(y[0, m], gain[0]), (gain, m)
    # signed zeros are ties too
    y = np.array([[complex(-0.0, 1.0), complex(1.0, -0.0),
                   complex(-0.0, -0.0)]])
    gain = np.array([1.0 + 0j])
    out = detect_grid(np.conj(gain)[..., None] * y)
    assert np.array_equal(out[0], [1 + 1j, 1 + 1j, 1 + 1j])


def test_bit_mapping_round_trip():
    # point index i carries the Gray bit pair (i >> 1, i & 1) with
    # I = 1 - 2 b_I and Q = 1 - 2 b_Q
    bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    symbols = (1 - 2 * bits[:, 0]) + 1j * (1 - 2 * bits[:, 1])
    assert np.array_equal(symbols, POINTS)

    def to_bits(x):
        idx = np.argmin(np.abs(x[:, None] - POINTS), axis=1)
        return np.stack([(idx >> 1) & 1, idx & 1], axis=-1)

    assert np.array_equal(to_bits(POINTS), bits)
    # Gray property: adjacent quadrants (rotation by 90 deg) differ in one bit
    diff = np.sum(to_bits(POINTS * 1j) != bits, axis=1)
    assert np.all(diff == 1)
