import math
import tracemalloc

import numpy as np
import pytest

from oplip.errors import DimMismatchError, DomainError, GuardViolationError, NonFiniteError
from oplip.norms import SingularValueProfile, schatten_norm, weak_l1
from oplip.suite import fejer_brute, fejer_convergence_profile
from oplip.torus import (
    FIBER_BLOCK,
    PROBE_BLOCK_SAMPLES,
    PROBE_MAX_POINTS,
    TWO_PI,
    HomogeneousSymbol,
    TorusSignal,
    _fiber_singular_values,
    _cancellation_free,
    _GramWork,
    _probe_sampler,
    _reference_norms,
    _trig_polynomial,
    coefficients,
    fejer,
    fourier_multiplier_apply,
    frequencies,
    frequency_index,
    periodization_probe,
    signal_from_coefficients,
    signal_norms,
    smoothing_eval,
    symbol_eval,
)


def character_signal(torus_dim, grid_size, k, fiber=None):
    """The signal fiber * e_k sampled on the grid (fiber defaults to scalar 1)."""
    fiber = np.eye(1) if fiber is None else np.asarray(fiber, dtype=complex)
    coeffs = np.zeros((grid_size,) * torus_dim + fiber.shape, dtype=complex)
    coeffs[frequency_index(k, grid_size)] = fiber
    return signal_from_coefficients(coeffs)


def _random_signal(d_torus, grid, fiber, seed):
    rng = np.random.default_rng(seed)
    shape = (grid,) * d_torus + (fiber, fiber)
    return TorusSignal(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_frequency_convention():
    np.testing.assert_array_equal(frequencies(8), [0, 1, 2, 3, 4, -3, -2, -1])
    np.testing.assert_array_equal(frequencies(5), [0, 1, 2, -2, -1])
    assert frequency_index([4], 8) == (4,)
    with pytest.raises(DomainError):
        frequency_index([-4], 8)  # balanced range is (-4, 4] for N=8
    with pytest.raises(DomainError):
        frequency_index([5], 8)


def test_roundtrip():
    w = _random_signal(2, 8, 3, seed=0)
    back = signal_from_coefficients(coefficients(w))
    assert np.linalg.norm(back.samples - w.samples) <= 1e-10 * np.linalg.norm(w.samples)


def test_character_signal_samples():
    w = character_signal(1, 8, [3])
    t = TWO_PI * np.arange(8) / 8
    np.testing.assert_allclose(w.samples[:, 0, 0], np.exp(3j * t), atol=1e-12)


@pytest.mark.parametrize("d_torus, grid", [(1, 9), (2, 8), (3, 6)])
@pytest.mark.parametrize("fiber", [1, 2])
def test_trig_polynomial_matches_the_scattered_coefficient_tensor(d_torus, grid, fiber):
    rng = np.random.default_rng(10 * d_torus + fiber)
    half = grid // 2
    freqs = rng.integers(-((grid - 1) // 2), half + 1, size=(5, d_torus))
    freqs[3] = freqs[1]  # a repeated frequency adds its fibers
    freqs[4, :] = half  # the top of the balanced range
    fibers = rng.standard_normal((5, fiber, fiber)) + 1j * rng.standard_normal((5, fiber, fiber))
    coeffs = np.zeros((grid,) * d_torus + (fiber, fiber), dtype=complex)
    for k, fib in zip(freqs, fibers):
        coeffs[frequency_index(k, grid)] += fib
    want = signal_from_coefficients(coeffs).samples
    got = _trig_polynomial(freqs, fibers, grid).samples
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_trig_polynomial_refuses_a_frequency_outside_the_balanced_range():
    with pytest.raises(DomainError, match="balanced range"):
        _trig_polynomial([[1], [-2]], np.ones((2, 1, 1)), 4)  # (-2, 2] for N = 4


def test_smoothing_values():
    assert smoothing_eval(0.75) == 0.75
    np.testing.assert_allclose(smoothing_eval(0.0), 1.0 / 3.0, rtol=1e-15)
    expected = 0.25 + math.exp(1.0 - 1.0 / 0.75) / 3.0
    np.testing.assert_allclose(smoothing_eval(0.25), expected, rtol=1e-15)
    with pytest.raises(DomainError):
        smoothing_eval(1.2)
    with pytest.raises(DomainError):
        smoothing_eval(-0.1)


@pytest.mark.parametrize("u", [np.nan, np.array([np.nan, 0.7]), np.array([[0.2], [np.nan]])])
def test_smoothing_refuses_nan(u):
    with pytest.raises(NonFiniteError):
        smoothing_eval(u)


def test_smoothing_constraints_on_grid():
    u = np.linspace(0.0, 1.0, 20001)
    vals = smoothing_eval(u)
    assert np.array_equal(u, np.linspace(0.0, 1.0, 20001))  # the argument is not written
    assert np.all(vals[u >= 0.5] == u[u >= 0.5])
    assert np.all(vals[u <= 0.5] >= 1.0 / 3.0 - 1e-15)
    # smooth junction: values approach 1/2 from above as u -> 1/2-
    assert abs(smoothing_eval(0.5 - 1e-9) - (0.5 - 1e-9)) < 1e-12


def test_symbol_eval_examples():
    g = HomogeneousSymbol(d=2, k0=1)
    assert symbol_eval(g, np.array([1.0, 0.0, 0.0])) == 0.0
    assert symbol_eval(g, np.zeros(3)) == 0.0
    g1 = HomogeneousSymbol(d=1, k0=1)
    np.testing.assert_allclose(symbol_eval(g1, np.array([1.0, 1.0])), 1.0, rtol=1e-14)


def test_symbol_rejects_k0_out_of_range():
    with pytest.raises(DomainError):
        HomogeneousSymbol(d=2, k0=3)


def test_symbol_homogeneity():
    g = HomogeneousSymbol(d=2, k0=2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.standard_normal(3)
        for c in (2.0, 17.5, 1e-3):
            np.testing.assert_allclose(symbol_eval(g, c * t), symbol_eval(g, t),
                                       rtol=1e-12, atol=1e-14)


def test_symbol_batch_matches_scalar():
    g = HomogeneousSymbol(d=1, k0=1)
    pts = np.random.default_rng(4).standard_normal((40, 2))
    batch = symbol_eval(g, pts)
    single = np.array([symbol_eval(g, p) for p in pts])
    np.testing.assert_array_equal(batch, single)


def _rowwise_symbol_eval(g, t):
    """The earlier symbol formula: reductions over the last axis of the table."""
    pts = np.asarray(t, dtype=float)
    norms = np.linalg.norm(pts, axis=-1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = pts / safe[..., np.newaxis]
    u = np.clip(np.sum(unit[..., : g.d] ** 2, axis=-1), 0.0, 1.0)
    vals = unit[..., g.k0 - 1] * unit[..., g.d] / smoothing_eval(u)
    return np.where(norms > 0, vals, 0.0)


@pytest.mark.parametrize("d", range(1, 7))
def test_symbol_columns_match_the_rowwise_formula(d):
    rng = np.random.default_rng(20 + d)
    table = rng.standard_normal((3000, d + 1)) * 10.0 ** rng.uniform(-100, 100, (3000, 1))
    table[::40] = 0.0
    table[1::7, rng.integers(0, d + 1)] = 0.0
    table[2::11] = rng.integers(-60, 61, table[2::11].shape)
    for k0 in range(1, d + 1):
        g = HomogeneousSymbol(d=d, k0=k0)
        assert np.array_equal(symbol_eval(g, table), _rowwise_symbol_eval(g, table))
        grid = table[:2400].reshape(40, 60, d + 1)
        assert np.array_equal(symbol_eval(g, grid), _rowwise_symbol_eval(g, grid))
        single = symbol_eval(g, table[3])
        assert single.shape == () and single == _rowwise_symbol_eval(g, table[3])


def test_symbol_homogeneous_at_every_finite_scale():
    g = HomogeneousSymbol(d=2, k0=1)
    for c in (1e200, 1e-200, 1e300, 1e-300, 2.0**-1074, np.finfo(float).max):
        assert symbol_eval(g, [c, c, c]) == 0.5
    t = np.random.default_rng(5).standard_normal((50, 3))
    want = symbol_eval(g, t)
    for c in (2.0**700, 2.0**-700, -(2.0**600)):
        assert np.array_equal(symbol_eval(g, c * t), want)
    # odd rows are rescaled alone; moderate rows beside them keep their values
    mixed = np.vstack([t, [[1e200] * 3, [0.0] * 3, [1e-200] * 3]])
    got = symbol_eval(g, mixed)
    assert np.array_equal(got[:50], want)
    np.testing.assert_array_equal(got[50:], [0.5, 0.0, 0.5])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_symbol_sign_flips_are_exact(d):
    # the orthant walk of suite._cone_deviation rests on this: negating c_k0 or
    # c_d (= m) negates the value bitwise, negating any other coordinate keeps it
    rng = np.random.default_rng(40 + d)
    table = rng.integers(-60, 61, (2000, d + 1)).astype(float)
    scales = rng.uniform(0.5, 2.0, (300, d + 1))
    table = np.vstack([table, 1e200 * scales, 1e-200 * scales])  # odd, rescaled rows
    for k0 in range(1, d + 1):
        g = HomogeneousSymbol(d=d, k0=k0)
        want = symbol_eval(g, table)
        for j in range(d + 1):
            flipped = table.copy()
            flipped[:, j] = -flipped[:, j]
            sign = -1.0 if j in (k0 - 1, d) else 1.0
            assert np.array_equal(symbol_eval(g, flipped), sign * want)


@pytest.mark.parametrize("bad", [[np.nan, 1.0, 1.0], [np.inf, 1.0, 0.0], [1.0, -np.inf, np.nan]])
def test_symbol_refuses_non_finite_points(bad):
    g = HomogeneousSymbol(d=2, k0=1)
    with pytest.raises(NonFiniteError):
        symbol_eval(g, bad)
    with pytest.raises(NonFiniteError):
        symbol_eval(g, np.vstack([np.ones((4, 3)), bad]))


def test_multiplier_on_characters():
    g = HomogeneousSymbol(d=1, k0=1)
    # constant coefficient: killed by g(0) = 0
    w0 = character_signal(2, 8, [0, 0])
    out = fourier_multiplier_apply(g, w0)
    assert np.linalg.norm(out.samples) <= 1e-12
    # e_(1,1) has g = 1
    w11 = character_signal(2, 8, [1, 1])
    out = fourier_multiplier_apply(g, w11)
    np.testing.assert_allclose(out.samples, w11.samples, atol=1e-12)
    # last frequency coordinate 0 kills e_(1,0)
    w10 = character_signal(2, 8, [1, 0])
    out = fourier_multiplier_apply(g, w10)
    assert np.linalg.norm(out.samples) <= 1e-12


def test_multiplier_composition():
    w = _random_signal(2, 8, 2, seed=5)
    m1 = lambda k: 1.0 / (1.0 + np.sum(k ** 2, axis=-1))
    m2 = lambda k: np.sin(1.0 + k[..., 0])
    lhs = fourier_multiplier_apply(m2, fourier_multiplier_apply(m1, w))
    rhs = fourier_multiplier_apply(lambda k: m1(k) * m2(k), w)
    assert np.linalg.norm(lhs.samples - rhs.samples) <= 1e-12 * np.linalg.norm(
        rhs.samples
    )


def test_multiplier_l2_contraction():
    w = _random_signal(1, 16, 2, seed=6)
    m = lambda k: 1.0 / (1.0 + np.abs(k[..., 0]))  # sup norm 1
    _, before, _ = signal_norms(w)
    _, after, _ = signal_norms(fourier_multiplier_apply(m, w))
    assert after <= before + 1e-12 * before


def test_fejer_monomial_weights():
    w = character_signal(2, 16, [2, -1])
    for order in (2, 3, 7):
        out = fejer(w, order)
        weight = (1 - 2 / (order + 1)) * (1 - 1 / (order + 1))
        np.testing.assert_allclose(out.samples, weight * w.samples, atol=1e-12)


def test_fejer_constant_unchanged():
    w = character_signal(1, 8, [0], fiber=np.diag([2.0, -1.0]))
    for order in (0, 1, 5):
        out = fejer(w, order)
        np.testing.assert_allclose(out.samples, w.samples, atol=1e-13)


def test_fejer_rejects_negative_order():
    with pytest.raises(DomainError):
        fejer(character_signal(1, 8, [1]), -1)


def test_fejer_matches_bruteforce():
    for d_torus, grid, fiber in [(1, 16, 4), (2, 8, 2), (2, 16, 3)]:
        w = _random_signal(d_torus, grid, fiber, seed=10 + d_torus)
        for order in (0, 1, 2, 5):
            closed = coefficients(fejer(w, order))
            brute = coefficients(fejer_brute(w, order))
            assert np.max(np.abs(closed - brute)) <= 1e-14


def test_fejer_convergence_rate():
    profile = fejer_convergence_profile(d_torus=1)
    rates = dict(profile)
    # nonincreasing beyond the signal degree
    orders = sorted(rates)
    assert all(rates[a] >= rates[b] - 1e-15 for a, b in zip(orders, orders[1:]))
    # bounded by degree/(n+1) times the constant measured at n = degree
    base = rates[1] * 2.0  # degree 1: constant = measured * (degree + 1)
    for order, rate in profile:
        assert rate <= base / (order + 1) + 1e-12
    assert all(rate < 1e-3 for order, rate in profile if order >= 50)


@pytest.mark.parametrize("fiber", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, -np.inf)])
def test_signal_norms_refuse_non_finite_samples(fiber, bad):
    samples = np.ones((4, fiber, fiber), dtype=complex)
    samples[2, 0, fiber - 1] = bad
    with pytest.raises(NonFiniteError):
        signal_norms(TorusSignal(samples))


def test_signal_norms_constant_identity():
    w = character_signal(1, 16, [0])
    l1, l2, weak = signal_norms(w)
    np.testing.assert_allclose(l1, TWO_PI, rtol=1e-12)
    np.testing.assert_allclose(l2, math.sqrt(TWO_PI), rtol=1e-12)
    assert weak <= l1 + 1e-12


def test_signal_norms_character_unimodular():
    for d_torus in (1, 2):
        k = [1] * d_torus
        w = character_signal(d_torus, 8, k)
        l1, _, weak = signal_norms(w)
        np.testing.assert_allclose(l1, TWO_PI**d_torus, rtol=1e-12)
        assert weak <= l1 + 1e-12


def _adversarial_fibers(n, seed, count=400):
    """Stacks of n x n fibers: random, near-equal singular values (gaps
    1e-16...1e-1), rank 1, mixed scales 1e-150...1e150, zero, and graded
    (last row 1e-290 against 1)."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    gap = 10.0 ** -rng.uniform(1, 16, (count, 1))
    spectrum = np.zeros((count, n, n))
    spectrum[:, range(n), range(n)] = 1.0 - gap * np.arange(n)
    graded = cplx(count, n, n)
    graded[:, -1, :] *= 1e-290
    return {
        "random": cplx(count, n, n),
        "near-equal": np.linalg.qr(cplx(count, n, n))[0] @ spectrum
        @ np.linalg.qr(cplx(count, n, n))[0],
        "rank-1": cplx(count, n, 1) @ cplx(count, 1, n),
        "mixed-scale": cplx(count, n, n) * 10.0 ** rng.uniform(-150, 150, (count, 1, 1)),
        "zero": np.zeros((4, n, n), dtype=complex),
        "graded": graded,
    }


@pytest.mark.parametrize("n", [1, 2])
def test_small_fiber_singular_values_match_lapack(n):
    eps = np.finfo(float).eps
    for name, stack in _adversarial_fibers(n, seed=40 + n).items():
        ref = np.linalg.svd(stack, compute_uv=False)
        with np.errstate(all="raise"):
            got = _fiber_singular_values(stack)
        assert got.shape == ref.shape, name
        assert np.all(np.abs(got - ref) <= 4.0 * eps * ref[:, :1]), name


def test_larger_fibers_use_lapack():
    for stack in _adversarial_fibers(3, seed=43).values():
        ref = np.linalg.svd(stack, compute_uv=False)
        np.testing.assert_array_equal(_fiber_singular_values(stack), ref)
        # the norms pool the descending sort of every fiber value, bitwise
        profile = SingularValueProfile(-np.sort(-ref.ravel()), TWO_PI / len(stack))
        want = (schatten_norm(profile, 1), schatten_norm(profile, 2), weak_l1(profile))
        assert signal_norms(TorusSignal(stack)) == want


def test_fiber_singular_values_decide_each_fiber_alone():
    # moderate fibers beside fibers at 2^+-300, 2^+-600 and zero fibers: the scaled
    # route some fibers take must not change the bits of any other fiber
    eps = np.finfo(float).eps
    rng = np.random.default_rng(44)
    stack = rng.standard_normal((12, 2, 2)) + 1j * rng.standard_normal((12, 2, 2))
    stack[[1, 5]] *= 2.0**600
    stack[[2, 8]] *= 2.0**-600
    stack[6], stack[7] = stack[6] * 2.0**300, stack[7] * 2.0**-300  # ||M||_F^2 past 2^+-500
    stack[9, 0] *= 2.0**600  # one huge row in an otherwise moderate fiber
    stack[[3, 10]] = 0.0
    ref = np.linalg.svd(stack, compute_uv=False)
    with np.errstate(all="raise"):
        got = _fiber_singular_values(stack)
        for row, fib in enumerate(stack):
            np.testing.assert_array_equal(got[row], _fiber_singular_values(fib[np.newaxis])[0])
    assert np.all(np.abs(got - ref) <= 4.0 * eps * ref[:, :1])


def test_fiber_singular_values_memory_bounded():
    # 2^18 fibers (16 MB) run in blocks of FIBER_BLOCK; with 2^12-fiber blocks the
    # pass traced 4.9 MB, with 2^16-fiber blocks 17 MB
    rng = np.random.default_rng(45)
    shape = (2**18, 2, 2)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tracemalloc.start()
    try:
        got = _fiber_singular_values(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    edge = slice(FIBER_BLOCK - 3, FIBER_BLOCK + 3)  # across a block boundary
    np.testing.assert_array_equal(got[edge], _fiber_singular_values(stack[edge]))


def test_fiber_singular_values_write_into_given_rows():
    # across a block boundary, with fibers that take the scaled route: the values
    # land in ``out``, bitwise the fresh-buffer ones, and a reused work row set
    # carries nothing from one call to the next
    rng = np.random.default_rng(46)
    shape = (FIBER_BLOCK + 5, 2, 2)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[[0, FIBER_BLOCK + 1]] *= 2.0**600
    stack[FIBER_BLOCK - 1] = 0.0
    want = _fiber_singular_values(stack)
    out, work = np.empty((len(stack), 2)), _GramWork(FIBER_BLOCK)
    for _ in range(2):
        assert _fiber_singular_values(stack, out=out, work=work) is out
        np.testing.assert_array_equal(out, want)
    assert not np.shares_memory(_fiber_singular_values(stack[:3], work=work), work.real)


def test_plancherel():
    for d_torus in (1, 2):
        w = _random_signal(d_torus, 8, 2, seed=20 + d_torus)
        _, l2, _ = signal_norms(w)
        coeff = TWO_PI ** (d_torus / 2.0) * np.linalg.norm(coefficients(w))
        np.testing.assert_allclose(l2, coeff, rtol=1e-10)


def _probe_signal(d_torus):
    grid = 16
    coeffs = np.zeros((grid,) * d_torus + (1, 1), dtype=complex)
    coeffs[frequency_index(np.zeros(d_torus, int), grid)] = 1.0
    unit = np.zeros(d_torus, int)
    unit[0] = 1
    coeffs[frequency_index(unit, grid)] = 0.4
    return signal_from_coefficients(coeffs)


def test_periodization_guards():
    w = _probe_signal(1)
    with pytest.raises(GuardViolationError):
        periodization_probe(w, 32.0, 100.0, TWO_PI / 64)  # R < 8l
    with pytest.raises(GuardViolationError):
        periodization_probe(w, 4.0, 32.0, 0.2)  # step too coarse
    with pytest.raises(DimMismatchError):
        periodization_probe(_random_signal(1, 8, 2, seed=1), 4.0, 32.0, TWO_PI / 64)
    with pytest.raises(GuardViolationError, match="16l"):  # m = 21 midpoints over R = 1000l
        periodization_probe(w, 1e-3, 1.0, TWO_PI / 64)
    assert periodization_probe(w, 1e-3, 8e-3, TWO_PI / 64).step == 16e-3  # one midpoint


@pytest.mark.parametrize("l, r, name", [
    (math.nan, 100.0, "l=nan"),
    (math.inf, math.inf, "l=inf"),
    (4.0, math.nan, "R=nan"),
])
def test_periodization_refuses_nan_width_or_radius_by_name(l, r, name):
    with pytest.raises(GuardViolationError, match=name):
        periodization_probe(_probe_signal(1), l, r, TWO_PI / 64)


def test_periodization_point_cap():
    w = _probe_signal(1)
    with pytest.raises(GuardViolationError):  # m = 162975 > PROBE_MAX_POINTS
        periodization_probe(w, 1000.0, 8000.0, TWO_PI / 64)
    with pytest.raises(GuardViolationError):
        periodization_probe(w, 32.0, 256.0, 1e-6)
    with pytest.raises(GuardViolationError):
        periodization_probe(w, 32.0, 256.0, 0.0)
    # exactly PROBE_MAX_POINTS midpoints pass the guard (D = 1 keeps this cheap)
    h = TWO_PI / 64
    r = PROBE_MAX_POINTS * h / 2
    assert periodization_probe(w, r / 8, r, h).points_per_axis == PROBE_MAX_POINTS


def test_periodization_rejects_zero_signal():
    w = signal_from_coefficients(np.zeros((8, 8, 1, 1), dtype=complex))
    with pytest.raises(DomainError):
        periodization_probe(w, 4.0, 32.0, TWO_PI / 64)


def test_periodization_constant_signal():
    grid = 8
    coeffs = np.zeros((grid, 1, 1), dtype=complex)
    coeffs[frequency_index([0], grid)] = 1.0
    w = signal_from_coefficients(coeffs)
    result = periodization_probe(w, 8.0, 64.0, TWO_PI / 64)
    np.testing.assert_allclose(result.ratio, 1.0, atol=1e-10)
    assert result.truncation_bound < 1e-12


def test_periodization_character():
    w = character_signal(1, 8, [1])
    result = periodization_probe(w, 32.0, 256.0, TWO_PI / 64)
    assert 0.95 <= result.ratio <= 1.05


def test_periodization_trig_polynomial():
    result = periodization_probe(_probe_signal(1), 32.0, 256.0, TWO_PI / 64)
    assert abs(result.ratio - 1.0) <= 0.05
    assert result.weak_ratio > 0.0
    # doubling l does not degrade the ratio (the measured deviation is
    # quadrature-dominated at this scale, so no halving law is asserted)
    double = periodization_probe(_probe_signal(1), 64.0, 512.0, TWO_PI / 64)
    assert abs(double.ratio - 1.0) <= max(2.0 * abs(result.ratio - 1.0), 1e-9)


def test_torus_signal_validation():
    with pytest.raises(DimMismatchError):
        TorusSignal(np.zeros((4, 4)))
    with pytest.raises(DimMismatchError):
        TorusSignal(np.zeros((4, 2, 3)))
    with pytest.raises(DimMismatchError):
        TorusSignal(np.zeros((4, 5, 2, 2)))
    for empty in ((0, 1, 1), (0, 0, 2, 2), (4, 0, 0)):  # no grid point, or 0 x 0 fibers
        with pytest.raises(DimMismatchError):
            TorusSignal(np.zeros(empty))


def _criterion_9_signal():
    coeffs = np.zeros((16, 16, 1, 1), dtype=complex)
    coeffs[frequency_index([0, 0], 16)] = 1.0
    coeffs[frequency_index([1, 0], 16)] = 0.4
    coeffs[frequency_index([0, 1], 16)] = 0.3
    return signal_from_coefficients(coeffs)


def _three_term_signal(seed, d_torus=2):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((16,) * d_torus + (1, 1), dtype=complex)
    coeffs[frequency_index([0] * d_torus, 16)] = 1.0
    while np.count_nonzero(coeffs) < 3:
        index = frequency_index(rng.integers(-3, 4, size=d_torus), 16)
        if coeffs[index] == 0:
            coeffs[index] = rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
    return signal_from_coefficients(coeffs)


def _full_pool_probe(w, l, folded=True):
    """(ratio, weak_ratio) of the probe with every one of the m^D values kept.

    ``folded`` builds them as the probe does: the weighted samples come from
    the probe's own ``_probe_sampler`` in its blocks of whole rows (step
    folded into the Gaussian weights, cell 1), and the reference norms from
    its ``_reference_norms``.  Otherwise the samples are the moduli
    of the complex product |E_x (C E_y)| times G(x) G(y), with cell step^D,
    and the reference norms come from the coefficients zero-padded to the
    refined grid and resampled by the inverse FFT.  For D = 1 the y axis is
    the single point 0 with weight 1.
    """
    d_torus = w.torus_dim
    r, h = 8.0 * l, TWO_PI / 64
    m = int(math.ceil(2.0 * r / h))
    step = 2.0 * r / m
    x = -r + (np.arange(m) + 0.5) * step
    gauss = np.exp(-(x**2) / (2.0 * l * l)) / (l * math.sqrt(TWO_PI))
    y, gauss_y = (x, gauss) if d_torus == 2 else (np.zeros(1), np.ones(1))
    flat = coefficients(w)[..., 0, 0].reshape(w.grid_size, -1)
    freqs, freqs_y = frequencies(w.grid_size), frequencies(flat.shape[1])
    used = np.abs(flat) > 1e-13 * float(np.max(np.abs(flat)))
    terms = [((freqs[i], freqs_y[j])[:d_torus], flat[i, j]) for i, j in zip(*np.nonzero(used))]
    rows_in_use, cols_in_use = np.any(used, axis=1), np.any(used, axis=0)
    table = np.where(used, flat, 0.0)[np.ix_(rows_in_use, cols_in_use)]
    k_x, k_y = freqs[rows_in_use], freqs_y[cols_in_use]
    if folded:
        sample, cell = _probe_sampler(table, k_x, k_y, l, r, m, d_torus), 1.0
    else:
        left = np.exp(1j * np.multiply.outer(x, k_x))
        right = table @ np.exp(1j * np.multiply.outer(k_y, y))
        sample = lambda rows: np.abs(left[rows] @ right) * np.outer(gauss[rows], gauss_y)
        cell = step**d_torus
    integral, blocks = 0.0, []
    block_rows = max(1, PROBE_BLOCK_SAMPLES // y.size)
    for start in range(0, m, block_rows):
        ablock = sample(slice(start, min(start + block_rows, m)))
        integral += float(np.sum(ablock))
        blocks.append(ablock.ravel())
    values = np.sort(np.concatenate(blocks))[::-1]
    weak = cell * float(np.max(np.arange(1, values.size + 1) * values))
    if folded:
        ref_l1, ref_weak = _reference_norms(table, k_x, k_y, d_torus)
    else:
        n_ref = 512 if d_torus == 1 else 256
        ref_coeffs = np.zeros((n_ref,) * d_torus + (1, 1), dtype=complex)
        for k, c in terms:
            ref_coeffs[frequency_index(k, n_ref)] = c
        ref_l1, _, ref_weak = signal_norms(signal_from_coefficients(ref_coeffs))
    return (integral * cell / (ref_l1 / TWO_PI**d_torus),
            weak / (ref_weak / TWO_PI**d_torus))


def _terms_signal(terms, d_torus, grid=16):
    """The signal sum of c e_k over the (k, c) terms."""
    coeffs = np.zeros((grid,) * d_torus + (1, 1), dtype=complex)
    for k, c in terms:
        coeffs[frequency_index(k, grid)] = c
    return signal_from_coefficients(coeffs)


def _dense_signal(seed=3, grid=16):
    """Every one of the grid^2 coefficients drawn: no term dominates."""
    rng = np.random.default_rng(seed)
    shape = (grid, grid, 1, 1)
    return signal_from_coefficients(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


_D2_SIGNALS = [
    _criterion_9_signal,
    lambda: character_signal(2, 16, [1, -2]),
    lambda: _three_term_signal(1),
    lambda: _three_term_signal(2),
    lambda: _terms_signal([([0, 0], 1.0), ([1, 1], -1.0)], 2),  # zero on the line x + y = 0
    lambda: _terms_signal([([0, 0], 1.0), ([1, 0], -1.0), ([0, 1], -1.0), ([1, 1], 1.0)], 2),
    _dense_signal,
]
_D1_SIGNALS = [
    lambda: _probe_signal(1),
    lambda: character_signal(1, 8, [-2]),
    lambda: _three_term_signal(1, 1),
    lambda: _three_term_signal(2, 1),
    lambda: _terms_signal([([0], 1.0), ([1], -1.0)], 1),  # zero at x = 0
]


@pytest.mark.parametrize("l", [4.0, 8.0])
@pytest.mark.parametrize("signal", _D2_SIGNALS)
def test_periodization_d2_matches_full_pool(signal, l):
    w = signal()
    result = periodization_probe(w, l, 8.0 * l, TWO_PI / 64)
    assert (result.ratio, result.weak_ratio) == _full_pool_probe(w, l)


@pytest.mark.parametrize("l", [8.0, 32.0])
@pytest.mark.parametrize("signal", _D1_SIGNALS)
def test_periodization_d1_matches_full_pool(signal, l):
    w = signal()
    result = periodization_probe(w, l, 8.0 * l, TWO_PI / 64)
    assert (result.ratio, result.weak_ratio) == _full_pool_probe(w, l)


@pytest.mark.parametrize("signal, l", [
    pytest.param(signal, l, id=f"d{d}-{i}-{l}")
    for d, signals, widths in ((2, _D2_SIGNALS, (4.0, 8.0)), (1, _D1_SIGNALS, (8.0, 32.0)))
    for i, signal in enumerate(signals)
    for l in widths
])
def test_periodization_matches_unfolded_fft_reference(signal, l):
    """Gaussians applied after the modulus and FFT-resampled reference norms agree to rounding."""
    w = signal()
    result = periodization_probe(w, l, 8.0 * l, TWO_PI / 64)
    np.testing.assert_allclose((result.ratio, result.weak_ratio),
                               _full_pool_probe(w, l, folded=False), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("scale, rtol", [  # a power of two scales every step exactly
    (2.0**-600, 0.0), (2.0**-50, 0.0), (2.0**600, 0.0), (1e-14, 1e-14),
])
def test_periodization_is_scale_free(scale, rtol):
    """The coefficient floor is relative to max |c|, so a small signal keeps its terms."""
    w = _criterion_9_signal()
    want = periodization_probe(w, 8.0, 64.0, TWO_PI / 64)
    got = periodization_probe(TorusSignal(w.samples * scale), 8.0, 64.0, TWO_PI / 64)
    np.testing.assert_allclose((got.ratio, got.weak_ratio), (want.ratio, want.weak_ratio),
                               rtol=rtol, atol=0.0)


def test_periodization_at_tiny_widths_is_scale_free():
    """Weights in units of l: no G_l or cell leaves the float range, however small l is."""
    w = _criterion_9_signal()
    a, b = (periodization_probe(w, l, 8.0 * l, 8.0 * l / 800) for l in (2.0**-600, 2.0**-1000))
    assert (a.ratio, a.weak_ratio) == (b.ratio, b.weak_ratio)
    assert math.isfinite(a.ratio) and a.weak_ratio > 0.0


@pytest.mark.parametrize("signal, free", [
    (_criterion_9_signal, True),  # margin 1 - 0.7 against sum |c| = 1.7
    (lambda: _three_term_signal(1), True),
    (lambda: character_signal(2, 16, [1, -2]), True),
    (_D2_SIGNALS[4], False),  # 1 - e^{i(x+y)}
    (_D2_SIGNALS[5], False),
    (_dense_signal, False),
    (_D1_SIGNALS[4], False),
])
def test_cancellation_certificate(signal, free):
    """One dominant term certifies the squares route; the zero-line cases take the complex product."""
    w = signal()
    flat = coefficients(w)[..., 0, 0].reshape(w.grid_size, -1)
    assert _cancellation_free(flat[np.abs(flat) > 1e-13]) is free


_FFT_CALLS = {
    "coefficients": coefficients,
    "fejer": lambda w: fejer(w, 2),
    "multiplier": lambda w: fourier_multiplier_apply(lambda k: np.cos(k[..., 0]), w),
    "probe": lambda w: periodization_probe(w, 8.0, 64.0, TWO_PI / 64),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
@pytest.mark.parametrize("d_torus", [1, 2])
@pytest.mark.parametrize("call", sorted(_FFT_CALLS))
def test_non_finite_samples_are_refused_before_the_fft(call, d_torus, bad):
    w = _probe_signal(1) if d_torus == 1 else _criterion_9_signal()
    samples = w.samples.copy()
    samples[(3,) * d_torus] = bad
    with pytest.raises(NonFiniteError):  # a numpy warning would fail the test first
        _FFT_CALLS[call](TorusSignal(samples))


def test_periodization_d2_memory_bound():
    w = _criterion_9_signal()
    tracemalloc.start()
    try:
        periodization_probe(w, 16.0, 128.0, TWO_PI / 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # all m^2 = 2608^2 pooled values alone take 52 MB
