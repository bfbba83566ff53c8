import math
import tracemalloc

import numpy as np
import pytest

from oplip.errors import DimMismatchError, DomainError, GuardViolationError
from oplip.suite import fejer_brute, fejer_convergence_profile
from oplip.torus import (
    PROBE_BLOCK_ROWS,
    PROBE_MAX_POINTS,
    TWO_PI,
    HomogeneousSymbol,
    TorusSignal,
    _fiber_singular_values,
    character_signal,
    coefficients,
    fejer,
    fourier_multiplier_apply,
    frequencies,
    frequency_index,
    periodization_probe,
    signal_from_coefficients,
    signal_norms,
    signal_profile,
    smoothing_eval,
    symbol_eval,
)


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


def test_smoothing_values():
    assert smoothing_eval(0.75) == 0.75
    np.testing.assert_allclose(smoothing_eval(0.0), 1.0 / 3.0, rtol=1e-15)
    expected = 0.25 + math.exp(1.0 - 1.0 / 0.75) / 3.0
    np.testing.assert_allclose(smoothing_eval(0.25), expected, rtol=1e-15)
    with pytest.raises(DomainError):
        smoothing_eval(1.2)
    with pytest.raises(DomainError):
        smoothing_eval(-0.1)


def test_smoothing_constraints_on_grid():
    u = np.linspace(0.0, 1.0, 20001)
    vals = smoothing_eval(u)
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
        # the pooled profile is the descending sort of every fiber value, bitwise
        profile = signal_profile(TorusSignal(stack))
        np.testing.assert_array_equal(profile.values, -np.sort(-ref.ravel()))


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


def _criterion_9_signal():
    coeffs = np.zeros((16, 16, 1, 1), dtype=complex)
    coeffs[frequency_index([0, 0], 16)] = 1.0
    coeffs[frequency_index([1, 0], 16)] = 0.4
    coeffs[frequency_index([0, 1], 16)] = 0.3
    return signal_from_coefficients(coeffs)


def _three_term_signal(seed):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((16, 16, 1, 1), dtype=complex)
    coeffs[frequency_index([0, 0], 16)] = 1.0
    while np.count_nonzero(coeffs) < 3:
        index = frequency_index(rng.integers(-3, 4, size=2), 16)
        if coeffs[index] == 0:
            coeffs[index] = rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
    return signal_from_coefficients(coeffs)


def _full_pool_probe(w, l):
    """(ratio, weak_ratio) of the D = 2 probe with every one of the m^2 values kept."""
    r, h = 8.0 * l, TWO_PI / 64
    m = int(math.ceil(2.0 * r / h))
    step = 2.0 * r / m
    x = -r + (np.arange(m) + 0.5) * step
    gauss = np.exp(-(x**2) / (2.0 * l * l)) / (l * math.sqrt(TWO_PI))
    flat = coefficients(w)[..., 0, 0]
    top = max(float(np.max(np.abs(flat))), 1.0)
    freqs = frequencies(w.grid_size)
    terms = [((freqs[i], freqs[j]), flat[i, j])
             for i, j in zip(*np.nonzero(np.abs(flat) > 1e-13 * top))]
    integral, blocks = 0.0, []
    for start in range(0, m, PROBE_BLOCK_ROWS):
        rows = slice(start, min(start + PROBE_BLOCK_ROWS, m))
        block = np.zeros((rows.stop - rows.start, m), dtype=complex)
        for (k0, k1), c in terms:
            block += c * np.outer(np.exp(1j * k0 * x[rows]), np.exp(1j * k1 * x))
        ablock = np.abs(block) * np.outer(gauss[rows], gauss)
        integral += float(np.sum(ablock))
        blocks.append(ablock.ravel())
    values = np.sort(np.concatenate(blocks))[::-1]
    weak = float(np.max(np.cumsum(np.full(values.size, step**2)) * values))
    ref_coeffs = np.zeros((256, 256, 1, 1), dtype=complex)
    for k, c in terms:
        ref_coeffs[frequency_index(k, 256)] = c
    ref_l1, _, ref_weak = signal_norms(signal_from_coefficients(ref_coeffs))
    return integral * step**2 / (ref_l1 / TWO_PI**2), weak / (ref_weak / TWO_PI**2)


@pytest.mark.parametrize("l", [4.0, 8.0])
@pytest.mark.parametrize("signal", [
    _criterion_9_signal,
    lambda: character_signal(2, 16, [1, -2]),
    lambda: _three_term_signal(1),
    lambda: _three_term_signal(2),
])
def test_periodization_d2_matches_full_pool(signal, l):
    w = signal()
    result = periodization_probe(w, l, 8.0 * l, TWO_PI / 64)
    assert (result.ratio, result.weak_ratio) == _full_pool_probe(w, l)


def test_periodization_d2_memory_bound():
    w = _criterion_9_signal()
    tracemalloc.start()
    try:
        periodization_probe(w, 16.0, 128.0, TWO_PI / 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # all m^2 = 2608^2 pooled values alone take 52 MB
