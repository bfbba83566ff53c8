"""Acceptance gate: each test runs one criterion at its stated tolerance and
prints one pass/fail line (visible with ``pytest -s``)."""

import time

import numpy as np

from oplip.norms import (
    matrix_trace_norm,
    matrix_weak_l1,
    mu_at,
    profile_from_values,
    schatten_norm,
    singular_values,
    tensor_profile,
    weak_l1,
)
from oplip.rng import generator
from oplip.serialize import canonical_json
from oplip.suite import (
    conjugation_sweep,
    contraction_rounding_sweep,
    deleeuw_stability_factor,
    fejer_brute,
    fejer_convergence_profile,
    perturbation_sweep,
    run_identity_suite,
    symbol_agreement_sweep,
)
from oplip.doi import (
    divided_difference_symbol,
    doi_apply,
    doi_l2_norm,
    doi_operator_matrix,
    symbol_product_check,
)
from oplip.functions import builtin_function
from oplip.spectral import joint_diagonalize, planted_commuting_tuple
from oplip.torus import (
    TWO_PI,
    TorusSignal,
    coefficients,
    fejer,
    frequency_index,
    periodization_probe,
    signal_from_coefficients,
)

SEED = 20_240_601


def _report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_perturbation_identity():
    start = time.monotonic()
    worst = perturbation_sweep(SEED, instances=100, sizes=(4, 8, 16, 32))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(1, ok, f"perturbation identity residual {worst:.3e} <= 1e-9 "
                   f"on 100 instances, every built-in f ({elapsed:.1f}s < 60s)")


def test_criterion_2_transference_identity():
    start = time.monotonic()
    worst = conjugation_sweep(SEED, count=50, grid_size=64)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 120.0
    _report(2, ok, f"transference identity residual {worst:.3e} <= 1e-9 "
                   f"on 50 instances, N=64 ({elapsed:.1f}s < 120s)")


def test_criterion_3_contraction_rounding():
    start = time.monotonic()
    violations, checked = contraction_rounding_sweep(
        d_values=(1, 2), radius=30, n_values=range(1, 9)
    )
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60.0
    _report(3, ok, f"{violations} contraction violations over {checked} exhaustive "
                   f"box checks, r=30 ({elapsed:.1f}s < 60s)")


def test_criterion_4_symbol_agreement():
    worst = symbol_agreement_sweep(d_values=(1, 2), radius=30, n_values=range(1, 9))
    ok = worst <= 1e-12
    _report(4, ok, f"max |g(i-j, h(i)-h(j)) - h_k0(i,j)| = {worst:.3e} <= 1e-12")


def test_criterion_5_tensor_singular_values():
    worst = 0.0
    margin = 0.0
    for seed in range(50):
        rng = generator(SEED, 5, seed)
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1))
        b = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
        direct = tensor_profile(singular_values(a), singular_values(b))
        kron = singular_values(np.kron(a, b))
        scale = max(float(kron.values[0]), 1.0)
        worst = max(worst, float(np.max(np.abs(direct.values - kron.values))) / scale)
        margin = max(
            margin,
            weak_l1(direct) - matrix_trace_norm(a) * matrix_weak_l1(b),
        )
    ok = worst <= 1e-10 and margin <= 1e-12
    _report(5, ok, f"tensor profile vs Kronecker SVD dev {worst:.3e} <= 1e-10; "
                   f"weak tensor bound margin {margin:.3e} <= 0 on all 50 seeds")


def test_criterion_6_schur_l2_norm():
    worst = 0.0
    for seed in range(50):
        rng = generator(SEED, 6, seed)
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        tup, _, _ = planted_commuting_tuple(n, d, "uniform",
                                            seed=int(rng.integers(2**63)))
        js = joint_diagonalize(tup)
        name = ["euclid-norm", "crease", "max-abs"][seed % 3]
        xi = divided_difference_symbol(builtin_function(name, d), 1 + seed % d, d)
        direct = doi_l2_norm(js, xi)
        dense = float(np.linalg.svd(doi_operator_matrix(js, xi), compute_uv=False)[0])
        worst = max(worst, abs(direct - dense) / (1.0 + dense))
    ok = worst <= 1e-10
    _report(6, ok, f"Schur L2 norm vs operator SVD dev {worst:.3e} <= 1e-10, 50 seeds")


def test_criterion_7_doi_multiplicativity_and_duality():
    worst_mult = 0.0
    worst_dual = 0.0
    for seed in range(50):
        rng = generator(SEED, 7, seed)
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 3))
        tup, _, _ = planted_commuting_tuple(n, d, "uniform",
                                            seed=int(rng.integers(2**63)))
        js = joint_diagonalize(tup)
        xi1 = divided_difference_symbol(builtin_function("euclid-norm", d), 1, d)
        xi2 = divided_difference_symbol(builtin_function("crease", d), d, d)
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst_mult = max(worst_mult, symbol_product_check(js, xi1, xi2, v))
        lhs = np.trace(doi_apply(js, xi1, v) @ w.conj().T)
        rhs = np.trace(v @ doi_apply(js, xi1, w).conj().T)
        worst_dual = max(worst_dual, abs(lhs - rhs) / (1.0 + abs(lhs)))
    ok = worst_mult <= 1e-12 and worst_dual <= 1e-10
    _report(7, ok, f"multiplicativity {worst_mult:.3e} <= 1e-12, "
                   f"self-adjointness {worst_dual:.3e} <= 1e-10, 50 seeds")


def test_criterion_8_fejer():
    worst = 0.0
    for d_torus, grid, fiber in [(1, 16, 4), (2, 8, 2), (2, 16, 4)]:
        rng = generator(SEED, 8, d_torus, grid)
        shape = (grid,) * d_torus + (fiber, fiber)
        w = TorusSignal(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for order in (0, 1, 2, 4):
            dev = np.max(np.abs(coefficients(fejer(w, order))
                                - coefficients(fejer_brute(w, order))))
            worst = max(worst, float(dev))
    tail = 0.0
    for d_torus in (1, 2):
        profile = fejer_convergence_profile(d_torus=d_torus)
        tail = max(tail, max(r for order, r in profile if order >= 50))
    ok = worst <= 1e-14 and tail < 1e-3
    _report(8, ok, f"Fejer closed form vs brute force dev {worst:.3e} <= 1e-14; "
                   f"L1 deficiency {tail:.3e} < 1e-3 at n >= 50x degree")


def test_criterion_9_periodization():
    start = time.monotonic()
    worst = 0.0
    for d_torus in (1, 2):
        grid = 16
        coeffs = np.zeros((grid,) * d_torus + (1, 1), dtype=complex)
        coeffs[frequency_index(np.zeros(d_torus, int), grid)] = 1.0
        unit = np.zeros(d_torus, int)
        unit[0] = 1
        coeffs[frequency_index(unit, grid)] = 0.4
        if d_torus == 2:
            coeffs[frequency_index(np.array([0, 1]), grid)] = 0.3
        w = signal_from_coefficients(coeffs)
        result = periodization_probe(w, 32.0, 256.0, TWO_PI / 64.0)
        worst = max(worst, abs(result.ratio - 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 0.05 and elapsed < 60.0
    _report(9, ok, f"periodization ratio within {worst:.2%} of 1 for D in (1, 2), "
                   f"l=32, R=8l ({elapsed:.1f}s < 60s)")


def test_criterion_10_deleeuw_stability():
    factor = deleeuw_stability_factor(SEED, sizes=(32, 64, 128), signals=10, d=1)
    ok = factor < 2.0
    _report(10, ok, f"weak-L1/L1 ratio spread {factor:.4f} < 2 across "
                    f"N in (32, 64, 128) for the fixed 10-signal family")


def test_criterion_11_norm_axioms():
    worst_tri = 0.0
    worst_sub = 0.0
    worst_hom = 0.0
    worst_dom = 0.0
    for i in range(1000):
        rng = generator(SEED, 11, i)
        n = int(rng.integers(1, 8))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst_tri = max(worst_tri, matrix_weak_l1(x + y)
                        - 2 * matrix_weak_l1(x) - 2 * matrix_weak_l1(y))
        t, s = float(rng.uniform(0, n)), float(rng.uniform(0, n))
        worst_sub = max(worst_sub, mu_at(singular_values(x + y), t + s)
                        - mu_at(singular_values(x), t) - mu_at(singular_values(y), s))
        p = profile_from_values(np.abs(rng.standard_normal(n)), rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.01, 100.0))
        denom = 1.0 + c * weak_l1(p)
        worst_hom = max(worst_hom, abs(weak_l1(p.scaled(c)) - c * weak_l1(p)) / denom)
        worst_dom = max(worst_dom, weak_l1(p) - schatten_norm(p, 1))
    ok = (worst_tri <= 1e-10 and worst_sub <= 1e-10 and worst_hom <= 1e-12
          and worst_dom <= 1e-12)
    _report(11, ok, f"norm axioms on 1000 instances: quasi-triangle margin "
                    f"{worst_tri:.2e}, mu-subadditivity {worst_sub:.2e}, "
                    f"homogeneity {worst_hom:.2e}, weak<=L1 {worst_dom:.2e}")


def test_criterion_12_determinism():
    first = canonical_json(run_identity_suite(SEED % 1000))
    second = canonical_json(run_identity_suite(SEED % 1000))
    ok = first == second and '"all_passed": true' in first
    _report(12, ok, "identity-suite reports are byte-identical for a fixed seed "
                    "and all checks pass")
