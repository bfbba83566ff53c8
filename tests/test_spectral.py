import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oplip import spectral
from oplip.errors import (
    BadLawError,
    DimMismatchError,
    DomainError,
    NoConvergenceError,
    NonFiniteError,
)
from oplip.spectral import (
    CommutingTuple,
    HermitianMatrix,
    JointSpectrum,
    apply_function,
    commutator,
    discretize_tuple,
    evaluate_rows,
    haar_unitary,
    joint_diagonalize,
    planted_commuting_tuple,
    row_max_abs,
)
from oplip.rng import generator


def test_hermitian_gate():
    HermitianMatrix(np.array([[1.0, 1j], [-1j, 2.0]]))
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimMismatchError):
        HermitianMatrix(np.zeros((2, 3)))


def test_hermitian_matrix_is_stored_exactly_hermitian():
    rng = np.random.default_rng(4)
    u = haar_unitary(9, rng)
    m = (u * rng.uniform(-1.0, 1.0, 9)) @ u.conj().T  # Hermitian up to rounding
    assert not np.array_equal(m, m.conj().T)
    data = HermitianMatrix(m).data
    assert np.array_equal(data, data.conj().T)
    np.testing.assert_allclose(data, m, rtol=0, atol=1e-15)


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
def test_hermitian_gate_refuses_non_finite_entries(entry):
    m = np.eye(2, dtype=complex)
    m[0, 0] = entry
    with pytest.raises(NonFiniteError):
        HermitianMatrix(m)


def test_hermitian_matrix_near_the_float_limit_is_stored_without_overflow():
    m = 1e308 * np.diag([1.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = HermitianMatrix(m).data
    assert np.array_equal(data, m)
    assert np.array_equal(data, data.conj().T)


def test_eigenvalue_past_the_float_limit_is_refused_without_warning():
    # every entry is finite, but the eigenvalue 2e308 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            joint_diagonalize(CommutingTuple([1e308 * np.ones((2, 2))]))


def test_commutation_gate():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    with pytest.raises(DomainError, match="do not commute"):
        CommutingTuple([x, z])


def test_joint_diagonalize_already_diagonal():
    js = joint_diagonalize(CommutingTuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))
    np.testing.assert_allclose(js.eigenvalues, [[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_allclose(js.basis, np.eye(2), atol=1e-12)


def test_joint_diagonalize_pauli_x():
    js = joint_diagonalize(CommutingTuple([np.array([[0.0, 1.0], [1.0, 0.0]])]))
    np.testing.assert_allclose(js.eigenvalues, [[-1.0], [1.0]], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(js.basis), [[r, r], [r, r]], atol=1e-12)
    # deterministic phase: the anchored entries are real positive
    np.testing.assert_allclose(js.basis[:, 0] @ np.array([1.0, -1.0]) * r, 1.0,
                               atol=1e-12)


def test_joint_diagonalize_planted_reconstruction():
    tup, _, _ = planted_commuting_tuple(16, 3, "uniform", seed=42)
    js = joint_diagonalize(tup)
    for k, a in enumerate(tup.arrays()):
        recon = (js.basis * js.eigenvalues[:, k]) @ js.basis.conj().T
        assert np.linalg.norm(a - recon) <= 1e-8 * np.linalg.norm(a)


def test_joint_diagonalize_recovers_integer_plant():
    tup, _, planted = planted_commuting_tuple(8, 2, "integer:5", seed=3)
    js = joint_diagonalize(tup)
    assert np.max(np.abs(js.eigenvalues - np.round(js.eigenvalues))) <= 1e-9
    got = sorted(map(tuple, np.round(js.eigenvalues).astype(int)))
    want = sorted(map(tuple, planted.astype(int)))
    assert got == want


def test_joint_diagonalize_degenerate_rows_bitwise_equal():
    # doubled integer spectrum: degenerate rows must compare bitwise equal
    tup, _, _ = planted_commuting_tuple(6, 1, [1.0, 2.0, 2.0], seed=8)
    js = joint_diagonalize(tup)
    vals = js.eigenvalues[:, 0]
    for v in vals:
        matches = vals == v
        assert matches.sum() >= 1
    assert len(set(vals.tolist())) <= 3


def test_joint_diagonalize_deterministic():
    tup, _, _ = planted_commuting_tuple(9, 2, "uniform", seed=12)
    a = joint_diagonalize(tup)
    b = joint_diagonalize(tup)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.basis, b.basis)


@pytest.mark.parametrize("n,d,law", [(32, 3, "uniform"), (24, 2, "integer:3")])
def test_joint_diagonalize_skips_polish_when_refinement_meets_tolerance(n, d, law):
    tup, _, planted = planted_commuting_tuple(n, d, law, seed=5)
    js = joint_diagonalize(tup)
    want = planted[np.lexsort(planted.T[::-1])]
    np.testing.assert_allclose(js.eigenvalues, want, rtol=0, atol=1e-10)


def test_joint_diagonalize_gate_raises_at_once(monkeypatch):
    monkeypatch.setattr(spectral, "RECONSTRUCTION_TOL", 0.0)
    tup, _, _ = planted_commuting_tuple(6, 2, "uniform", seed=6)
    with pytest.raises(NoConvergenceError, match="fails reconstruction"):
        joint_diagonalize(tup)


@pytest.mark.parametrize("scale", [1e-13, 1e-9, 1e-6])
def test_joint_diagonalize_tiny_matrix_matches_its_unscaled_self(scale):
    # the snapping width is relative to each matrix, so a tiny tuple keeps its
    # distinct eigenvalues instead of merging them all
    # integer plants have exactly repeated eigenvalues, which relative cluster
    # gaps keep together at any scale
    cases = ((4, 1, 0, "uniform"), (6, 1, 1, "uniform"), (6, 2, 2, "uniform"),
             (6, 3, 3, "uniform"), (6, 2, 4, "integer:3"), (6, 2, 5, "integer:3"),
             (8, 3, 6, "integer:2"))
    for n, d, seed, law in cases:
        tup, _, _ = planted_commuting_tuple(n, d, law, seed=seed)
        ref = joint_diagonalize(tup).eigenvalues
        got = joint_diagonalize(CommutingTuple([scale * a for a in tup.arrays()])).eigenvalues
        np.testing.assert_allclose(got / scale, ref, rtol=0, atol=1e-13)


def test_caller_built_spectrum_with_non_unitary_basis_is_refused():
    tup, U, lambdas = planted_commuting_tuple(4, 2, "uniform", seed=1)
    JointSpectrum(U, lambdas, tup)
    with pytest.raises(DomainError, match="not unitary"):
        JointSpectrum(2.0 * U, lambdas, tup)


@pytest.mark.parametrize("basis, table, tup", [
    (np.eye(2), np.ones((2, 1)), [np.eye(2)] * 2),  # one column for d = 2
    (np.eye(2), np.ones(2), [np.eye(2)] * 2),  # a 1-d table
    (np.eye(2), np.ones((2, 3)), [np.eye(2)] * 2),  # three columns for d = 2
    (np.eye(2), np.ones((2, 1)), [np.eye(3)]),  # a 2 x 2 basis for 3 x 3 matrices
], ids=["too-few-columns", "1-d-table", "too-many-columns", "basis-size"])
def test_caller_built_spectrum_with_a_wrong_shape_is_refused(basis, table, tup):
    # these raised IndexError or a broadcast ValueError, or (three columns)
    # were accepted with d = 3 for a pair of matrices
    with pytest.raises(DimMismatchError):
        JointSpectrum(basis, table, CommutingTuple(tup))


@pytest.mark.parametrize("where", ["eigenvalues", "basis"])
def test_caller_built_spectrum_with_nan_is_refused(where):
    # NaN passes both tolerance gates (a NaN comparison is False), so it is
    # refused before them; integer_tuple would cast it to -2^63
    basis, table = np.eye(2), np.array([[np.nan], [1.0]])
    if where == "basis":
        basis, table = np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0], [1.0]])
    with pytest.raises(NonFiniteError):
        JointSpectrum(basis, table, CommutingTuple([np.eye(2)]))


@pytest.mark.parametrize("scale, a, b", [
    pytest.param(1e-170, [1.0, 2.0], [3.0, 4.0], id="1e-170"),
    pytest.param(1e160, [1.0, 2.0], [3.0, 4.0], id="1e+160"),
    pytest.param(1e308, [1.0, 1.5], [1.5, 1.0], id="1e+308"),  # ||A||_F itself overflows
])
def test_commutation_gate_is_scale_free_past_the_square_overflow(scale, a, b):
    # every square and product of entries under- or overflows a plain sum
    x = scale * np.array([[0.0, 1.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="do not commute"):
            CommutingTuple([scale * np.diag(a), x])
        tup = CommutingTuple([scale * np.diag(a), scale * np.diag(b)])
        js = joint_diagonalize(tup)
    np.testing.assert_allclose(js.eigenvalues / scale, np.column_stack([a, b]), rtol=1e-14)


@pytest.mark.parametrize("scale, top", [
    pytest.param(1e-170, 2.0, id="1e-170"),
    pytest.param(1.0, 2.0, id="1.0"),
    pytest.param(1e160, 2.0, id="1e+160"),
    pytest.param(1e308, 1.5, id="1e+308"),  # ||A||_F itself overflows
])
def test_caller_built_spectrum_with_a_wrong_basis_fails_reconstruction(scale, top):
    c, s = np.cos(0.3), np.sin(0.3)
    tup = CommutingTuple([scale * np.diag([1.0, top])])
    table = scale * np.array([[1.0], [top]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        JointSpectrum(np.eye(2), table, tup)
        np.testing.assert_array_equal(joint_diagonalize(tup).eigenvalues, table)
        with pytest.raises(NoConvergenceError, match="reconstruction"):
            JointSpectrum(np.array([[c, -s], [s, c]]), table, tup)
        with pytest.raises(NoConvergenceError, match="reconstruction"):
            JointSpectrum(np.eye(2), scale * np.array([[-1.0], [0.0]]), tup)
        with pytest.raises(NoConvergenceError, match="reconstruction"):
            JointSpectrum(np.eye(2), np.full((2, 1), 1e300), tup)  # overflows scaled at 1e-170


@pytest.mark.parametrize("x, want", [
    (np.zeros((3, 3)), 0.0),
    (np.diag([3e-170, 4e-170]), 5e-170),  # every square underflows
    (np.diag([3e160, 4e160]), 5e160),  # every square overflows
    (np.array([[3e300, 0.0], [0.0, 4e300j]]), 5e300),
    (np.diag([3.0, 4.0]), 5.0),
])
def test_frob_is_scale_safe(x, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral._frob(x) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_frob_is_the_plain_norm_at_moderate_scale():
    x = generator(5).standard_normal((7, 7)) * 1e-100
    assert spectral._frob(x) == float(np.linalg.norm(x, "fro"))


def _integer_centred_case(seed):
    """A seeded commuting tuple whose rows cluster tightly around integer centres.

    n in 4..24, d in 1..3, 2-5 centres with entries in -3..3, relative spread
    10^U(-12, -4) and column scales 10^U(-3, 3).
    """
    rng = generator(seed, 0xBEEF)
    n = int(rng.integers(4, 25))
    d = int(rng.integers(1, 4))
    centres = rng.integers(-3, 4, size=(int(rng.integers(2, 6)), d)).astype(float)
    spread = 10.0 ** rng.uniform(-12.0, -4.0)
    table = centres[rng.integers(0, len(centres), size=n)]
    table = table + spread * rng.standard_normal((n, d))
    table = table * 10.0 ** rng.uniform(-3.0, 3.0, size=d)
    U = haar_unitary(n, rng)
    matrices = [(U * table[:, k]) @ U.conj().T for k in range(d)]
    return [(a + a.conj().T) / 2.0 for a in matrices], table


@pytest.mark.parametrize("seed,n,d", [(44, 23, 3), (207, 8, 3)])
def test_joint_diagonalize_resolves_integer_centred_clusters(seed, n, d):
    # a column scaled far below 1 (seed 44: max |entry| 8e-12) is still split
    # into its clusters, because the cluster gaps are relative to each matrix
    matrices, table = _integer_centred_case(seed)
    assert (matrices[0].shape[0], len(matrices)) == (n, d)
    js = joint_diagonalize(CommutingTuple(matrices))
    want = table[np.lexsort(table.T[::-1])]
    err = np.max(np.abs(js.eigenvalues - want), axis=0)
    assert np.all(err <= 1e-10 * np.max(np.abs(want), axis=0))


def _adversarial_case(seed):
    """A seeded commuting tuple with a clustered or mixed-scale planted table.

    Even seeds: 2-5 joint centres, relative perturbations 1e-12..1e-7 and
    column scales 1e-3..1e3.  Odd seeds: uniform entries with column scales
    1e-6..1e6.  n is in 4..24 and d in 1..3.
    """
    rng = generator(seed, 0xAD)
    n = int(rng.integers(4, 25))
    d = int(rng.integers(1, 4))
    if seed % 2 == 0:
        centres = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), d))
        spread = 10.0 ** rng.uniform(-12.0, -7.0)
        table = centres[rng.integers(0, len(centres), size=n)]
        table = table + spread * rng.standard_normal((n, d))
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
    else:
        table = rng.uniform(-1.0, 1.0, size=(n, d))
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=d)
    table = table * scales
    U = haar_unitary(n, rng)
    matrices = []
    for k in range(d):
        a = (U * table[:, k]) @ U.conj().T
        matrices.append((a + a.conj().T) / 2.0)
    return matrices, table


def _adversarial_outcome(seed):
    """'raised' for a typed refusal, else the worst per-column relative table error."""
    matrices, table = _adversarial_case(seed)
    try:
        js = joint_diagonalize(CommutingTuple(matrices))
    except NoConvergenceError:
        return "raised"
    want = table[np.lexsort(table.T[::-1])]
    err = np.max(np.abs(js.eigenvalues - want), axis=0)
    return float(np.max(err / (1.0 + np.max(np.abs(want), axis=0))))


def test_joint_diagonalize_adversarial_spectra():
    outcomes = [_adversarial_outcome(seed) for seed in range(60)]
    errors = [e for e in outcomes if e != "raised"]
    assert errors, "every adversarial case was refused"
    assert max(errors) <= 1e-8


def _snap_by_scan(column, scale):
    """Reference loop for ``spectral._snap_degenerate``."""
    order = np.argsort(column, kind="stable")
    snapped = column.copy()
    width = 64 * column.size * np.finfo(float).eps * scale
    vals = column[order]
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[i - 1] > width:
            if i - start > 1:
                snapped[order[start:i]] = float(np.mean(vals[start:i]))
            start = i
    return snapped


@pytest.mark.parametrize("seed", range(5))
def test_snap_degenerate_matches_scan(seed):
    rng = generator(seed, 0x5A)
    column = rng.integers(-3, 4, size=40) + 1e-15 * rng.standard_normal(40)
    column[::7] += rng.uniform(-1.0, 1.0, size=column[::7].size)
    np.testing.assert_array_equal(spectral._snap_degenerate(column, 4.0),
                                  _snap_by_scan(column, 4.0))


def test_apply_function_constant_and_square():
    js = joint_diagonalize(CommutingTuple([np.diag([1.0, 2.0])]))
    np.testing.assert_allclose(apply_function(js, lambda lam: 5.0).data, 5.0 * np.eye(2))
    np.testing.assert_allclose(
        apply_function(js, lambda lam: lam[..., 0] ** 2).data, np.diag([1.0, 4.0]),
        atol=1e-12,
    )


def test_apply_function_sum_of_coordinates():
    tup = CommutingTuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    js = joint_diagonalize(tup)
    out = apply_function(js, lambda lam: lam[..., 0] + lam[..., 1]).data
    np.testing.assert_allclose(out, tup.arrays()[0] + tup.arrays()[1], atol=1e-12)


def test_apply_function_nonfinite():
    js = joint_diagonalize(CommutingTuple([np.diag([0.0, 1.0])]))
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        apply_function(js, lambda lam: 1.0 / lam[..., 0])


def test_evaluate_rows_rejects_per_row_function():
    # lam[0] on a (5, 1) table is row 0 of shape (1,): broadcast to every row it
    # would give row 0's value five times
    rows = np.arange(1.0, 6.0)[:, None]
    with pytest.raises(DomainError):
        evaluate_rows(lambda lam: lam[0] ** 2, rows)
    js = joint_diagonalize(CommutingTuple([np.diag([1.0, 2.0, 3.0])]))
    with pytest.raises(DomainError):
        apply_function(js, lambda lam: lam[0] ** 2)
    np.testing.assert_array_equal(evaluate_rows(lambda lam: lam[..., 0] ** 2, rows),
                                  np.arange(1.0, 6.0) ** 2)
    np.testing.assert_array_equal(evaluate_rows(lambda lam: 2.5, rows), np.full(5, 2.5))


def test_apply_function_morphism_and_commutes():
    tup, _, _ = planted_commuting_tuple(10, 2, "uniform", seed=77)
    js = joint_diagonalize(tup)
    f = lambda lam: 1.0 + lam[..., 0] - 2.0 * lam[..., 1]
    g = lambda lam: lam[..., 0] * lam[..., 1]
    lhs = apply_function(js, lambda lam: f(lam) * g(lam)).data
    rhs = apply_function(js, f).data @ apply_function(js, g).data
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(lhs))
    fa = apply_function(js, f).data
    for a in tup.arrays():
        num = np.linalg.norm(commutator(fa, a))
        assert num <= 1e-9 * (1.0 + np.linalg.norm(fa) * np.linalg.norm(a))


def test_commutator_basics():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(commutator(np.eye(2), y), np.zeros((2, 2)))
    np.testing.assert_allclose(commutator(y, y), np.zeros((2, 2)))
    got = commutator(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(got, [[0.0, 2.0], [-2.0, 0.0]])
    with pytest.raises(DimMismatchError):
        commutator(np.eye(2), np.eye(3))


@pytest.mark.parametrize("seed, key", [(-3, ()), (2.5, ()), (3.0, ()), (1, (0x84, -1)),
                                       (1, (0.5,))])
def test_generator_refuses_negative_or_non_integral_seeds(seed, key):
    # numpy's SeedSequence would raise a bare ValueError, and int(2.5) would be seed 2
    with pytest.raises(DomainError, match="seed|spawn key"):
        generator(seed, *key)


def test_planted_tuple_refuses_a_negative_seed_and_takes_numpy_integers():
    with pytest.raises(DomainError, match="seed"):
        planted_commuting_tuple(4, 1, seed=-3)
    a = planted_commuting_tuple(4, 2, seed=np.int64(7))[0]
    b = planted_commuting_tuple(4, 2, seed=np.uint32(7))[0]
    c = planted_commuting_tuple(4, 2, seed=7)[0]
    e = planted_commuting_tuple(np.int64(4), np.uint8(2), seed=7)[0]
    for ma, mb, mc, me in zip(a.arrays(), b.arrays(), c.arrays(), e.arrays()):
        assert np.array_equal(ma, mc) and np.array_equal(mb, mc) and np.array_equal(me, mc)


@pytest.mark.parametrize("n, d", [(2.5, 1), (4, 1.5), (0, 1), (4, 0)])
def test_planted_tuple_refuses_bad_sizes_before_any_draw(n, d, monkeypatch):
    # a float n or d would reach numpy's draws as a bare TypeError
    monkeypatch.setattr(spectral, "generator", lambda *a: pytest.fail("drew"))
    with pytest.raises(DomainError, match="^[nd] must be"):
        planted_commuting_tuple(n, d)


def test_random_tuple_determinism_and_laws():
    a = planted_commuting_tuple(5, 2, "uniform", seed=4)[0]
    b = planted_commuting_tuple(5, 2, "uniform", seed=4)[0]
    for ma, mb in zip(a.arrays(), b.arrays()):
        assert np.array_equal(ma, mb)
    scalar = planted_commuting_tuple(1, 3, "uniform", seed=0)[0]
    assert scalar.dim == 1
    grid = planted_commuting_tuple(6, 1, [0.0, 0.25, 1.0], seed=2)[0]
    assert grid.dim == 6
    with pytest.raises(BadLawError):
        planted_commuting_tuple(3, 1, "cauchy", seed=0)
    with pytest.raises(BadLawError):
        planted_commuting_tuple(3, 1, "integer:x", seed=0)


@pytest.mark.parametrize("build", [
    lambda: HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
    lambda: CommutingTuple([]),
    lambda: planted_commuting_tuple(0, 2, "uniform", seed=0),
    lambda: planted_commuting_tuple(3, 0, "uniform", seed=0),
    lambda: planted_commuting_tuple(1449, 1, "uniform", seed=0),
    lambda: planted_commuting_tuple(1, 257, "uniform", seed=0),
    lambda: discretize_tuple(joint_diagonalize(CommutingTuple([np.diag([0.5])])), 0),
    lambda: CommutingTuple([np.eye(2)] * 257),
    lambda: HermitianMatrix(np.zeros((0, 0))),
], ids=["non-hermitian", "empty-tuple", "n-zero", "d-zero", "n-too-large", "d-too-large",
        "refinement-zero", "tuple-too-long", "empty-matrix"])
def test_input_checks_raise_domain_error(build):
    with pytest.raises(DomainError):
        build()


def test_haar_unitary_is_unitary():
    u = haar_unitary(7, generator(13))
    np.testing.assert_allclose(u.conj().T @ u, np.eye(7), atol=1e-12)


def test_discretize_tuple_flooring():
    js = joint_diagonalize(CommutingTuple([np.diag([0.73, -0.25])]))
    out = discretize_tuple(js, 4)
    floored = joint_diagonalize(out)
    np.testing.assert_allclose(sorted(floored.eigenvalues[:, 0]), [-1.0, 2.0],
                               atol=1e-12)


def test_discretize_integer_spectra_scale():
    js = joint_diagonalize(CommutingTuple([np.diag([2.0, -3.0, 0.0])]))
    for n in (1, 2, 5):
        out = discretize_tuple(js, n)
        np.testing.assert_allclose(out.arrays()[0], n * np.diag([2.0, -3.0, 0.0]),
                                   atol=1e-9 * n)


def test_joint_diagonalize_draws_no_generator(monkeypatch):
    # the generic combination is the prefix of one fixed draw, taken on first use
    tup = planted_commuting_tuple(6, 3, "integer:1", seed=8)[0]
    want = joint_diagonalize(tup)
    assert np.array_equal(spectral._combo()[:3], generator(spectral._COMBO_STREAM).standard_normal(3))
    monkeypatch.setattr(spectral, "generator", lambda *a: pytest.fail("drew"))
    got = joint_diagonalize(tup)
    assert np.array_equal(got.basis, want.basis)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, np.inf, -np.inf, np.nan, 1.8e308]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.one_of(st.integers(1, 8), st.just(spectral.MAX_TUPLE_D)),
       rows=st.lists(st.integers(0, 5), max_size=2))
def test_row_max_abs_equals_the_row_reduction_bytewise(data, d, rows):
    # signed zeros, subnormals, infinities and NaN included; max is exact, so
    # the column maxima must be the row reduction's bytes, shape and type
    elements = st.one_of(st.floats(allow_nan=False), st.sampled_from(_EDGE_FLOATS))
    x = data.draw(hnp.arrays(np.float64, (*rows, d), elements=elements))
    got, want = row_max_abs(x), np.max(np.abs(x), axis=-1)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_import_draws_nothing():
    # the generic combination is drawn on the first joint_diagonalize call,
    # so importing the package loads no numpy.random
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, oplip; print('numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.strip() == "False", done.stderr
