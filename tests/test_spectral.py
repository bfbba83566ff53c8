import numpy as np
import pytest

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


def test_joint_diagonalize_tiny_matrix_refusal_is_typed():
    # at |A| ~ 1e-13 the snapping width's absolute floor merges every eigenvalue
    tup, _, _ = planted_commuting_tuple(4, 1, "uniform", seed=0)
    with pytest.raises(NoConvergenceError, match="fails reconstruction"):
        joint_diagonalize(CommutingTuple([1e-13 * tup.arrays()[0]]))


def test_caller_built_spectrum_with_non_unitary_basis_is_refused():
    tup, U, lambdas = planted_commuting_tuple(4, 2, "uniform", seed=1)
    JointSpectrum(U, lambdas, tup)
    with pytest.raises(DomainError, match="not unitary"):
        JointSpectrum(2.0 * U, lambdas, tup)


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
    return [(a + a.conj().T) / 2.0 for a in matrices]


@pytest.mark.parametrize("seed,n,d", [(44, 23, 3), (207, 8, 3)])
def test_joint_diagonalize_refuses_unresolved_clusters(seed, n, d):
    # real input that the refinement leaves unresolved: the gate refuses it
    matrices = _integer_centred_case(seed)
    assert (matrices[0].shape[0], len(matrices)) == (n, d)
    with pytest.raises(NoConvergenceError):
        joint_diagonalize(CommutingTuple(matrices))


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
], ids=["non-hermitian", "empty-tuple", "n-zero", "d-zero", "n-too-large", "d-too-large",
        "refinement-zero"])
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
