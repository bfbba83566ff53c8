import tracemalloc
import warnings

import numpy as np
import pytest

from oplip import doi
from oplip.doi import (
    Symbol,
    block_difference_embed,
    divided_difference_symbol,
    doi_apply,
    doi_l2_norm,
    doi_operator_matrix,
    perturbation_residual,
    symbol_matrix,
    symbol_product_check,
)
from oplip.errors import DimMismatchError, DomainError, GuardViolationError, NonFiniteError
from oplip.functions import builtin_function, experiment_function_names
from oplip.norms import singular_values
from oplip.spectral import (
    CommutingTuple,
    JointSpectrum,
    commutator,
    joint_diagonalize,
    planted_commuting_tuple,
)


def constant_symbol(d, c):
    """The real constant symbol (lam, mu) -> c."""
    return Symbol(d=d, func=lambda lam, mu: c, symmetric=True)


def _hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def test_divided_difference_diagonal_is_zero():
    fk = divided_difference_symbol(lambda lam: lam[..., 0] ** 3, 1, 2)
    lam = np.array([0.3, -1.2])
    assert fk.func(lam, lam.copy()) == 0.0


def test_divided_difference_square():
    # d=1, f(x)=x^2: the symbol is lambda + mu off the diagonal
    fk = divided_difference_symbol(lambda lam: lam[..., 0] ** 2, 1, 1)
    for lam, mu in [(1.0, 2.0), (-0.5, 3.0), (0.0, 1.0)]:
        got = fk.func(np.array([lam]), np.array([mu]))
        np.testing.assert_allclose(got, lam + mu, rtol=1e-14)


def test_divided_difference_coordinates():
    fk1 = divided_difference_symbol(lambda lam: lam[..., 0], 1, 2)
    fk2 = divided_difference_symbol(lambda lam: lam[..., 0], 2, 2)
    lam, mu = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert fk1.func(lam, mu) == 1.0
    assert fk2.func(lam, mu) == 0.0


def test_divided_difference_rejects_bad_coordinate():
    with pytest.raises(DomainError):
        divided_difference_symbol(lambda lam: lam[..., 0], 3, 2)


def test_doi_apply_identity_symbol():
    tup, _, _ = planted_commuting_tuple(5, 2, "uniform", seed=1)
    js = joint_diagonalize(tup)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    out = doi_apply(js, constant_symbol(2, 1.0), v)
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_doi_apply_square_example():
    js = joint_diagonalize(CommutingTuple([np.diag([1.0, 2.0])]))
    fk = divided_difference_symbol(lambda lam: lam[..., 0] ** 2, 1, 1)
    out = doi_apply(js, fk, np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.0, 3.0], [3.0, 0.0]], atol=1e-12)


def test_doi_apply_kills_diagonal():
    tup, _, _ = planted_commuting_tuple(6, 1, "integer:3", seed=5)
    js = joint_diagonalize(tup)
    fk = divided_difference_symbol(lambda lam: np.abs(lam[..., 0]), 1, 1)
    v = (js.basis * np.arange(1.0, 7.0)) @ js.basis.conj().T  # diagonal in joint basis
    out = doi_apply(js, fk, v)
    assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(v)


def test_doi_apply_hermitian_preserved():
    tup, _, _ = planted_commuting_tuple(7, 2, "uniform", seed=9)
    js = joint_diagonalize(tup)
    fk = divided_difference_symbol(builtin_function("euclid-norm", 2), 1, 2)
    v = _hermitian(7, np.random.default_rng(3))
    out = doi_apply(js, fk, v)
    assert np.max(np.abs(out - out.conj().T)) <= 1e-10 * (1.0 + np.max(np.abs(out)))


def test_doi_apply_dim_mismatch():
    js = joint_diagonalize(CommutingTuple([np.diag([1.0, 2.0])]))
    fk = divided_difference_symbol(lambda lam: lam[..., 0], 1, 1)
    with pytest.raises(DimMismatchError):
        doi_apply(js, fk, np.eye(3))
    with pytest.raises(DimMismatchError):
        doi_apply(js, divided_difference_symbol(lambda lam: lam[..., 0], 1, 2), np.eye(2))


def test_doi_l2_norm_example_and_oracle():
    # f(x) = x^2 on diag(1, 2): off-diagonal value 3, diagonal 0 by convention
    js = joint_diagonalize(CommutingTuple([np.diag([1.0, 2.0])]))
    fk = divided_difference_symbol(lambda lam: lam[..., 0] ** 2, 1, 1)
    assert doi_l2_norm(js, fk) == 3.0
    dense = np.linalg.svd(doi_operator_matrix(js, fk), compute_uv=False)[0]
    np.testing.assert_allclose(dense, 3.0, atol=1e-10)


def test_doi_l2_norm_constant():
    js = joint_diagonalize(CommutingTuple([np.diag([0.0, 1.0, 5.0])]))
    assert doi_l2_norm(js, constant_symbol(1, -2.5)) == 2.5


@pytest.mark.parametrize("seed", range(6))
def test_doi_l2_norm_matches_operator_svd(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    tup, _, _ = planted_commuting_tuple(n, d, "uniform", seed=1000 + seed)
    js = joint_diagonalize(tup)
    fk = divided_difference_symbol(builtin_function("euclid-norm", d), 1, d)
    direct = doi_l2_norm(js, fk)
    dense = float(np.linalg.svd(doi_operator_matrix(js, fk), compute_uv=False)[0])
    np.testing.assert_allclose(direct, dense, atol=1e-10 * (1.0 + dense))


def test_doi_operator_matrix_is_the_units_route_with_one_symbol_matrix(monkeypatch):
    n = 5
    tup, _, _ = planted_commuting_tuple(n, 2, "uniform", seed=3)
    js = joint_diagonalize(tup)
    fk = divided_difference_symbol(builtin_function("crease", 2), 2, 2)
    calls = []

    def counting(js, xi):
        calls.append(xi)
        return symbol_matrix(js, xi)

    monkeypatch.setattr(doi, "symbol_matrix", counting)
    op = doi_operator_matrix(js, fk)
    assert len(calls) == 1
    for j in range(n):
        for i in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            np.testing.assert_allclose(op[:, j * n + i], doi_apply(js, fk, unit).reshape(
                -1, order="F"), rtol=0, atol=1e-14)


def test_doi_operator_matrix_memory_bounded():
    n = 16
    js = joint_diagonalize(planted_commuting_tuple(n, 2, "uniform", seed=4)[0])
    fk = divided_difference_symbol(builtin_function("euclid-norm", 2), 1, 2)
    tracemalloc.start()
    try:
        op = doi_operator_matrix(js, fk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * op.nbytes  # the n^4 output and one column of units at a time


def test_doi_linearity():
    tup, _, _ = planted_commuting_tuple(6, 2, "uniform", seed=21)
    js = joint_diagonalize(tup)
    fk = divided_difference_symbol(builtin_function("crease", 2), 2, 2)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = doi_apply(js, fk, a * v + b * w)
    rhs = a * doi_apply(js, fk, v) + b * doi_apply(js, fk, w)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))


def test_doi_self_adjointness():
    tup, _, _ = planted_commuting_tuple(6, 2, "uniform", seed=22)
    js = joint_diagonalize(tup)
    fk = divided_difference_symbol(builtin_function("euclid-norm", 2), 1, 2)
    rng = np.random.default_rng(8)
    v = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    lhs = np.trace(doi_apply(js, fk, v) @ w.conj().T)
    rhs = np.trace(v @ doi_apply(js, fk, w).conj().T)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_perturbation_identity_constant():
    tup, _, _ = planted_commuting_tuple(4, 1, "uniform", seed=2)
    js = joint_diagonalize(tup)
    b = _hermitian(4, np.random.default_rng(1))
    lhs, rhs, res = perturbation_residual(js, lambda lam: 7.0, 1.0, b)
    assert np.linalg.norm(lhs) <= 1e-12
    assert np.linalg.norm(rhs) <= 1e-12
    assert res <= 1e-12


def test_perturbation_identity_square_2x2():
    js = joint_diagonalize(CommutingTuple([np.diag([1.0, 2.0])]))
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    lhs, rhs, res = perturbation_residual(js, lambda lam: lam[..., 0] ** 2, 4.0, b)
    np.testing.assert_allclose(lhs, [[0.0, -3.0], [3.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(rhs, [[0.0, -3.0], [3.0, 0.0]], atol=1e-12)
    assert res <= 1e-12


def test_perturbation_identity_random():
    tup, _, _ = planted_commuting_tuple(16, 3, "uniform", seed=31)
    js = joint_diagonalize(tup)
    b = _hermitian(16, np.random.default_rng(4))
    smoothed = lambda lam: np.sqrt(np.sum(lam**2, axis=-1) + 1e-6)
    _, _, res = perturbation_residual(js, smoothed, 1.0, b)
    assert res <= 1e-9


def test_perturbation_rejects_wrong_lipschitz_bound():
    tup, _, _ = planted_commuting_tuple(6, 1, "uniform", seed=33)
    js = joint_diagonalize(tup)
    b = _hermitian(6, np.random.default_rng(5))
    with pytest.raises(GuardViolationError):
        perturbation_residual(js, lambda lam: 10.0 * lam[..., 0], 1.0, b)


def test_divided_difference_bounded_by_lipschitz():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for name in experiment_function_names(d):
            f = builtin_function(name, d)
            for k in range(1, d + 1):
                fk = divided_difference_symbol(f, k, d)
                pts = rng.uniform(-3, 3, size=(30, d))
                for a in pts[:15]:
                    for b in pts[15:]:
                        assert abs(fk.func(a, b)) <= f.lipschitz + 1e-12


def test_block_difference_embed():
    x, _, _ = planted_commuting_tuple(3, 2, "uniform", seed=41)
    y, _, _ = planted_commuting_tuple(3, 2, "uniform", seed=42)
    embedded, b = block_difference_embed(x, y)
    assert embedded.dim == 6
    np.testing.assert_allclose(b[:3, 3:], np.eye(3))
    # commutator corner blocks are +-(X_k - Y_k)
    for ak, xk, yk in zip(embedded.arrays(), x.arrays(), y.arrays()):
        c = commutator(ak, b)
        np.testing.assert_allclose(c[:3, 3:], xk - yk, atol=1e-12)
        np.testing.assert_allclose(c[3:, :3], yk - xk, atol=1e-12)
        # singular values of the commutator double those of the difference
        sv = singular_values(c).values
        sdiff = singular_values(xk - yk).values
        np.testing.assert_allclose(sv, np.sort(np.concatenate([sdiff, sdiff]))[::-1],
                                   atol=1e-10)


def test_block_difference_embed_equal_tuples():
    x, _, _ = planted_commuting_tuple(3, 1, "uniform", seed=43)
    embedded, b = block_difference_embed(x, x)
    for ak in embedded.arrays():
        assert np.linalg.norm(commutator(ak, b)) <= 1e-12


def test_block_embed_scalar_identity_case():
    x = CommutingTuple([np.array([[2.0]])])
    y = CommutingTuple([np.array([[0.0]])])
    embedded, b = block_difference_embed(x, y)
    js = joint_diagonalize(embedded)
    from oplip.spectral import apply_function

    fa = apply_function(js, lambda lam: lam[..., 0]).data
    np.testing.assert_allclose(commutator(fa, b), [[0.0, 2.0], [-2.0, 0.0]],
                               atol=1e-12)


def test_symbol_symmetry_spot_check():
    tup, _, _ = planted_commuting_tuple(4, 1, "uniform", seed=61)
    js = joint_diagonalize(tup)
    liar = Symbol(d=1, func=lambda lam, mu: lam[..., 0] - mu[..., 0], symmetric=True)
    with pytest.raises(ValueError):
        symbol_matrix(js, liar)


def test_symbol_hermitian_check_covers_every_pair():
    # Hermitian on the pairs (0, n-1), (0, 1), (n//2, n-1), broken only on (1, 2).
    tup, _, _ = planted_commuting_tuple(4, 1, "uniform", seed=61)
    js = joint_diagonalize(tup)
    r1, r2 = js.eigenvalues[1, 0], js.eigenvalues[2, 0]
    liar = Symbol(d=1, func=lambda lam, mu: np.where(
        (lam[..., 0] == r1) & (mu[..., 0] == r2), 1.0, 0.0), symmetric=True)
    with pytest.raises(GuardViolationError, match="l1,l2"):
        symbol_matrix(js, liar)


def test_symbol_matrix_calls_f_once_per_row():
    tup, _, _ = planted_commuting_tuple(16, 2, "uniform", seed=62)
    js = joint_diagonalize(tup)
    calls = []
    f = builtin_function("euclid-norm", 2)

    def counting(lam):
        calls.append(1)
        return f(lam)

    symbol_matrix(js, divided_difference_symbol(counting, 2, 2))
    assert len(calls) <= 2 * 16


def test_symbol_matrix_matches_scalar_loop():
    # 12 rows from 9 lattice points: repeated rows put exact zeros off the diagonal
    tup, _, _ = planted_commuting_tuple(12, 2, "integer:1", seed=64)
    js = joint_diagonalize(tup)
    rows = js.eigenvalues
    f = builtin_function("crease", 2)
    for k in (1, 2):
        out = symbol_matrix(js, divided_difference_symbol(f, k, 2))
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                diff = a - b
                denom = float(diff @ diff)
                if denom == 0.0:
                    assert out[i, j] == 0.0
                    continue
                want = (f(a) - f(b)) * float(diff[k - 1]) / denom
                assert abs(out[i, j] - want) <= 1e-15 * (1.0 + abs(want))


def test_symbol_matrix_rejects_nonfinite_f():
    tup, _, _ = planted_commuting_tuple(5, 1, "uniform", seed=63)
    js = joint_diagonalize(tup)
    bad = js.eigenvalues[3, 0]
    f = lambda lam: np.where(lam[..., 0] == bad, np.inf, lam[..., 0])
    with pytest.raises(NonFiniteError):
        symbol_matrix(js, divided_difference_symbol(f, 1, 1))


def test_divided_difference_exact_zero_without_warnings():
    fk = divided_difference_symbol(lambda lam: np.copysign(1e200, lam[..., 0]), 1, 2)
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        # -0.0 and 0.0 differ bitwise and in f, but not in |lambda - mu|^2
        assert fk.func(np.array([-0.0, 1.0]), np.array([0.0, 1.0])) == 0.0
        rows = np.array([[-0.0, 1.0], [0.0, 1.0], [2.0, 1.0]])
        out = fk.func(rows[:, None, :], rows[None, :, :])
        # rows 1e-200 apart are not equal rows: equal f values give 0, and a
        # jump of 2e200 gives 2e400, which is refused instead of read as 0
        assert fk.func(np.array([1e-200, 0.0]), np.array([0.0, 0.0])) == 0.0
        with pytest.raises(NonFiniteError):
            fk.func(np.array([1e-200, 0.0]), np.array([-0.0, 0.0]))
    assert out.shape == (3, 3)
    assert np.all(out[:2, :2] == 0.0) and out[2, 0] == 1e200


@pytest.mark.parametrize("s", [1e-170, 1.0, 1e150, 1e160])
@pytest.mark.parametrize("shape", ["3s,s", "s,-s"])
def test_divided_difference_scale_safe(s, shape):
    # |lambda - mu|^2 underflows at 1e-170 and overflows at 1e160 unscaled
    a, b = (3.0 * s, s) if shape == "3s,s" else (s, -s)
    with np.errstate(over="ignore"):  # the tuple's Frobenius norm overflows at 1e160
        js = JointSpectrum(np.eye(2), [[a], [b]], CommutingTuple([np.diag([a, b])]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = symbol_matrix(js, divided_difference_symbol(lambda lam: lam[..., 0], 1, 1))
    assert out[0, 1] == 1.0 and out[1, 0] == 1.0
    assert out[0, 0] == 0.0 and out[1, 1] == 0.0


def test_divided_difference_moderate_rows_unchanged():
    # rows of moderate scale keep the unscaled quotient bitwise, also beside
    # an extreme row, which sends the whole table through the scaled path
    rows = np.random.default_rng(65).uniform(-3.0, 3.0, (9, 2))
    f = builtin_function("crease", 2)
    fk = divided_difference_symbol(f, 2, 2).func
    diff = rows[:, None, :] - rows[None, :, :]
    df = f(rows)[:, None] - f(rows)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        want = df * diff[..., 1] / np.sum(diff * diff, axis=-1)
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(fk(rows[:, None, :], rows[None, :, :]), want)
    mixed = np.vstack([rows, [1e-300, 1e-300]])
    assert np.array_equal(fk(mixed[:, None, :], mixed[None, :, :])[:9, :9], want)


@pytest.mark.parametrize("lam, mu", [([np.nan, 0.0], [1.0, 0.0]),
                                     ([np.inf, 0.0], [1.0, 0.0]),
                                     ([1e308, 0.0], [-1e308, 0.0])])
def test_divided_difference_refuses_non_finite(lam, mu):
    fk = divided_difference_symbol(lambda rows: 1.0, 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            fk.func(np.array(lam), np.array(mu))


def test_symbol_symmetry_gate_refuses_nan():
    js = joint_diagonalize(CommutingTuple([np.diag([1.0, 2.0])]))
    nan = Symbol(d=1, func=lambda lam, mu: np.nan * (lam[..., 0] + mu[..., 0]), symmetric=True)
    with pytest.raises(GuardViolationError):
        symbol_matrix(js, nan)


def test_symbol_product_check():
    tup, _, _ = planted_commuting_tuple(8, 1, "uniform", seed=51)
    js = joint_diagonalize(tup)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    one = constant_symbol(1, 1.0)
    fk = divided_difference_symbol(lambda lam: lam[..., 0] ** 2, 1, 1)
    # the composed side pays one extra basis round-trip, so "exact" means
    # float-exact here
    assert symbol_product_check(js, one, fk, v) <= 1e-13
    assert symbol_product_check(js, fk, fk, v) <= 1e-12
