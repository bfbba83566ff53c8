"""Double operator integrals as Schur multipliers in the joint eigenbasis.

For a commuting tuple with joint spectrum (U, Lambda), the map

    V  ->  U ( [xi(lambda_i, lambda_j)]_{ij} * (U* V U) ) U*

multiplies matrix entries of V, expressed in the joint eigenbasis, by the
symbol evaluated at eigenvalue row pairs, all n^2 of them in one broadcasting
call on rows[:, None] and rows[None, :].  f takes a float table (..., d) (see
:func:`~oplip.spectral.evaluate_rows`), so the divided differences of all d
coordinates call f once per table.  Their 0/0 is 0 on equal rows (-0.0
against 0.0 included) and nowhere else; close rows are never merged here
(degenerate spectra are the joint diagonalization's job).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, DomainError, GuardViolationError, NonFiniteError
from .spectral import (
    CommutingTuple,
    HermitianMatrix,
    JointSpectrum,
    _binary_exponents,
    apply_function,
    as_matrix,
    commutator,
    evaluate_rows,
)

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Symbol:
    """A Schur multiplier xi(lambda, mu) on R^d x R^d.

    ``func`` takes float arrays of shape (..., d) that broadcast against each
    other and returns values that broadcast to their leading shape (0-d for
    one pair).  ``symmetric`` declares xi(mu, lambda) = conj(xi(lambda, mu)).
    """

    d: int
    func: object
    symmetric: bool = False


def _moderate(*tables) -> bool:
    """Every entry is 0 or in [2^-400, 2^501): then |lambda - mu|^2 cannot under- or
    overflow (d < 2^20; a nonzero |lambda_k - mu_k| is >= 2^-452), nor f_k."""
    c = np.concatenate(tables, axis=None)
    return (np.minimum.reduce(np.frexp(c)[1], initial=0) >= -399
            and np.maximum.reduce(np.abs(c), initial=0.0) < 2.0**501)


def _quotient(df, diff, k=None):
    """df (lam_k - mu_k) / |lam - mu|^2 from diff = lam - mu, exactly 0 where
    lam == mu: at coordinate k, or for every k stacked on a new leading axis."""
    denom = np.sum(diff * diff, axis=-1)
    zero = denom == 0.0
    num = np.ascontiguousarray(np.moveaxis(diff, -1, 0)) if k is None else diff[..., k - 1]
    return np.where(zero, 0.0, df * num / np.where(zero, 1.0, denom))


def _divided(fl, fm, lam, mu, k=None):
    """:func:`_quotient` of fl - fm over the broadcast pairs (lam, mu).

    Unless all rows and f values are :func:`_moderate`, each pair is first
    scaled by the power of two s with max |diff/s| in [1/2, 1), which is
    exact and serves every k; a value that is not finite then raises
    NonFiniteError.
    """
    if _moderate(lam, mu, fl, fm):
        return _quotient(fl - fm, lam - mu, k)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = lam - mu
        e = _binary_exponents(diff)
        out = _quotient(np.ldexp(fl - fm, -e), np.ldexp(diff, -e[..., np.newaxis]), k)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("divided difference is not finite")
    return out


def divided_difference_symbol(f, k: int, d: int) -> Symbol:
    """The symbol f_k(lambda, mu) = (f(lambda)-f(mu)) (lambda_k-mu_k) / |lambda-mu|^2.

    f is called once on each argument's table; exactly 0 where lambda == mu,
    and scale-safe as :func:`_divided` describes.
    """
    if not 1 <= k <= d:
        raise DomainError(f"coordinate index {k} outside 1..{d}")

    def fk(lam, mu):
        return _divided(evaluate_rows(f, lam), evaluate_rows(f, mu), lam, mu, k)

    return Symbol(d=d, func=fk, symmetric=True)


def divided_differences(rows, f) -> np.ndarray:
    """The real (d, n, n) stack T[k-1, i, j] = f_k(l_i, l_j) on an n x d table ``rows``.

    One call of f, one difference table and one scale decision serve every
    k, with the arithmetic of :func:`divided_difference_symbol`, so each
    T[k-1] equals that symbol's table bitwise.  T[k-1] is symmetric, bitwise
    up to the sign of a zero: swapping i and j negates both differences, and
    negation is exact.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DimMismatchError(f"expected an n x d table, got shape {rows.shape}")
    values = evaluate_rows(f, rows)
    return _divided(values[:, None], values[None, :], rows[:, None, :], rows[None, :, :])


def symbol_product(a: Symbol, b: Symbol) -> Symbol:
    if a.d != b.d:
        raise DimMismatchError("symbols have different dimensions")
    return Symbol(
        d=a.d,
        func=lambda lam, mu: a.func(lam, mu) * b.func(lam, mu),
        symmetric=False,
    )


def symbol_matrix(js: JointSpectrum, xi: Symbol) -> np.ndarray:
    """out[i, j] = xi(l_i, l_j); a symmetric symbol must give a Hermitian matrix."""
    return symbol_table(js.eigenvalues, xi)


def symbol_table(rows: np.ndarray, xi: Symbol) -> np.ndarray:
    """:func:`symbol_matrix` on an n x d eigenvalue table ``rows``.

    In the basis U of the table, T_xi(V) is U (out o U*VU) U*, so a caller
    that holds (U, rows) measures any unitarily invariant norm of it on
    out o U*VU; with U = I that is the Schur product out o V.  A real-valued
    symbol gives a real table.
    """
    rows = np.asarray(rows, dtype=float)
    n, d = rows.shape
    if xi.d != d:
        raise DimMismatchError(
            f"symbol dimension {xi.d} does not match spectrum dimension {d}"
        )
    vals = np.asarray(xi.func(rows[:, None, :], rows[None, :, :]))
    out = np.empty((n, n), dtype=complex if np.iscomplexobj(vals) else float)
    out[...] = vals
    if xi.symmetric:
        dev = np.abs(out - out.conj().T)
        bad = np.argwhere(~(dev <= SYMMETRY_TOL * (1.0 + np.abs(out))))
        if bad.size:
            i, j = bad[0]
            raise GuardViolationError(
                f"symbol declared symmetric but xi(l{i},l{j}) deviates by {dev[i, j]:.3e}"
            )
    return out


def _schur_step(js: JointSpectrum, xi_mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    U = js.basis
    return U @ (xi_mat * (U.conj().T @ v @ U)) @ U.conj().T


def doi_apply(js: JointSpectrum, xi: Symbol, v) -> np.ndarray:
    """Apply the double operator integral T_xi to the matrix v."""
    v = as_matrix(v)
    n = js.dim
    if v.shape != (n, n):
        raise DimMismatchError(f"expected a {n}x{n} matrix, got {v.shape}")
    return _schur_step(js, symbol_matrix(js, xi), v)


def doi_l2_norm(js: JointSpectrum, xi: Symbol) -> float:
    """Exact L2 -> L2 norm of the Schur multiplier: max over pairs of |xi|."""
    return float(np.max(np.abs(symbol_matrix(js, xi))))


def doi_operator_matrix(js: JointSpectrum, xi: Symbol) -> np.ndarray:
    """Dense n^2 x n^2 matrix of V -> T_xi(V), built by applying it to matrix units.

    Column j n + i is the column-major T_xi(E_ij); one symbol matrix serves
    every unit, and the units of one column j go through one batched step, so
    the scratch beside the n^4 output is O(n^3).  Serves as the independent
    route for the L2 norm: its largest singular value must agree with
    :func:`doi_l2_norm`.
    """
    n = js.dim
    xi_mat = symbol_matrix(js, xi)
    op = np.empty((n * n, n * n), dtype=complex)
    i = np.arange(n)
    for j in range(n):
        units = np.zeros((n, n, n), dtype=complex)
        units[i, i, j] = 1.0
        images = _schur_step(js, xi_mat, units)
        op[:, j * n:(j + 1) * n] = images.transpose(0, 2, 1).reshape(n, n * n).T
    return op


def perturbation_residual(js: JointSpectrum, f, grad_bound: float, b):
    """Residual of sum_k T_{f_k}([A_k, B]) against [f(A), B].

    Returns (lhs, rhs, residual) with residual = ||lhs - rhs||_F / (1 + ||lhs||_F).
    One stack of :func:`divided_differences` serves every k.  The realized
    divided-difference values are checked against the supplied gradient
    bound; exceeding it means the caller's Lipschitz constant is wrong.
    """
    b = as_matrix(b)
    n = js.dim
    if b.shape != (n, n):
        raise DimMismatchError(f"expected a {n}x{n} matrix, got {b.shape}")
    lhs = commutator(apply_function(js, f), b)
    rhs = np.zeros_like(lhs)
    table = divided_differences(js.eigenvalues, f)
    for tk, ak in zip(table, js.provenance.arrays()):
        rhs += _schur_step(js, tk, commutator(ak, b))
    worst = float(np.max(np.abs(table)))
    if grad_bound is not None and worst > grad_bound * (1.0 + 1e-6):
        raise GuardViolationError(
            f"divided difference reached {worst:.6g}, above the supplied "
            f"gradient bound {grad_bound:.6g}"
        )
    residual = float(np.linalg.norm(lhs - rhs, "fro") / (1.0 + np.linalg.norm(lhs, "fro")))
    return lhs, rhs, residual


def block_difference_embed(x: CommutingTuple, y: CommutingTuple):
    """Embed a difference problem as a commutator problem on doubled dimension.

    A_k = diag(X_k, Y_k) and B swaps the two blocks, so the corner block of
    [f(A), B] is f(X) - f(Y) while [A_k, B] has corner blocks +-(X_k - Y_k).
    """
    if x.d != y.d or x.dim != y.dim:
        raise DimMismatchError("tuples must share dimension and length")
    n = x.dim
    blocks = []
    for xk, yk in zip(x.arrays(), y.arrays()):
        a = np.zeros((2 * n, 2 * n), dtype=complex)
        a[:n, :n] = xk
        a[n:, n:] = yk
        blocks.append(HermitianMatrix(a))
    b = np.zeros((2 * n, 2 * n), dtype=complex)
    b[:n, n:] = np.eye(n)
    b[n:, :n] = np.eye(n)
    return CommutingTuple(blocks), b


def symbol_product_check(js: JointSpectrum, xi1: Symbol, xi2: Symbol, v) -> float:
    """Relative Frobenius residual of T_{xi1}(T_{xi2}(V)) against T_{xi1 xi2}(V)."""
    v = as_matrix(v)
    lhs = doi_apply(js, xi1, doi_apply(js, xi2, v))
    rhs = doi_apply(js, symbol_product(xi1, xi2), v)
    return float(np.linalg.norm(lhs - rhs, "fro") / (1.0 + np.linalg.norm(rhs, "fro")))
