"""Torus embedding of commuting tuples with integer spectra.

For an integer function f on Z^d, the unitary

    U_f(t) = sum_i p_i e^{i <(i, f(i)), t>}

(product spectral projections p_i times characters) embeds a matrix V as the
signal I(V)(t) = U_f(t) V U_f(t)^*.  Compressing to the off-diagonal part and
applying the homogeneous lattice multiplier with symbol g turns the double
operator integral with the divided-difference symbol into a Fourier
multiplier: S(I(V)) = I(T(V)) exactly, on any aliasing-free grid.

Everything here works in the joint eigenbasis and transforms back once at the
end, so the off-diagonal compression is exact.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AliasRiskError,
    DimMismatchError,
    DomainError,
    GuardViolationError,
)
from .doi import Symbol, divided_difference_symbol, doi_apply
from .rng import generator
from .spectral import (
    CommutingTuple,
    JointSpectrum,
    as_matrix,
    discretize_tuple,
    evaluate_rows,
    joint_diagonalize,
)
from .torus import (
    TWO_PI,
    HomogeneousSymbol,
    TorusSignal,
    _multiplier_tensor,
    coefficients,
    frequency_index,
    signal_from_coefficients,
)

INTEGER_GATE = 1e-9
SCAN_BUDGET = 1 << 30  # pair comparisons one contraction_check may make


@dataclass
class IntegerTuple:
    """A joint spectrum whose eigenvalue table is integer-valued."""

    spectrum: JointSpectrum
    table: np.ndarray  # rounded integer eigenvalues, shape (n, d)

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def d(self) -> int:
        return self.spectrum.d


def integer_tuple(source) -> IntegerTuple:
    """Validate integer spectra and attach the rounded table."""
    js = joint_diagonalize(source) if isinstance(source, CommutingTuple) else source
    rounded = np.round(js.eigenvalues)
    dev = float(np.max(np.abs(js.eigenvalues - rounded))) if js.eigenvalues.size else 0.0
    if dev > INTEGER_GATE:
        raise DomainError(
            f"eigenvalues deviate from integers by {dev:.3e} (gate {INTEGER_GATE:.1e})"
        )
    return IntegerTuple(spectrum=js, table=rounded.astype(np.int64))


def round_contraction(f, n: int):
    """Round a Euclidean contraction: h(i) = floor((n/2) f(i/n)) on a (..., d) table of i."""
    if n < 1:
        raise DomainError(f"rounding level n = {n} must be >= 1")

    def h(points):
        return np.floor(0.5 * n * f(points / n))

    return h


class ContractionReport(NamedTuple):
    ok: bool
    worst_pair: tuple  # None when report_margin=False and no violation occurred
    margin: float  # max over tested pairs of |h(i)-h(j)| - |i-j|_2


def _box_points(radius: int, d: int) -> np.ndarray:
    side = 2 * radius + 1
    return (np.indices((side,) * d).reshape(d, -1) - radius).T.copy()


def _integer_values(h, points) -> np.ndarray:
    raw = evaluate_rows(h, points)
    rounded = np.round(raw)
    if np.max(np.abs(raw - rounded)) > 1e-9:
        raise DomainError("h must be integer-valued on the lattice")
    return rounded.astype(np.int64)


def contraction_check(h, box_radius: int, d: int,
                      report_margin: bool = True) -> ContractionReport:
    """Test |h(i) - h(j)| <= |i - j|_2 over every pair of a lattice box, in any d.

    Each pair is (x, x + delta) with delta lexicographically positive, and
    |i - j| depends on delta alone, so the scan takes one slice difference dH
    of the value grid H = h(box) per delta: the verdict is the exact integer
    max |dH|^2 <= |delta|^2, the margin the float max of max |dH| - |delta|.
    With span = max H - min H, exact pruning skips |delta|^2 >= span^2 (no
    violation) and, for margins, |delta| > max(span, 1): there the margin is
    < 0, and for span >= 1 some unit step of the connected box reaches 0.
    The pair reported is (x, x + delta), x the first argmax in delta's
    overlap, smallest in row-major (index x, index x + delta) over the deltas
    tied on the margin.  With ``report_margin`` off a pass returns ``(True,
    None, -inf)``.  A box of over ``SCAN_BUDGET`` pairs raises DomainError.
    """
    if d < 1:
        raise DomainError(f"dimension d = {d} must be >= 1")
    if box_radius < 1:
        raise DomainError("box radius must be >= 1")
    side = 2 * box_radius + 1
    if side**d * (side**d - 1) // 2 > SCAN_BUDGET:
        raise DomainError(f"the radius-{box_radius} box in d={d} has more than "
                          f"SCAN_BUDGET = {SCAN_BUDGET} pairs")
    points = _box_points(box_radius, d)
    values = _integer_values(h, points)
    grid = values.reshape((side,) * d)
    span = int(values.max() - values.min())
    reach2 = max(span, 1) ** 2 if report_margin else max(span * span - 1, 0)
    deltas = _box_points(min(math.isqrt(reach2), side - 1), d)
    deltas = deltas[deltas.shape[0] // 2 + 1:]  # lexicographically positive
    dist2 = np.sum(deltas * deltas, axis=-1)
    deltas, dist2 = deltas[dist2 <= reach2], dist2[dist2 <= reach2]
    # cut[c]: the x with x + c in the box along one axis (x + c runs over cut[-c])
    cut = [slice(max(0, -c), side - max(0, c)) for c in [*range(side), *range(1 - side, 0)]]

    def step(delta):
        lo = tuple(map(cut.__getitem__, delta))
        return lo, np.abs(grid[tuple(cut[-c] for c in delta)] - grid[lo])

    jump = np.array([step(delta)[1].max() for delta in deltas.tolist()], dtype=np.int64)
    ok = bool(np.all(jump * jump <= dist2))
    if ok and not report_margin:
        return ContractionReport(True, None, -np.inf)
    margins = jump - np.sqrt(dist2.astype(float))
    worst = float(margins.max())
    pairs = []
    for delta in deltas[margins == worst].tolist():
        lo, dh = step(delta)
        x = np.add([s.start for s in lo], np.unravel_index(np.argmax(dh), dh.shape))
        pairs.append(tuple(np.ravel_multi_index(p, grid.shape) for p in (x, x + delta)))
    i, j = min(pairs)
    return ContractionReport(ok, (points[i].copy(), points[j].copy()), worst)


def _frequency_table(it: IntegerTuple, h) -> np.ndarray:
    """F[i, j] = (lambda_i - lambda_j, h(lambda_i) - h(lambda_j)), shape (n, n, d+1).

    Entry (i, j) of V in the joint eigenbasis sits at frequency F[i, j] of I(V).
    """
    rows = np.column_stack([it.table, _integer_values(h, it.table)])
    return rows[:, None, :] - rows[None, :, :]


def _check_alias(freqs, grid_size: int):
    """Raise unless an N^(d+1) grid separates every frequency of the table."""
    maxfreq = int(np.max(np.abs(freqs)))
    if grid_size <= 2 * maxfreq + 1:
        raise AliasRiskError(
            f"grid N={grid_size} cannot separate frequencies up to {maxfreq}; "
            f"need N >= {2 * maxfreq + 2}"
        )


def _in_eigenbasis(it: IntegerTuple, v) -> np.ndarray:
    v = as_matrix(v)
    if v.shape != (it.dim, it.dim):
        raise DimMismatchError(f"expected a {it.dim}x{it.dim} matrix, got {v.shape}")
    U = it.spectrum.basis
    return U.conj().T @ v @ U


def build_embedding(it: IntegerTuple, f, v, grid_size: int) -> TorusSignal:
    """Materialize I(V) = U_f (V tensor 1) U_f^* on an aliasing-free N^(d+1) grid."""
    v_eig = _in_eigenbasis(it, v)
    freqs = _frequency_table(it, f)
    _check_alias(freqs, grid_size)
    n = it.dim
    keys, which = np.unique(freqs.reshape(n * n, -1), axis=0, return_inverse=True)
    which = which.reshape(n, n)
    U = it.spectrum.basis
    coeffs = np.zeros((grid_size,) * (it.d + 1) + (n, n), dtype=complex)
    for index, key in enumerate(keys):
        fiber = np.where(which == index, v_eig, 0.0)
        coeffs[frequency_index(key, grid_size)] = U @ fiber @ U.conj().T
    return signal_from_coefficients(coeffs)


def apply_S(it: IntegerTuple, g: HomogeneousSymbol, w: TorusSignal) -> TorusSignal:
    """Off-diagonal compression in the joint eigenbasis, then the lattice multiplier g."""
    n = it.dim
    if w.fiber_dim != n:
        raise DimMismatchError(
            f"fiber dimension {w.fiber_dim} does not match tuple dimension {n}"
        )
    if g.d != it.d:
        raise DimMismatchError("symbol dimension does not match tuple length")
    U = it.spectrum.basis
    coeffs = coefficients(w)
    eig = np.einsum("ab,...bc,cd->...ad", U.conj().T, coeffs, U)

    same_group = np.all(it.table[:, None, :] == it.table[None, :, :], axis=-1)
    eig[..., same_group] = 0.0

    mult = _multiplier_tensor(g, w.grid_size, w.torus_dim)
    eig *= mult[..., np.newaxis, np.newaxis]
    out = np.einsum("ab,...bc,cd->...ad", U, eig, U.conj().T)
    return signal_from_coefficients(out)


def _check_contraction_on_box(it: IntegerTuple, f):
    lo = int(np.min(it.table))
    hi = int(np.max(it.table))
    radius = max(abs(lo), abs(hi), 1)
    report = contraction_check(f, radius, it.d, report_margin=False)
    if not report.ok:
        raise GuardViolationError(
            f"f is not a contraction on the occupied box: pair {report.worst_pair}"
        )


def verify_conjugation(it: IntegerTuple, f, v, grid_size: int, k0: int = 1) -> float:
    """Residual of the exact conjugation identity S(I(V)) = I(T(V)).

    The two sides travel independent routes: the left evaluates the
    homogeneous symbol g at the frequency of every eigenbasis entry (g(0) = 0
    is the off-diagonal compression), the right applies the double operator
    integral with the divided-difference symbol.  The frequencies partition
    the entries, so the entrywise Frobenius distance is the coefficient L2
    distance, which equals the grid L2 distance by the Plancherel identity.
    """
    _check_contraction_on_box(it, f)
    v_eig = _in_eigenbasis(it, v)
    freqs = _frequency_table(it, f)
    _check_alias(freqs, grid_size)
    left = HomogeneousSymbol(d=it.d, k0=k0)(freqs) * v_eig

    symbol = divided_difference_symbol(f, k0, it.d)
    js_int = JointSpectrum(
        basis=it.spectrum.basis,
        eigenvalues=it.table.astype(float),
        provenance=it.spectrum.provenance,
    )
    right = _in_eigenbasis(it, doi_apply(js_int, symbol, as_matrix(v)))

    scale = TWO_PI ** ((it.d + 1) / 2.0)
    diff = scale * float(np.linalg.norm(left - right))
    return diff / (1.0 + scale * float(np.linalg.norm(right)))


class DiscretizationReport(NamedTuple):
    n: int
    identity_residual: float  # T_{xi_n}^{A,A}(V) against T_{(f^n)_k0}^{A_n,A_n}(V)
    symbol_sup_difference: float  # sup over spectrum pairs of |xi_n - f_k0/2|


def discretization_report(js: JointSpectrum, f, n: int, k0: int = 1,
                          seed: int = 0) -> DiscretizationReport:
    """Compare the contraction-rounded discretized symbol against half the
    divided difference on the occupied spectrum, and check the floored-tuple
    identity with a random test matrix.

    xi_n(lambda, mu) = (f^n)_{k0}(floor(n lambda), floor(n mu)); the sup
    difference against f_{k0}/2 is reported as data (it shrinks as n grows).
    """
    d = js.d
    hk = divided_difference_symbol(round_contraction(f, n), k0, d)
    xi_n = lambda lam, mu: hk.func(np.floor(n * lam), np.floor(n * mu))
    fk = divided_difference_symbol(f, k0, d)

    lam, mu = js.eigenvalues[:, None, :], js.eigenvalues[None, :, :]
    sup = float(np.max(np.abs(xi_n(lam, mu) - 0.5 * fk.func(lam, mu))))

    rng = generator(seed, 0xD15C)
    nmat = js.dim
    v = rng.standard_normal((nmat, nmat)) + 1j * rng.standard_normal((nmat, nmat))
    lhs = doi_apply(js, Symbol(d=d, func=xi_n), v)
    js_floor = JointSpectrum(
        basis=js.basis,
        eigenvalues=np.floor(n * js.eigenvalues),
        provenance=discretize_tuple(js, n),
    )
    rhs = doi_apply(js_floor, hk, v)
    residual = float(
        np.linalg.norm(lhs - rhs, "fro") / (1.0 + np.linalg.norm(rhs, "fro"))
    )
    return DiscretizationReport(n=n, identity_residual=residual,
                                symbol_sup_difference=sup)
