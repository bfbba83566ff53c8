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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    AliasRiskError,
    DimMismatchError,
    GuardViolationError,
    NonIntegerSpectrumError,
)
from .doi import Symbol, divided_difference_symbol, doi_apply
from .rng import generator
from .spectral import (
    CommutingTuple,
    JointSpectrum,
    as_matrix,
    discretize_tuple,
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
    symbol_eval,
)

INTEGER_GATE = 1e-9


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

    def groups(self):
        """Distinct integer eigenvalue rows with their row index arrays."""
        seen = {}
        for i, row in enumerate(self.table):
            seen.setdefault(tuple(int(v) for v in row), []).append(i)
        return [(np.array(key), np.array(rows)) for key, rows in seen.items()]


def integer_tuple(source, tol: float = INTEGER_GATE) -> IntegerTuple:
    """Validate integer spectra and attach the rounded table."""
    js = joint_diagonalize(source) if isinstance(source, CommutingTuple) else source
    rounded = np.round(js.eigenvalues)
    dev = float(np.max(np.abs(js.eigenvalues - rounded))) if js.eigenvalues.size else 0.0
    if dev > tol:
        raise NonIntegerSpectrumError(
            f"eigenvalues deviate from integers by {dev:.3e} (gate {tol:.1e})"
        )
    return IntegerTuple(spectrum=js, table=rounded.astype(np.int64))


def round_contraction(f, n: int):
    """Round a Euclidean contraction to the integer lattice: i -> floor((n/2) f(i/n))."""
    if n < 1:
        raise ValueError("n must be positive")

    def h(ivec):
        ivec = np.asarray(ivec, dtype=float)
        return int(math.floor(0.5 * n * float(f(ivec / n))))

    return h


class ContractionReport(NamedTuple):
    ok: bool
    worst_pair: tuple  # None when report_margin=False and no violation occurred
    margin: float  # max over tested pairs of |h(i)-h(j)| - |i-j|_2


def _box_points(radius: int, d: int) -> np.ndarray:
    axes = [np.arange(-radius, radius + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, d)


@lru_cache(maxsize=4)
def _box_pair_dist2(radius: int, d: int):
    """Box points and their pairwise squared distances (read-only, memoized)."""
    points = _box_points(radius, d)
    dist2 = np.zeros((points.shape[0],) * 2, dtype=np.int64)
    for axis in range(d):
        col = points[:, axis]
        diff = col[:, None] - col[None, :]
        dist2 += diff * diff
    points.setflags(write=False)
    dist2.setflags(write=False)
    return points, dist2


def _integer_values(h, points) -> np.ndarray:
    raw = np.array([float(h(p)) for p in points])
    rounded = np.round(raw)
    if np.max(np.abs(raw - rounded)) > 1e-9:
        raise ValueError("h must be integer-valued on the lattice")
    return rounded.astype(np.int64)


def contraction_check(h, box_radius: int, d: int, seed: int = 0,
                      sample_pairs: int = 1_000_000,
                      report_margin: bool = True) -> ContractionReport:
    """Test |h(i) - h(j)| <= |i - j|_2 over a lattice box.

    Exhaustive over all pairs for d <= 2; seeded pair sampling for d >= 3.
    The pass/fail verdict uses exact integer arithmetic on squared distances;
    the reported margin is the float quantity |h(i)-h(j)| - |i-j|_2, skipped
    when ``report_margin`` is off and no violation occurred.
    """
    if box_radius < 1:
        raise ValueError("box radius must be >= 1")

    if d <= 2:
        points, dist2 = _box_pair_dist2(box_radius, d)
        values = _integer_values(h, points)
        dv = values[:, None] - values[None, :]
        ok = not bool(np.any(dv * dv > dist2))
        if not report_margin and ok:
            return ContractionReport(True, None, -np.inf)
        margin = np.abs(dv) - np.sqrt(dist2.astype(float))
        np.fill_diagonal(margin, -np.inf)  # i == j pairs are vacuous
        i_at, j_at = divmod(int(np.argmax(margin)), points.shape[0])
        return ContractionReport(
            ok, (points[i_at].copy(), points[j_at].copy()),
            float(margin[i_at, j_at]),
        )

    points = _box_points(box_radius, d)
    values = _integer_values(h, points)
    rng = generator(seed, 0xC0)
    idx = rng.integers(0, points.shape[0], size=(sample_pairs, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    pi, pj = points[idx[:, 0]], points[idx[:, 1]]
    dv = values[idx[:, 0]] - values[idx[:, 1]]
    dist2 = np.sum((pi - pj) ** 2, axis=-1)
    ok = not bool(np.any(dv * dv > dist2))
    margin = np.abs(dv) - np.sqrt(dist2.astype(float))
    worst_at = int(np.argmax(margin))
    return ContractionReport(
        ok, (pi[worst_at].copy(), pj[worst_at].copy()), float(margin[worst_at])
    )


def _pair_frequencies(it: IntegerTuple, f):
    """All (frequency vector, row group pair) items over distinct spectrum rows."""
    groups = it.groups()
    f_values = {tuple(key): int(f(key)) for key, _ in groups}
    items = []
    for key_a, rows_a in groups:
        for key_b, rows_b in groups:
            freq = np.concatenate(
                [key_a - key_b, [f_values[tuple(key_a)] - f_values[tuple(key_b)]]]
            )
            items.append((freq, rows_a, rows_b))
    return items


def _check_alias(items, grid_size: int):
    """Raise unless an N^(d+1) grid separates every occurring frequency."""
    maxfreq = max(int(np.max(np.abs(freq))) for freq, _, _ in items)
    if grid_size <= 2 * maxfreq + 1:
        raise AliasRiskError(
            f"grid N={grid_size} cannot separate frequencies up to {maxfreq}; "
            f"need N >= {2 * maxfreq + 2}"
        )


def _embedding_blocks(it: IntegerTuple, f, v):
    """Coefficient map of I(V) with fibers expressed in the joint eigenbasis."""
    v = as_matrix(v)
    n = it.dim
    if v.shape != (n, n):
        raise DimMismatchError(f"expected a {n}x{n} matrix, got {v.shape}")
    U = it.spectrum.basis
    v_eig = U.conj().T @ v @ U
    items = _pair_frequencies(it, f)
    blocks = {}
    for freq, rows_a, rows_b in items:
        key = tuple(int(c) for c in freq)
        fiber = blocks.setdefault(key, np.zeros((n, n), dtype=complex))
        fiber[np.ix_(rows_a, rows_b)] += v_eig[np.ix_(rows_a, rows_b)]
    return blocks, items


def build_embedding(it: IntegerTuple, f, v, grid_size: int) -> TorusSignal:
    """Materialize I(V) = U_f (V tensor 1) U_f^* on an aliasing-free N^(d+1) grid."""
    blocks, items = _embedding_blocks(it, f, v)
    _check_alias(items, grid_size)
    n = it.dim
    d_torus = it.d + 1
    U = it.spectrum.basis
    coeffs = np.zeros((grid_size,) * d_torus + (n, n), dtype=complex)
    for key, fiber in blocks.items():
        coeffs[frequency_index(np.array(key), grid_size)] = U @ fiber @ U.conj().T
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

    gid = np.zeros(n, dtype=int)
    for g_index, (_, rows) in enumerate(it.groups()):
        gid[rows] = g_index
    same_group = gid[:, None] == gid[None, :]
    eig[..., same_group] = 0.0

    mult = _multiplier_tensor(g, w.grid_size, w.torus_dim)
    eig *= mult[..., np.newaxis, np.newaxis]
    out = np.einsum("ab,...bc,cd->...ad", U, eig, U.conj().T)
    return signal_from_coefficients(out)


def _check_contraction_on_box(it: IntegerTuple, f):
    lo = int(np.min(it.table))
    hi = int(np.max(it.table))
    radius = max(abs(lo), abs(hi), 1)
    report = contraction_check(f, radius, it.d)
    if not report.ok:
        raise GuardViolationError(
            f"f is not a contraction on the occupied box: pair {report.worst_pair}"
        )


def verify_conjugation(it: IntegerTuple, f, v, grid_size: int, k0: int = 1) -> float:
    """Residual of the exact conjugation identity S(I(V)) = I(T(V)).

    The two sides travel independent routes: the left evaluates the
    homogeneous symbol g at the occurring frequencies, the right applies the
    double operator integral with the divided-difference symbol and embeds the
    result.  The L2 distance is evaluated on the coefficient representation,
    which equals the grid L2 distance by the Plancherel identity.
    """
    _check_contraction_on_box(it, f)
    blocks, items = _embedding_blocks(it, f, v)
    _check_alias(items, grid_size)
    g = HomogeneousSymbol(d=it.d, k0=k0)
    left = {}
    for key, fiber in blocks.items():
        if all(c == 0 for c in key[: it.d]):
            continue  # same-group blocks: killed by the off-diagonal compression
        left[key] = symbol_eval(g, np.array(key, dtype=float)) * fiber

    f_real = lambda lam: float(f(np.round(lam).astype(int)))
    symbol = divided_difference_symbol(f_real, k0, it.d)
    js_int = JointSpectrum(
        basis=it.spectrum.basis,
        eigenvalues=it.table.astype(float),
        provenance=it.spectrum.provenance,
    )
    transformed = doi_apply(js_int, symbol, as_matrix(v))
    right, _ = _embedding_blocks(it, f, transformed)

    d_torus = it.d + 1
    scale = TWO_PI ** (d_torus / 2.0)
    diff_sq = 0.0
    right_sq = 0.0
    for key in set(left) | set(right):
        a = left.get(key)
        b = right.get(key)
        if a is None:
            a = np.zeros_like(b)
        if b is None:
            b = np.zeros_like(a)
        diff_sq += float(np.linalg.norm(a - b, "fro") ** 2)
        right_sq += float(np.linalg.norm(b, "fro") ** 2)
    diff = scale * math.sqrt(diff_sq)
    denom = 1.0 + scale * math.sqrt(right_sq)
    return diff / denom


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
    h = round_contraction(f, n)
    h_real = lambda lam: float(h(np.round(lam).astype(int)))
    hk = divided_difference_symbol(h_real, k0, d)
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
