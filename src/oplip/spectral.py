"""Commuting Hermitian tuples: construction, joint diagonalization, spectral calculus.

The joint diagonalization strategy: diagonalize one generic random linear
combination of the tuple, split its spectrum into clusters at relative gap
below ``CLUSTER_GAP``, and re-diagonalize each cluster recursively against the
next matrix of the tuple.  One reconstruction gate then accepts the basis or
raises ``NoConvergenceError``.  Degenerate joint eigenvalues are snapped to a
common float so that equal rows of the eigenvalue table compare bitwise equal
downstream.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadLawError,
    DimMismatchError,
    DomainError,
    NoConvergenceError,
    NonFiniteError,
    integer_at_least,
)
from .rng import generator

HERMITIAN_TOL = 1e-12
COMMUTATION_TOL = 1e-10
UNITARITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
CLUSTER_GAP = 1e-8
_FROB_LO = 2.0**-450  # a smaller plain root of the sum of squares may have lost terms
# Planted tuples past these are refused before any draw (memory ~ n*n*d, commuting ~ d*d).
MAX_TUPLE_ENTRIES = 2**21
MAX_TUPLE_D = 256

# Fixed substream for the generic linear combination inside joint_diagonalize.
_COMBO_STREAM = 0x6F704C4A


@functools.cache
def _combo() -> np.ndarray:
    """The generic combination's ``MAX_TUPLE_D`` coefficients, drawn on first use
    (so ``import oplip`` loads no ``numpy.random``); a d-tuple takes the first d,
    which equal ``standard_normal(d)`` of the substream bitwise."""
    return generator(_COMBO_STREAM).standard_normal(MAX_TUPLE_D)


def as_matrix(x) -> np.ndarray:
    """Coerce a HermitianMatrix or array-like to a complex ndarray."""
    if isinstance(x, HermitianMatrix):
        return x.data
    return np.asarray(x, dtype=complex)


def _frob(x) -> float:
    """Frobenius norm.  The plain sum of squares serves whenever its root is
    finite and at least ``_FROB_LO`` (then no square that matters over- or
    underflowed); otherwise x is divided by its largest |entry| first."""
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(x, "fro"))
        if _FROB_LO <= norm < np.inf:
            return norm
        top = float(np.max(np.abs(x), initial=0.0))
        if not 0.0 < top < np.inf:
            return top  # a zero, infinite or NaN entry decides
        return top * float(np.linalg.norm(x / top, "fro"))


def _unit_scaled(x) -> tuple:
    """(x 2^-e, ||x||_F 2^-e, 2^-e) with 2^e the power of two just above the
    largest |entry| (e >= -1021), or (x, ||x||_F, 1.0) when ||x||_F is finite
    with binary exponent in [-400, 400].

    Only exponents change, so a scale-free test on the pair is the test on x,
    and products of two returned matrices neither over- nor underflow, even
    when ||x||_F itself overflows.  Moderate norms make no copy: copying every
    matrix raised the ``sweep`` benchmark's peak RSS in ten of ten pairs
    (``BENCH_22.json``)."""
    norm = _frob(x)
    if norm < np.inf and abs(math.frexp(norm)[1]) <= 400:
        return x, norm, 1.0
    e = math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]
    scale = math.ldexp(1.0, -max(e, -1021))
    x = x * scale
    return x, _frob(x), scale


@dataclass
class HermitianMatrix:
    """Dense complex square matrix within the Hermitian gate.

    The stored array is data/2 + (data/2)*, so it equals its conjugate
    transpose bitwise and the sum cannot overflow; the Hermitian gate reads
    the same halves.  A NaN or infinite entry (or one whose modulus
    overflows) raises NonFiniteError.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise DimMismatchError(f"expected a square matrix, got {self.data.shape}")
        if self.data.size == 0:
            raise DomainError("matrix dimension n = 0 must be >= 1")
        scale = 1.0 + float(np.max(np.abs(self.data)))
        if not math.isfinite(scale):  # NaN or inf when an entry is
            raise NonFiniteError("matrix has a NaN or infinite entry")
        half = self.data / 2.0  # exact, and no sum of halves overflows
        adjoint = half.conj().T
        dev = 2.0 * np.max(np.abs(half - adjoint))
        if dev > HERMITIAN_TOL * scale:
            raise DomainError(f"matrix is not Hermitian: deviation {dev:.3e}")
        self.data = half + adjoint

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass
class CommutingTuple:
    """d Hermitian matrices of equal dimension, pairwise commuting, 1 <= d <= ``MAX_TUPLE_D``."""

    matrices: list

    def __post_init__(self):
        self.matrices = [
            m if isinstance(m, HermitianMatrix) else HermitianMatrix(m)
            for m in self.matrices
        ]
        if not 1 <= len(self.matrices) <= MAX_TUPLE_D:
            raise DomainError(f"tuple must contain 1..{MAX_TUPLE_D} matrices, "
                              f"got {len(self.matrices)}")
        dims = {m.dim for m in self.matrices}
        if len(dims) != 1:
            raise DimMismatchError(f"matrices have mixed dimensions {sorted(dims)}")
        arrays, norms, _ = zip(*(_unit_scaled(m.data) for m in self.matrices))
        for k in range(len(arrays)):
            for l in range(k + 1, len(arrays)):
                comm = arrays[k] @ arrays[l] - arrays[l] @ arrays[k]
                if _frob(comm) > COMMUTATION_TOL * norms[k] * norms[l]:
                    raise DomainError(
                        f"matrices {k} and {l} do not commute: relative residual "
                        f"{_frob(comm) / (norms[k] * norms[l]):.3e}"
                    )

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    def arrays(self):
        return [m.data for m in self.matrices]


@dataclass
class JointSpectrum:
    """Unitary change of basis plus the n x d table of joint eigenvalues."""

    basis: np.ndarray
    eigenvalues: np.ndarray
    provenance: CommutingTuple = field(repr=False)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        validate_joint_spectrum(self)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.eigenvalues.shape[1]


def validate_joint_spectrum(js):
    """Check that every entry is finite (else NonFiniteError), that the basis is
    unitary (else DomainError) and reconstructs every matrix within
    ``RECONSTRUCTION_TOL`` (else NoConvergenceError).

    For a unitary U, ||A - U diag(l) U*||_F >= ||off(U*AU)||_F, so this gate
    also bounds the off-diagonal energy left in the joint basis.  It compares
    the copy of A from ``_unit_scaled`` against the eigenvalue column scaled by
    the same power of two, so no norm overflows.
    """
    U, n, d = js.basis, js.provenance.dim, js.provenance.d
    if U.shape != (n, n):
        raise DimMismatchError(f"basis must be {n} x {n} like the tuple, got {U.shape}")
    if js.eigenvalues.shape != (n, d):
        raise DimMismatchError(f"eigenvalue table must be {n} x {d}, got {js.eigenvalues.shape}")
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(js.eigenvalues))):
        raise NonFiniteError("joint spectrum has a NaN or infinite entry")
    _check_unitary(U)
    for k, m in enumerate(js.provenance.matrices):
        a, norm, scale = _unit_scaled(m.data)
        with np.errstate(over="ignore", invalid="ignore"):  # a wrong table may overflow
            recon = (U * (js.eigenvalues[:, k] * scale)) @ U.conj().T
            residual = _frob(a - recon)
        if not residual <= RECONSTRUCTION_TOL * max(norm, 1e-300):
            raise NoConvergenceError(f"matrix {k} fails reconstruction from the spectrum")


def _check_unitary(U):
    """DomainError unless ||U*U - I||_F <= ``UNITARITY_TOL`` * n for the n x n basis U."""
    n = U.shape[0]
    gram_dev = _frob(U.conj().T @ U - np.eye(n))
    if gram_dev > UNITARITY_TOL * n:
        raise DomainError(f"basis is not unitary: ||U*U - I||_F = {gram_dev:.3e}")


def commutator(x, y) -> np.ndarray:
    """XY - YX for equal-dimension square matrices."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise DimMismatchError(f"shapes {x.shape} and {y.shape} differ")
    return x @ y - y @ x


def _split_clusters(sorted_vals, gap):
    """Index ranges of two or more consecutive values closer than ``gap``."""
    breaks = (np.flatnonzero(np.diff(sorted_vals) > gap) + 1).tolist()
    bounds = [0, *breaks, sorted_vals.size]
    return [np.arange(a, b) for a, b in zip(bounds, bounds[1:]) if b - a > 1]


def _snap_degenerate(column, scale):
    """Snap numerically degenerate entries of one eigenvalue column to a shared float."""
    order = np.argsort(column, kind="stable")
    snapped = column.copy()
    width = 64 * column.size * np.finfo(float).eps * scale
    vals = column[order]
    for run in _split_clusters(vals, width):
        snapped[order[run]] = float(np.mean(vals[run]))
    return snapped


def joint_diagonalize(tup: CommutingTuple) -> JointSpectrum:
    """Simultaneously diagonalize a commuting Hermitian tuple.

    One pass: the generic-combination ``eigh`` and the cluster refinement;
    the JointSpectrum's reconstruction gate raises ``NoConvergenceError`` if
    the basis leaves a matrix unresolved.  Returns a JointSpectrum whose
    eigenvalue rows are sorted lexicographically (ascending per coordinate)
    and whose basis columns carry a deterministic phase (largest-magnitude
    entry made real positive).  Each matrix is used in its ``_unit_scaled``
    copy, and its eigenvalue column is scaled back by the same power of two.
    """
    arrays, norms, scales = zip(*(_unit_scaled(a) for a in tup.arrays()))
    n, d = tup.dim, tup.d

    combo = sum(c * a for c, a in zip(_combo(), arrays))
    vals, U = np.linalg.eigh(combo)
    rotated = [U.conj().T @ a @ U for a in arrays]

    def refine(idx, k):
        if k >= d:
            return
        block = rotated[k][np.ix_(idx, idx)]
        block = (block + block.conj().T) / 2.0
        w, q = np.linalg.eigh(block)
        U[:, idx] = U[:, idx] @ q
        for a in rotated:
            a[:, idx] = a[:, idx] @ q
            a[idx, :] = q.conj().T @ a[idx, :]
        gap = CLUSTER_GAP * norms[k]
        for sub in _split_clusters(w, gap):
            refine(idx[sub], k + 1)

    combo_gap = CLUSTER_GAP * _frob(combo)
    for cluster in _split_clusters(vals, combo_gap):
        refine(cluster, 0)

    table = np.column_stack([np.real(np.diag(a)) for a in rotated])
    for k in range(d):
        with np.errstate(over="ignore"):  # an eigenvalue past the float range is refused below
            table[:, k] = _snap_degenerate(table[:, k], norms[k]) / scales[k]

    order = np.lexsort(table.T[::-1])
    table = table[order]
    U = U[:, order]

    # Deterministic column phases: largest-magnitude entry made real positive.
    anchor = np.argmax(np.abs(U), axis=0)
    phases = U[anchor, np.arange(n)]
    phases = phases / np.abs(phases)
    U = U / phases[np.newaxis, :]

    return JointSpectrum(basis=U, eigenvalues=table, provenance=tup)


def evaluate_rows(f, rows) -> np.ndarray:
    """f on a float table of rows, shape (..., d) -> (...), in one call.

    Every function the package evaluates (Lipschitz f, rounded h, lattice
    multipliers m) takes the whole table and returns shape (...) or a 0-d
    constant.  Other shapes raise DomainError: a per-row ``lam[0]`` would
    broadcast one row's value to every row.
    """
    rows = np.asarray(rows, dtype=float)
    vals = np.asarray(f(rows), dtype=float)
    if vals.shape not in (rows.shape[:-1], ()):
        raise DomainError(f"function gave shape {vals.shape} for {rows.shape[:-1]} rows")
    if vals.shape != rows.shape[:-1]:  # a 0-d constant
        vals = np.broadcast_to(vals, rows.shape[:-1])
    if not np.isfinite(vals).all():
        bad = rows[~np.isfinite(vals)][0]
        raise NonFiniteError(f"function not finite at eigenvalue row {bad}")
    return vals


def row_max_abs(x) -> np.ndarray:
    """max_k |x[..., k]| over the last axis of a (..., d) table, d >= 1, shape (...).

    Taken as ``np.maximum`` of the d columns, as ``torus._square_norms`` adds
    squares: a numpy reduction over a short last axis runs one inner loop per
    row, about 150 us against 5 us on a (3721, 2) table (2-core x86-64 host).
    Max is exact and propagates NaN as ``np.max(np.abs(x), axis=-1)`` does, so
    the two agree bitwise.  Each column costs one numpy call, so the helper
    serves short rows, not wide ones.
    """
    x = np.asarray(x)
    out = np.abs(x[..., 0])
    for k in range(1, x.shape[-1]):
        out = np.maximum(out, np.abs(x[..., k]))
    return out


def _binary_exponents(rows) -> np.ndarray:
    """Per row of a (..., m) table, e with max |entry| in [2^(e-1), 2^e) (0 on zero rows),
    so ldexp(rows, -e[..., None]) lies in [-1, 1]; NaN or inf raises NonFiniteError."""
    if not np.all(np.isfinite(rows)):
        raise NonFiniteError("symbol arguments must be finite")
    return np.frexp(row_max_abs(rows))[1]


def apply_function(js: JointSpectrum, f) -> HermitianMatrix:
    """Multivariate spectral calculus: U diag(f(lambda_i)) U*."""
    U = js.basis
    return HermitianMatrix((U * evaluate_rows(f, js.eigenvalues)) @ U.conj().T)


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The QR factorization is made unique by forcing the diagonal of R positive.
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _draw_spectra(n, d, spectrum_law, rng):
    if isinstance(spectrum_law, str):
        if spectrum_law == "uniform":
            return rng.uniform(-1.0, 1.0, size=(n, d))
        if spectrum_law.startswith("integer:"):
            try:
                m = int(spectrum_law.split(":", 1)[1])
            except ValueError:
                raise BadLawError(f"bad integer law {spectrum_law!r}") from None
            if m < 0:
                raise BadLawError("integer law radius must be >= 0")
            return rng.integers(-m, m + 1, size=(n, d)).astype(float)
        raise BadLawError(f"unknown spectrum law {spectrum_law!r}")
    grid = np.asarray(spectrum_law, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise BadLawError("user grid must be a nonempty 1-d sequence")
    return rng.choice(grid, size=(n, d))


def _plant(n, d, spectrum_law, seed):
    """The planted basis U and n x d eigenvalue table drawn from ``generator(seed)``.

    n and d are refused (DomainError) before any draw when they are not
    integers >= 1 or the tuple would pass ``MAX_TUPLE_ENTRIES`` or ``MAX_TUPLE_D``.
    """
    n = integer_at_least("n", n, 1)
    d = integer_at_least("d", d, 1)
    if n * n * d > MAX_TUPLE_ENTRIES or d > MAX_TUPLE_D:
        raise DomainError(f"n*n*d must be <= {MAX_TUPLE_ENTRIES} and d <= {MAX_TUPLE_D}, "
                          f"got n={n}, d={d}")
    rng = generator(seed)
    U = haar_unitary(n, rng)
    return U, _draw_spectra(n, d, spectrum_law, rng)


def planted_commuting_tuple(n, d, spectrum_law="uniform", seed=0):
    """Random commuting tuple plus the planted basis U and eigenvalue table.

    A_k = U diag(lambda^(k)) U* with a single seeded Haar unitary U.
    """
    U, lambdas = _plant(n, d, spectrum_law, seed)
    matrices = [(U * lambdas[:, k]) @ U.conj().T for k in range(d)]
    return CommutingTuple(matrices), U, lambdas


def discretize_tuple(js: JointSpectrum, n: int) -> CommutingTuple:
    """Floor the joint spectrum to the 1/n grid: eigenvalue lambda -> floor(n*lambda)."""
    if n < 1:
        raise DomainError("grid refinement n must be positive")
    U = js.basis
    floored = np.floor(n * js.eigenvalues)
    return CommutingTuple([(U * floored[:, k]) @ U.conj().T for k in range(js.d)])
