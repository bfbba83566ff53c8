"""Torus embedding of commuting tuples with integer spectra.

For an integer function f on Z^d, the unitary

    U_f(t) = sum_i p_i e^{i <(i, f(i)), t>}

(product spectral projections p_i times characters) embeds a matrix V as the
signal I(V)(t) = U_f(t) V U_f(t)^*.  Entry (i, j) of V in the joint eigenbasis
sits at the frequency (lambda_i - lambda_j, f(lambda_i) - f(lambda_j)), which
is 0 exactly when rows i and j share a joint eigenvalue.  So the lattice
multiplier g(nabla) of the homogeneous symbol g, with g(0) = 0, is itself the
off-diagonal compression on I(V), and S = g(nabla) turns the double operator
integral with the divided-difference symbol into a Fourier multiplier:
S(I(V)) = I(T(V)) exactly, on any aliasing-free grid.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AliasRiskError,
    DimMismatchError,
    DomainError,
    GuardViolationError,
    integer_at_least,
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
    _square_norms,
    signal_from_coefficients,
)

INTEGER_GATE = 1e-9
SCAN_BUDGET = 1 << 30  # pair comparisons one contraction_check may make
VALUE_LIMIT = 2.0**62  # |h| below it keeps h - min h and its span inside int64


@dataclass
class IntegerTuple:
    """A joint spectrum whose eigenvalues are the integers of ``table``."""

    spectrum: JointSpectrum  # the rounded table as floats, checked by the reconstruction gate
    table: np.ndarray  # rounded integer eigenvalues, shape (n, d)

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def d(self) -> int:
        return self.spectrum.d


def integer_tuple(source) -> IntegerTuple:
    """Validate integer spectra and keep the rounded table as the spectrum.

    An eigenvalue of modulus ``VALUE_LIMIT`` or more raises DomainError before
    the ``int64`` table is built, as for lattice values of h.
    """
    js = joint_diagonalize(source) if isinstance(source, CommutingTuple) else source
    top = float(np.max(np.abs(js.eigenvalues))) if js.eigenvalues.size else 0.0
    if top >= VALUE_LIMIT:
        raise DomainError(f"an eigenvalue reaches {top:.3e}, at or past 2^62")
    rounded = np.round(js.eigenvalues)
    dev = float(np.max(np.abs(js.eigenvalues - rounded))) if js.eigenvalues.size else 0.0
    if dev > INTEGER_GATE:
        raise DomainError(
            f"eigenvalues deviate from integers by {dev:.3e} (gate {INTEGER_GATE:.1e})"
        )
    table = rounded.astype(np.int64)
    return IntegerTuple(spectrum=JointSpectrum(js.basis, table.astype(float), js.provenance),
                        table=table)


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
    """The (side^d, d) integer points of the radius box in row-major order, C-contiguous.

    Each coordinate column is broadcast into place: a transposed copy of
    ``np.indices`` costs about twice as long at d = 2.
    """
    side = 2 * radius + 1
    points = np.empty((side,) * d + (d,), dtype=np.int64)
    axis = np.arange(-radius, radius + 1)
    for k in range(d):
        points[..., k] = axis.reshape((side,) + (1,) * (d - 1 - k))
    return points.reshape(-1, d)


def _integer_values(h, points) -> np.ndarray:
    """h on a table of lattice points as ``int64``, or DomainError.

    h must be finite (else NonFiniteError), below ``VALUE_LIMIT`` in modulus
    and within ``INTEGER_GATE`` of an integer everywhere.  The bound on |h|
    comes from ``raw.min()`` and ``raw.max()``, and the deviation from the
    integers is computed only when rounding moves some value: each numpy pass
    over the table is a visible share of a certificate-settled contraction
    check.
    """
    raw = evaluate_rows(h, points)
    top = max(-float(raw.min()), float(raw.max()))
    if top >= VALUE_LIMIT:
        raise DomainError(f"|h| reaches {top:.3e}, at or past 2^62")
    rounded = np.round(raw)
    if not np.array_equal(rounded, raw) and np.max(np.abs(raw - rounded)) > INTEGER_GATE:
        raise DomainError("h must be integer-valued on the lattice")
    return rounded.astype(np.int64)


def _difference_dtype(span: int):
    """The narrowest signed integer type that holds every value in [-span, span]."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if span <= np.iinfo(t).max)


def contraction_check(h, box_radius: int, d: int,
                      report_margin: bool = True) -> ContractionReport:
    """Test |h(i) - h(j)| <= |i - j|_2 over every pair of a lattice box, in any d.

    Each pair is (x, x + delta) with delta lexicographically positive, and
    |i - j| depends on delta alone, so one slice difference dH of the value
    grid H = h(box) - min h(box) per delta covers every pair at that delta.
    H is kept in the narrowest signed integer type that holds +-span (span =
    max H; int8 for every rounded contraction at radius 30).

    King-step certificate: with ``report_margin`` off, the (3^d - 1)/2
    deltas with |delta|_inf = 1 come first.  If none jumps by more than 1, h
    is a contraction: a king path between two box points has |x - y|_inf
    steps and stays in the box, so |h(x) - h(y)| <= |x - y|_inf <=
    |x - y|_2, and ``(True, None, -inf)`` is returned.  Otherwise, and for
    margins, every delta is scanned: for d <= 3 a king jump >= 2 is a
    violation, but in d >= 4 a jump of 2 along (1, 1, 1, 1) is not.  Each
    phase builds slices only for the per-axis offsets c it reads: 3 for the
    certificate (|c| <= 1), and 2 reach + 1 for the scan (|c| <= reach, the
    pruning radius below capped at side - 1), never the 2 side - 1 of the
    whole box unless the scan reaches its edge.

    The verdict compares each max |dH| with the integer square root of
    |delta|^2, so it is exact at every span (|h| >= 2^62 raises DomainError,
    which keeps H and the span in int64); the margin is the float max of
    max |dH| - |delta|.  Exact pruning skips |delta|^2 >= span^2 (no
    violation) and, for margins, |delta| > max(span, 1) (margin < 0).  The
    pair reported is (x, x + delta), x the first argmax in delta's overlap,
    smallest in row-major (index x, index x + delta) over the deltas tied on
    the margin.  With ``report_margin`` off a pass returns ``(True, None,
    -inf)``.  A box of over ``SCAN_BUDGET`` pairs raises DomainError.
    """
    d = integer_at_least("dimension d", d, 1)
    box_radius = integer_at_least("box radius", box_radius, 1)
    side = 2 * box_radius + 1
    if side**d * (side**d - 1) // 2 > SCAN_BUDGET:
        raise DomainError(f"the radius-{box_radius} box in d={d} has more than "
                          f"SCAN_BUDGET = {SCAN_BUDGET} pairs")
    points = _box_points(box_radius, d)
    values = _integer_values(h, points)
    span = int(values.max() - values.min())
    grid = (values - values.min()).astype(_difference_dtype(span)).reshape((side,) * d)

    def cuts(reach):
        """cut[c], |c| <= reach: the x with x + c in the box along one axis.

        Listed over [0..reach, -reach..-1], so cut[-c] reads the entry for -c
        and x + c runs over cut[-c].
        """
        return [slice(max(0, -c), side - max(0, c)) for c in [*range(reach + 1),
                                                               *range(-reach, 0)]]

    def step(cut, delta):
        lo = tuple(map(cut.__getitem__, delta))
        return lo, np.abs(grid[tuple(cut[-c] for c in delta)] - grid[lo])

    if not report_margin:
        cut = cuts(1)
        # the lexicographically positive king steps
        king = list(itertools.product((-1, 0, 1), repeat=d))[3**d // 2 + 1:]
        if all(step(cut, delta)[1].max() <= 1 for delta in king):
            return ContractionReport(True, None, -np.inf)
    reach2 = max(span, 1) ** 2 if report_margin else max(span * span - 1, 0)
    reach = min(math.isqrt(reach2), side - 1)
    cut = cuts(reach)
    deltas = _box_points(reach, d)
    deltas = deltas[deltas.shape[0] // 2 + 1:]  # lexicographically positive
    dist2 = _square_norms(deltas)  # by integer columns, exact in int64
    deltas, dist2 = deltas[dist2 <= reach2], dist2[dist2 <= reach2]
    jump = np.array([step(cut, delta)[1].max() for delta in deltas.tolist()], dtype=np.int64)
    ok = bool(np.all(jump <= [math.isqrt(q) for q in dist2.tolist()]))
    if ok and not report_margin:
        return ContractionReport(True, None, -np.inf)
    margins = jump - np.sqrt(dist2.astype(float))
    worst = float(margins.max())
    pairs = []
    for delta in deltas[margins == worst].tolist():
        lo, dh = step(cut, delta)
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
    stack = np.zeros((len(keys), n * n), dtype=complex)
    stack[which.ravel(), np.arange(n * n)] = v_eig.ravel()
    U = it.spectrum.basis
    coeffs = np.zeros((grid_size,) * (it.d + 1) + (n, n), dtype=complex)
    coeffs[tuple((keys % grid_size).T)] = U @ stack.reshape(-1, n, n) @ U.conj().T
    return signal_from_coefficients(coeffs)


def _check_contraction_on_box(it: IntegerTuple, f):
    radius = max(int(np.max(np.abs(it.table))), 1)
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
    right = _in_eigenbasis(it, doi_apply(it.spectrum, symbol, as_matrix(v)))

    scale = TWO_PI ** ((it.d + 1) / 2.0)
    diff = scale * float(np.linalg.norm(left - right))
    return diff / (1.0 + scale * float(np.linalg.norm(right)))


class DiscretizationReport(NamedTuple):
    n: int
    identity_residual: float  # T_{xi_n}^{A,A}(V) against T_{(f^n)_1}^{A_n,A_n}(V)
    symbol_sup_difference: float  # sup over spectrum pairs of |xi_n - f_1/2|


def discretization_report(js: JointSpectrum, f, n: int) -> DiscretizationReport:
    """Compare the contraction-rounded discretized symbol against half the
    divided difference on the occupied spectrum, and check the floored-tuple
    identity with a test matrix drawn from seed 0, substream 0xD15C.

    xi_n(lambda, mu) = (f^n)_1(floor(n lambda), floor(n mu)); the sup
    difference against f_1/2 is reported as data (it shrinks as n grows).
    The identity's two sides take independent routes: the left applies xi_n
    in the basis of ``js``, the right applies (f^n)_1 to the floored tuple
    through its own joint diagonalization and integer table.
    """
    d = js.d
    hk = divided_difference_symbol(round_contraction(f, n), 1, d)
    xi_n = lambda lam, mu: hk.func(np.floor(n * lam), np.floor(n * mu))
    fk = divided_difference_symbol(f, 1, d)

    lam, mu = js.eigenvalues[:, None, :], js.eigenvalues[None, :, :]
    sup = float(np.max(np.abs(xi_n(lam, mu) - 0.5 * fk.func(lam, mu))))

    rng = generator(0, 0xD15C)
    nmat = js.dim
    v = rng.standard_normal((nmat, nmat)) + 1j * rng.standard_normal((nmat, nmat))
    lhs = doi_apply(js, Symbol(d=d, func=xi_n), v)
    rhs = doi_apply(integer_tuple(discretize_tuple(js, n)).spectrum, hk, v)
    residual = float(
        np.linalg.norm(lhs - rhs, "fro") / (1.0 + np.linalg.norm(rhs, "fro"))
    )
    return DiscretizationReport(n=n, identity_residual=residual,
                                symbol_sup_difference=sup)
