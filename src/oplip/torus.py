"""Matrix-valued signals on uniform torus grids and their Fourier multipliers.

Frequency convention: a grid of N points per axis carries frequencies k with
each coordinate in (-ceil(N/2), floor(N/2)] (array index m maps to m for
m <= N//2 and to m - N beyond).  A signal is W(t) = sum_k W_k e^{i<k,t>}
sampled at t_m = 2*pi*m/N, and the torus carries total Haar measure 2*pi per
axis, so one grid cell has volume (2*pi/N)^D.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, DomainError, GuardViolationError, NonFiniteError
from .norms import SingularValueProfile, _sorted_weak_l1, schatten_norm, weak_l1
from .spectral import _binary_exponents, evaluate_rows

TWO_PI = 2.0 * np.pi
# Samples per block of the periodization probe: whole rows, 1 MB of real
# squares.  At D = 2, l = 16 (m = 2608) a block is 50 rows; the narrower centre
# block gives a weaker lower bound than a 512-row slab, so about 2.6x more
# values reach the final sort there, yet 2^14 or 2^15 samples per block were
# slower.  D = 1 has at most PROBE_MAX_POINTS rows, so it is always one block.
PROBE_BLOCK_SAMPLES = 2**17
# Certificate margin of the probe's squares route: when the largest
# coefficient outweighs the rest by sqrt(PROBE_THETA) sum |c|, every sample's
# square is at least PROBE_THETA times the square of its term-modulus sum, so
# its root's relative error stays below (K + a + 5) 2^-53 / PROBE_THETA (see
# periodization_probe); any other signal is sampled by the complex product.
# At most about 1e-2: the lattice probe signals certify (margin 0.2 against
# sum |c| = 1.8) only while sqrt(PROBE_THETA) <= 0.11.
PROBE_THETA = 1e-2
PROBE_MAX_POINTS = 12288  # cap on the probe's midpoints per axis
_SQUARE_NORM_LO, _SQUARE_NORM_HI = 2.0**-960, 2.0**960  # symbol rows outside are rescaled
_FIBER_NORM_LO, _FIBER_NORM_HI = 2.0**-500, 2.0**500  # 2 x 2 fibers outside are rescaled
# 2 x 2 fibers per pass of the closed form.  Its work rows (``_GramWork``) are
# then 32-256 kB each, about 1 MB in all, reused from block to block; with 2^16
# fibers its temporaries were 0.5-4 MB, went back to the OS after every call
# and were faulted in again.  Measured on a 2-core x86-64 host (numpy 2.4): one call on
# 16,384 fibers took 736 minor page faults and 2.0-2.8 ms at 2^16, none and
# 0.7-0.9 ms at 2^13, 0.7-1.0 ms at 2^12, 0.8-1.1 ms at 2^11 and 1.0-1.6 ms at
# 2^10; one de Leeuw operation (d = 1, N = 32, 64, 128) took about 2,000 faults
# and 8-13 ms at 2^16, 16 faults and 4.3-5.7 ms at 2^12.
FIBER_BLOCK = 2**12


@dataclass
class TorusSignal:
    """n x n matrix fibers on a uniform N^D grid of the D-torus."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim < 3:
            raise DimMismatchError("samples must have shape (N,)*D + (n, n)")
        if self.samples.shape[-1] != self.samples.shape[-2]:
            raise DimMismatchError("fibers must be square matrices")
        grid_shape = self.samples.shape[:-2]
        if len(set(grid_shape)) != 1:
            raise DimMismatchError(f"grid must be uniform, got {grid_shape}")
        if self.samples.size == 0:
            raise DimMismatchError(f"grid and fibers must be nonempty, got {self.samples.shape}")

    @property
    def torus_dim(self) -> int:
        return self.samples.ndim - 2

    @property
    def grid_size(self) -> int:
        return self.samples.shape[0]

    @property
    def fiber_dim(self) -> int:
        return self.samples.shape[-1]

    @property
    def grid_axes(self):
        return tuple(range(self.torus_dim))


def frequencies(n: int) -> np.ndarray:
    """Frequency of each array index: m for m <= n//2, else m - n."""
    k = np.arange(n)
    return np.where(k <= n // 2, k, k - n)


def frequency_index(k, n: int):
    """Array index of an integer frequency vector in the balanced range."""
    k = np.atleast_1d(np.asarray(k, dtype=int))
    half_lo, half_hi = -((n + 1) // 2), n // 2
    if np.any(k <= half_lo) or np.any(k > half_hi):
        raise DomainError(f"frequency {k} outside the balanced range for N={n}")
    return tuple(int(c) % n for c in k)


def coefficients(w: TorusSignal) -> np.ndarray:
    """Fourier coefficient tensor: index m holds the coefficient of e_{k(m)}.

    A NaN or infinite sample raises NonFiniteError before the FFT.
    """
    if not np.all(np.isfinite(w.samples)):
        raise NonFiniteError("signal samples must be finite")
    n_grid = w.grid_size
    return np.fft.fftn(w.samples, axes=w.grid_axes) / n_grid**w.torus_dim


def signal_from_coefficients(coeffs) -> TorusSignal:
    coeffs = np.asarray(coeffs, dtype=complex)
    n_grid = coeffs.shape[0]
    d_torus = coeffs.ndim - 2
    samples = np.fft.ifftn(coeffs * n_grid**d_torus, axes=tuple(range(d_torus)))
    return TorusSignal(samples)


def _trig_polynomial(freqs, fibers, grid_size: int) -> TorusSignal:
    """Samples of sum_j F_j e^{i<k_j, t>} on the N^D grid, from per-axis phase tables.

    ``freqs`` is a (J, D) table of integer frequencies, each in the balanced
    range (else DomainError), and ``fibers`` the (J, n, n) stack of F_j; a
    repeated frequency adds its fibers.  Axis a has the phase table
    E_a[m, j] = e^{2 pi i (m k_ja mod N) / N}, reduced before the exp so the
    samples are exactly periodic, and the grid is E_0 @ (E_1 (x) ... (x) F),
    the product over j of the later axes' tables and the fibers, in one
    matmul: J N^D n^2 products where a dense coefficient tensor takes an FFT.
    """
    fibers = np.asarray(fibers, dtype=complex)
    left, right = _trig_factors(freqs, fibers, grid_size)
    samples = left @ right
    return TorusSignal(samples.reshape((grid_size,) * np.shape(freqs)[1] + fibers.shape[1:]))


def _trig_factors(freqs, fibers, grid_size: int, out=None):
    """(E_0, E_1 (x) ... (x) F), whose matmul is the samples; ``out`` takes the second."""
    freqs = np.asarray(freqs, dtype=int)
    fibers = np.asarray(fibers, dtype=complex)
    n_terms, d_torus = freqs.shape
    for k in freqs:
        frequency_index(k, grid_size)
    steps = np.multiply.outer(np.arange(grid_size), freqs) % grid_size  # (N, J, D)
    phases = np.exp((1j * TWO_PI / grid_size) * steps)
    right = fibers.reshape(n_terms, -1)
    for axis in range(d_torus - 1, 0, -1):  # (J, N^(D-1) n^2), the last axis innermost
        into = None if out is None or axis > 1 else out.reshape(n_terms, grid_size, -1)
        right = np.multiply(phases[:, :, axis].T[:, :, np.newaxis], right[:, np.newaxis],
                            out=into).reshape(n_terms, -1)
    return phases[:, :, 0], right


def smoothing_eval(u):
    """The smoothing function: u on [1/2, 1], a smooth bump keeping it >= 1/3 below.

    For u < 1/2 the value is u + exp(1 - 1/(1 - (2u)^2)) / 3; the bump vanishes
    to all orders at u = 1/2 and equals 1/3 at u = 0.  NaN raises NonFiniteError.
    """
    out = np.array(u, dtype=float)
    if not np.all((out >= 0.0) & (out <= 1.0)):
        error = NonFiniteError if np.any(np.isnan(out)) else DomainError
        raise error("smoothing function is defined on [0, 1] only")
    low = out < 0.5
    if np.any(low):
        arg = out[low]
        t = 1.0 - (2.0 * arg) ** 2
        with np.errstate(divide="ignore"):
            bump = np.exp(1.0 - 1.0 / t) / 3.0
        out[low] = arg + bump
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HomogeneousSymbol:
    """Degree-0 homogeneous symbol t -> t_{k0} t_{d+1} / smoothing(sum_{k<=d} t_k^2).

    Arguments are normalized to the unit sphere first, so g(c t) = g(t) for
    every c != 0 at every finite scale (see :func:`symbol_eval`); the value
    at 0 is defined as 0.  k0 is 1-based and d is the number of leading
    coordinates (the symbol lives on R^{d+1}).
    """

    d: int
    k0: int

    def __post_init__(self):
        if not 1 <= self.k0 <= self.d:
            raise DomainError(f"k0 = {self.k0} outside 1..{self.d}")

    def __call__(self, t):
        return symbol_eval(self, t)


def _square_norms(rows: np.ndarray) -> np.ndarray:
    """c_0^2 + c_1^2 + ... added left to right over the columns of a (K, m) table.

    Column by column, not ``np.sum(rows * rows, axis=-1)``: a numpy reduction
    over a short last axis runs one inner loop per row."""
    cols = rows.T
    n2 = cols[0] * cols[0]
    for c in cols[1:]:
        n2 += c * c
    return n2


def symbol_eval(g: HomogeneousSymbol, t):
    """Evaluate the homogeneous symbol on a table of points (..., d+1) -> (...).

    The table is read column by column: n^2 = c_0^2 + c_1^2 + ... left to
    right, u = sum_{k<d} (c_k / n)^2 and the value (c_{k0} / n)(c_d / n) /
    smoothing(u).  A row whose n^2 is 0, not finite or outside
    [2^-960, 2^960] is odd: a NaN or infinite coordinate there raises
    NonFiniteError, and otherwise the row is first scaled by the power of two
    that brings its largest |coordinate| into [1/2, 1).  That scaling is
    exact, so no square overflows or underflows and g(c t) = g(t) holds for
    every finite c != 0; a zero row gives 0.
    """
    pts = np.asarray(t, dtype=float)
    if pts.shape[-1] != g.d + 1:
        raise DimMismatchError(f"points must have {g.d + 1} coordinates")
    rows = pts.reshape(-1, g.d + 1)
    with np.errstate(over="ignore"):
        n2 = _square_norms(rows)
    odd = np.flatnonzero(~((n2 >= _SQUARE_NORM_LO) & (n2 <= _SQUARE_NORM_HI)))
    if odd.size:
        wild = rows[odd]
        e = _binary_exponents(wild)
        if np.any(e):  # e = 0 only on zero rows, which need no scaling
            rows = rows.copy()
            rows[odd] = np.ldexp(wild, -e[:, np.newaxis])
            n2[odd] = _square_norms(rows[odd])
    cols = rows.T
    safe = np.where(n2 > 0, np.sqrt(n2), 1.0)
    u = np.square(cols[0] / safe)
    for c in cols[1 : g.d]:
        u += np.square(c / safe)
    np.clip(u, 0.0, 1.0, out=u)
    vals = (cols[g.k0 - 1] / safe) * (cols[g.d] / safe) / smoothing_eval(u)
    return np.where(n2 > 0, vals, 0.0).reshape(pts.shape[:-1])


def _multiplier_tensor(m, grid_size: int, torus_dim: int) -> np.ndarray:
    """Evaluate a lattice symbol on the whole frequency grid."""
    mesh = np.meshgrid(*([frequencies(grid_size)] * torus_dim), indexing="ij")
    return evaluate_rows(m, np.stack(mesh, axis=-1))


def _multiplied(coeffs, table) -> TorusSignal:
    """The signal whose coefficient of e_k is coeffs[k] * table[k]."""
    return signal_from_coefficients(coeffs * table[..., np.newaxis, np.newaxis])


def fourier_multiplier_apply(m, w: TorusSignal) -> TorusSignal:
    """Multiply the coefficient of e_k by m(k); fibers are only scaled.

    ``m`` (a HomogeneousSymbol or any callable) follows the table contract of
    :func:`~oplip.spectral.evaluate_rows`: it takes the whole (..., D) table of
    integer frequencies as floats and returns the multiplier values (...).
    """
    return _multiplied(coefficients(w), _multiplier_tensor(m, w.grid_size, w.torus_dim))


def fejer(w: TorusSignal, n: int) -> TorusSignal:
    """Fejer mean: coefficient of e_l scaled by prod_j max(0, 1 - |l_j|/(n+1)).

    This is the closed form of averaging the rectangular partial sums S_k over
    0 <= k <= (n, ..., n).
    """
    if n < 0:
        raise DomainError("Fejer order must be nonnegative")
    damp = lambda k: np.prod(np.maximum(0.0, 1.0 - np.abs(k) / (n + 1.0)), axis=-1)
    return fourier_multiplier_apply(damp, w)


def _square_moduli(z: np.ndarray, out=None, parts=None) -> np.ndarray:
    """re^2 + im^2 of a complex array, read through its float view (strided parts are slow).

    ``parts`` (the squared float view, twice z's length) and ``out`` may be given.
    """
    parts = np.square(np.ascontiguousarray(z).view(float), out=parts)
    return np.add(parts[..., 0::2], parts[..., 1::2], out=out)


class _GramWork:
    """Rows for the 2 x 2 closed form on up to ``size`` fibers, reused block to block.

    A pass of the closed form writes every temporary and result into these
    rows, so it allocates nothing; a caller that keeps one between calls
    faults no pages in after its first.
    """

    def __init__(self, size):
        self.x = np.empty((4, size), dtype=complex)  # rows a, b, c, d
        self.parts = np.empty((4, 2 * size))
        self.sq = np.empty((4, size))
        self.real = np.empty((6, size))
        self.complex = np.empty((2, size), dtype=complex)


def _gram_closed_form(x, work=None):
    """s1, s2 and ||M||_F^2 of the 2 x 2 fibers [[a, b], [c, d]] in the rows a, b, c, d of x.

    All three are rows of ``work`` (a fresh ``_GramWork`` by default).
    """
    m = x.shape[1]
    work = _GramWork(m) if work is None else work
    sq = _square_moduli(x, out=work.sq[:, :m], parts=work.parts[:, :2 * m])
    p, r, frob2, h, s1, s2 = work.real[:, :m]
    z, t = work.complex[:, :m]
    np.add(sq[0], sq[2], out=p)
    np.add(sq[1], sq[3], out=r)
    np.add(p, r, out=frob2)
    np.multiply(np.conjugate(x[0], out=z), x[1], out=z)
    z += np.multiply(np.conjugate(x[2], out=t), x[3], out=t)
    np.subtract(p, r, out=h)
    h *= 0.5
    np.multiply(h, h, out=s1)
    s1 += _square_moduli(z, out=s2, parts=work.parts[0, :2 * m])
    np.sqrt(s1, out=s1)
    s1 += np.multiply(frob2, 0.5, out=s2)
    np.sqrt(s1, out=s1)
    np.subtract(np.multiply(x[0], x[3], out=z), np.multiply(x[1], x[2], out=t), out=z)
    np.abs(z, out=s2)
    np.divide(s2, s1, out=s2, where=s1 > 0.0)
    np.minimum(s2, s1, out=s2)
    return s1, s2, frob2


def _fiber_singular_values(samples: np.ndarray, out=None, work=None) -> np.ndarray:
    """Singular values (F, n) of the F fibers of a (..., n, n) stack.

    The method depends on the fiber size n:

    - n = 1: the moduli of the samples, which is the exact 1 x 1 SVD.
    - n = 2: a closed form for [[a, b], [c, d]] through the Gram matrix
      M^* M = [[p, z], [conj(z), r]], with p = |a|^2 + |c|^2,
      r = |b|^2 + |d|^2 and z = conj(a) b + conj(c) d:
      s1 = sqrt((p + r)/2 + sqrt(((p - r)/2)^2 + |z|^2)) and
      s2 = min(|ad - bc| / s1, s1), with |x|^2 taken as re^2 + im^2.  A
      fiber whose ||M||_F^2 = p + r lies in [2^-500, 2^500] is used as it is:
      h^2 and |z|^2 stay below 2^1000, and an underflowed square is far below
      eps * s1^2.  Only the other fibers (zero, tiny, huge) are scaled first by
      a power of two just above their largest |entry|, which is exact, and go
      through the same form, so each fiber's values depend on that fiber alone.
      Every term under the roots of s1 is nonnegative, so s1 has a small
      relative error, and s2 an absolute error of a few eps * s1.  The
      textbook s2^2 = (||M||_F^2 - sqrt(||M||_F^4 - 4 |det M|^2)) / 2 is not
      used: it cancels when s1 ~ s2 and loses about half the digits there.
      The Gram form is a few array passes over ``FIBER_BLOCK`` fibers at a
      time, where a batched LAPACK SVD makes one call per fiber.  Every pass
      writes into the rows of one ``_GramWork`` (``work``, or a fresh one of
      at most a block), whatever F is.
    - n >= 3: ``np.linalg.svd``.

    The n = 2 values are written into ``out`` when it is given.
    """
    n = samples.shape[-1]
    stack = samples.reshape(-1, n, n)
    if n == 1:
        return np.abs(stack[:, :, 0])
    if n > 2:
        return np.linalg.svd(stack, compute_uv=False)
    n_fibers = stack.shape[0]
    out = np.empty((n_fibers, 2)) if out is None else out
    work = _GramWork(min(n_fibers, FIBER_BLOCK)) if work is None else work
    for start in range(0, n_fibers, FIBER_BLOCK):
        block = slice(start, start + FIBER_BLOCK)
        x = work.x[:, :min(FIBER_BLOCK, n_fibers - start)]
        np.copyto(x, stack[block].reshape(-1, 4).T)  # rows a, b, c, d of [[a, b], [c, d]]
        with np.errstate(all="ignore"):
            s1, s2, frob2 = _gram_closed_form(x, work)
        odd = np.flatnonzero(~((frob2 >= _FIBER_NORM_LO) & (frob2 <= _FIBER_NORM_HI)))
        if odd.size:
            wild = x[:, odd]
            # 2^-e with max |entry| < 2^e scales exactly; e >= -1021 keeps 2^-e finite.
            _, e = np.frexp(np.max(np.abs(wild), axis=0))
            np.maximum(e, -1021, out=e)
            wild *= np.ldexp(1.0, -e)
            # Scaled, s1 >= max |entry| >= 2^-53, so an underflow is far below eps * s1.
            with np.errstate(under="ignore"):
                s1[odd], s2[odd] = np.ldexp(_gram_closed_form(wild)[:2], e)
        out[block, 0], out[block, 1] = s1, s2
    return out


def signal_norms(w: TorusSignal):
    """(L1, L2, weak-L1) of the signal over its grid measure.

    A NaN or infinite sample raises NonFiniteError before any SVD.
    """
    if not np.all(np.isfinite(w.samples)):
        raise NonFiniteError("signal samples must be finite")
    profile = SingularValueProfile(_fiber_singular_values(w.samples),
                                   (TWO_PI / w.grid_size) ** w.torus_dim)
    return schatten_norm(profile, 1), schatten_norm(profile, 2), weak_l1(profile)


@dataclass(frozen=True)
class PeriodizationResult:
    """Probe output; the quadrature step and truncation bound are never hidden."""

    ratio: float
    weak_ratio: float
    truncation_bound: float
    step: float
    points_per_axis: int


def _cancellation_free(table) -> bool:
    """True when one coefficient outweighs the rest by sqrt(PROBE_THETA) * sum |c|.

    Then |W| >= |c_max| - sum_others |c| >= sqrt(PROBE_THETA) * sum |c| at
    every point, so no weighted sample's square falls below PROBE_THETA times
    the square of its term-modulus sum, and the probe may take the squares.
    """
    moduli = np.abs(table)
    total = float(np.sum(moduli))
    return 2.0 * float(np.max(moduli)) - total >= math.sqrt(PROBE_THETA) * total


def _reference_norms(table, k_x, k_y, d_torus):
    """(L1, weak-L1) of |E_x C E_y|, the complex product, on 512 points (D = 1) or 256^2."""
    n_ref = 512 if d_torus == 1 else 256
    t = np.arange(n_ref) * (TWO_PI / n_ref)
    t_y = t if d_torus == 2 else np.zeros(1)
    samples = np.exp(1j * np.multiply.outer(t, k_x)) @ (
        table @ np.exp(1j * np.multiply.outer(k_y, t_y)))
    ref = SingularValueProfile(np.abs(samples), (TWO_PI / n_ref) ** d_torus)
    return schatten_norm(ref, 1), weak_l1(ref)


def _probe_sampler(table, k_x, k_y, l, r, m, d_torus):
    """rows -> the weighted samples |W(x, y)| w(x) w(y) on those rows of the probe's grid.

    The grid is the m midpoints x = -R + (i + 1/2) step per axis, step = 2R/m
    (y = 0 with weight 1 for D = 1), and w is G_l times step in units of l:
    u = (i + 1/2)(step/l) - R/l and w = e^{-u^2/2} (step/l) / sqrt(2 pi).
    With R_a(y) = w(y) sum_b C_ab e^{i k_b y}, the sample's square is
    w(x)^2 (sum_a |R_a|^2 + 2 Re sum_{delta > 0} e^{i delta x} Q_delta), where
    Q_delta sums R_a conj(R_b) over k_a - k_b = delta: one real product of an
    (m, K) table of w^2, w^2 cos(delta x), -w^2 sin(delta x) and a (K, m)
    table of sum |R_a|^2, 2 Re Q_delta, 2 Im Q_delta, K = 1 + 2 (number of
    deltas), whose root is taken in place.  Unless ``_cancellation_free``
    holds, the samples are instead the moduli of the complex product
    sum_a w(x) e^{i k_a x} R_a(y), which keep their accuracy near zeros of W.
    """
    step = 2.0 * r / m
    s = step / l
    u = (np.arange(m) + 0.5) * s - r / l
    weight = np.exp(-0.5 * u * u) * (s / math.sqrt(TWO_PI))
    x = -r + (np.arange(m) + 0.5) * step
    y, weight_y = (x, weight) if d_torus == 2 else (np.zeros(1), np.ones(1))
    right = (table @ np.exp(1j * np.multiply.outer(k_y, y))) * weight_y  # rows R_a(y)
    if not _cancellation_free(table):
        left = np.exp(1j * np.multiply.outer(x, k_x)) * weight[:, np.newaxis]
        return lambda rows: np.abs(left[rows] @ right)
    index = {int(k): a for a, k in enumerate(k_x)}
    deltas = sorted({p - q for p in index for q in index if p > q})  # np.unique imports numpy.ma
    right_sq = np.empty((1 + 2 * len(deltas), y.size))
    right_sq[0] = np.sum(_square_moduli(right), axis=0)
    for t, delta in enumerate(deltas):
        pairs = [(a, index[p - delta]) for p, a in index.items() if p - delta in index]
        ia, ib = np.array(pairs).T
        q = np.sum(right[ia] * np.conjugate(right[ib]), axis=0)
        np.multiply(q.real, 2.0, out=right_sq[1 + 2 * t])
        np.multiply(q.imag, 2.0, out=right_sq[2 + 2 * t])
    w2 = weight * weight
    phase = np.multiply.outer(x, deltas)
    left_sq = np.ones((m, right_sq.shape[0]))  # columns 1, cos(delta x), -sin(delta x)
    np.cos(phase, out=left_sq[:, 1::2])
    np.negative(np.sin(phase, out=left_sq[:, 2::2]), out=left_sq[:, 2::2])
    left_sq *= w2[:, np.newaxis]

    def sample(rows):
        block = left_sq[rows] @ right_sq
        return np.sqrt(block, out=block)
    return sample


def periodization_probe(w: TorusSignal, l: float, r: float, h: float) -> PeriodizationResult:
    """Gaussian-weighted periodization of a scalar trig polynomial.

    Integrates |per(W)(t)| G_l(t) over [-R, R]^D by the midpoint rule and
    returns the ratio against (2*pi)^{-D} ||W||_{L1(T^D)}, together with the
    analogous weak-L1 ratio (reported as data; no constant is asserted).
    More than ``PROBE_MAX_POINTS`` midpoints per axis, or a step wider than
    16l (one midpoint across the narrowest window 2R = 16l), raise
    ``GuardViolationError`` before any grid is built.

    The coefficients above 1e-13 max |c| form an a x b table C over the
    frequencies k_x, k_y in use (b = 1 and k_y = 0 for D = 1, whose y axis
    is the single point 0 with weight 1), divided by the power of two just
    above max |c|: that is exact, keeps every |W| below sum |c| < a b (so
    no square overflows at any scale), and cancels in both ratios.  The
    torus norms are those of |E_x C E_y| on 512 points (D = 1) or 256^2, a
    complex product (``_reference_norms``).  The m^D weighted
    samples |W| w(x) w(y), with w = G_l step taken in units of l (so no cell
    is formed and the sums use cell 1), come from ``_probe_sampler``: the
    square of each is one real product over K <= 2a - 1 columns and its root
    is taken in place.  The product's terms add up in modulus to at most
    sqrt(2) S^2, S = w(x) sum_a |R_a(y)| (R_a as in ``_probe_sampler``), so
    a computed square is off by at most about (K + a + 5) u sqrt(2) S^2,
    u = 2^-53, and where the true square is at least PROBE_THETA S^2 its
    root's relative error is below (K + a + 5) u / PROBE_THETA: 1.7e-13 for
    a three-term signal (K <= 7, a <= 3).  Near a zero of W the square
    cancels, so this route is taken only when one coefficient certifies
    that every square is at least PROBE_THETA S^2 (``_cancellation_free``);
    any other signal's samples are the moduli of the complex product of
    the weighted x phases with the rows R_a (absolute error a few u S).  The
    samples are built in blocks of whole grid rows, about
    ``PROBE_BLOCK_SAMPLES`` each (the whole grid for D = 1, whose rows are
    single samples), and only those that can attain the weak-L1 maximum
    max_k k v_(k) are kept:

    - The centre block (the one holding row m//2, where the Gaussian peaks)
      comes first.  After its sum is taken, it is partitioned in place so
      its largest eighth sits at the end; their weak-L1 is a lower bound L.
    - Every block keeps only its values v >= tau = L / (m^D (1 + 1e-6)).
      A dropped value has k v < L for every k <= m^D (the 1e-6 slack covers
      rounding), so the maximum is attained among the kept values, which
      outrank every dropped one and keep their step indices k: the weak-L1
      is bitwise the full-pool value, however loose L is (L = 0 keeps
      everything).
    - The same argument runs again on the pool: a kept value ranks at most
      P = the pool's size, so values below L / (P (1 + 1e-6)) are dropped
      before the in-place sort, three times, each with the shrunken P.
    - Each block's sum is stored and the sums are added in row order, so the
      integral is bitwise independent of the visiting order; it does depend
      on the block shape, because ``np.sum`` is pairwise within a block.
    """
    d_torus = w.torus_dim
    if w.fiber_dim != 1:
        raise DimMismatchError("periodization probe expects a scalar signal")
    if d_torus > 2:
        raise GuardViolationError("probe supports D <= 2")
    if not 0.0 < l < math.inf:
        raise GuardViolationError(f"Gaussian width must satisfy 0 < l < inf, got l={l}")
    if not r >= 8.0 * l:
        raise GuardViolationError(f"truncation radius must satisfy R >= 8l, got R={r}, l={l}")
    if not 0.0 < h <= TWO_PI / 64.0:
        raise GuardViolationError("step must satisfy 0 < h <= 2*pi/64")
    points = 2.0 * r / h
    if not points <= PROBE_MAX_POINTS:
        raise GuardViolationError(
            f"2R/h = {points:.6g} midpoints per axis exceed the cap {PROBE_MAX_POINTS}"
        )
    m = int(math.ceil(points))
    step = 2.0 * r / m
    if not step <= 16.0 * l:
        raise GuardViolationError(f"step 2R/m = {step:.6g} must not exceed 16l = {16.0 * l:.6g}")

    flat = coefficients(w)[..., 0, 0].reshape(w.grid_size, -1)
    c_max = float(np.max(np.abs(flat)))
    if c_max == 0.0:
        raise DomainError("probe requires a nonzero signal")
    flat[np.abs(flat) <= 1e-13 * c_max] = 0.0
    used_x, used_y = np.any(flat, axis=1), np.any(flat, axis=0)
    k_x = frequencies(flat.shape[0])[used_x]
    k_y = frequencies(flat.shape[1])[used_y]
    table = flat[np.ix_(used_x, used_y)]
    sup = max(float(np.sum(np.abs(table))), 1e-300)
    table = np.ldexp(table.view(float), -math.frexp(c_max)[1]).view(complex)

    ref_l1, ref_weak = _reference_norms(table, k_x, k_y, d_torus)
    sample = _probe_sampler(table, k_x, k_y, l, r, m, d_torus)
    columns = m if d_torus == 2 else 1
    block_rows = max(1, PROBE_BLOCK_SAMPLES // columns)
    starts = range(0, m, block_rows)
    centre = (m // 2) // block_rows
    sums = [0.0] * len(starts)
    kept = []
    tau = None
    for index in [centre] + [i for i in range(len(starts)) if i != centre]:
        block = sample(slice(starts[index], starts[index] + block_rows))
        sums[index] = float(np.sum(block))
        if tau is None:  # the centre block: L from its top eighth, partitioned in place
            block = block.reshape(-1)
            top = block.size - max(block.size // 8, 1)
            block.partition(top)
            lower = weak_l1(SingularValueProfile(block[top:]))
            tau = lower / (m**d_torus * (1.0 + 1e-6))
        kept.append(block[block >= tau])
        del block
    del sample  # its tables go before the pool is concatenated
    integral = 0.0
    for block_sum in sums:  # not sum(): it is compensated from Python 3.12
        integral += block_sum
    pooled = np.concatenate(kept)
    del kept
    for _ in range(3):  # each kept value ranks at most pooled.size in the full pool
        pooled = pooled[pooled >= lower / (pooled.size * (1.0 + 1e-6))]
    weak = _sorted_weak_l1(pooled, 1.0)

    tail = d_torus * math.erfc(r / (l * math.sqrt(2.0)))
    return PeriodizationResult(
        ratio=integral / (ref_l1 / TWO_PI**d_torus),
        weak_ratio=weak / (ref_weak / TWO_PI**d_torus),
        truncation_bound=float(sup * tail),
        step=step,
        points_per_axis=m,
    )
