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

from .errors import DimMismatchError, DomainError, GuardViolationError
from .norms import SingularValueProfile, schatten_norm, weak_l1
from .spectral import evaluate_rows

TWO_PI = 2.0 * np.pi
PROBE_BLOCK_ROWS = 512  # grid rows per block of the D = 2 periodization probe
PROBE_MAX_POINTS = 12288  # cap on the probe's midpoints per axis


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
    """Fourier coefficient tensor: index m holds the coefficient of e_{k(m)}."""
    n_grid = w.grid_size
    return np.fft.fftn(w.samples, axes=w.grid_axes) / n_grid**w.torus_dim


def signal_from_coefficients(coeffs) -> TorusSignal:
    coeffs = np.asarray(coeffs, dtype=complex)
    n_grid = coeffs.shape[0]
    d_torus = coeffs.ndim - 2
    samples = np.fft.ifftn(coeffs * n_grid**d_torus, axes=tuple(range(d_torus)))
    return TorusSignal(samples)


def character_signal(torus_dim: int, grid_size: int, k, fiber=None) -> TorusSignal:
    """The signal fiber * e_k sampled on the grid (fiber defaults to scalar 1)."""
    if fiber is None:
        fiber = np.eye(1)
    fiber = np.asarray(fiber, dtype=complex)
    coeffs = np.zeros((grid_size,) * torus_dim + fiber.shape, dtype=complex)
    coeffs[frequency_index(k, grid_size)] = fiber
    return signal_from_coefficients(coeffs)


def smoothing_eval(u):
    """The smoothing function: u on [1/2, 1], a smooth bump keeping it >= 1/3 below.

    For u < 1/2 the value is u + exp(1 - 1/(1 - (2u)^2)) / 3; the bump vanishes
    to all orders at u = 1/2 and equals 1/3 at u = 0.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("smoothing function is defined on [0, 1] only")
    low = arr < 0.5
    out = arr.astype(float).copy()
    if np.any(low):
        t = 1.0 - (2.0 * arr[low]) ** 2
        with np.errstate(divide="ignore"):
            bump = np.exp(1.0 - 1.0 / t) / 3.0
        out[low] = arr[low] + bump
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HomogeneousSymbol:
    """Degree-0 homogeneous symbol t -> t_{k0} t_{d+1} / smoothing(sum_{k<=d} t_k^2).

    Arguments are normalized to the unit sphere first, so homogeneity holds by
    construction; the value at 0 is defined as 0.  k0 is 1-based and d is the
    number of leading coordinates (the symbol lives on R^{d+1}).
    """

    d: int
    k0: int

    def __post_init__(self):
        if not 1 <= self.k0 <= self.d:
            raise DomainError(f"k0 = {self.k0} outside 1..{self.d}")

    def __call__(self, t):
        return symbol_eval(self, t)


def symbol_eval(g: HomogeneousSymbol, t):
    """Evaluate the homogeneous symbol on a table of points (..., d+1) -> (...)."""
    pts = np.asarray(t, dtype=float)
    if pts.shape[-1] != g.d + 1:
        raise DimMismatchError(f"points must have {g.d + 1} coordinates")
    norms = np.linalg.norm(pts, axis=-1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = pts / safe[..., np.newaxis]
    u = np.clip(np.sum(unit[..., : g.d] ** 2, axis=-1), 0.0, 1.0)
    vals = unit[..., g.k0 - 1] * unit[..., g.d] / smoothing_eval(u)
    return np.where(norms > 0, vals, 0.0)


def _multiplier_tensor(m, grid_size: int, torus_dim: int) -> np.ndarray:
    """Evaluate a lattice symbol on the whole frequency grid."""
    mesh = np.meshgrid(*([frequencies(grid_size)] * torus_dim), indexing="ij")
    return evaluate_rows(m, np.stack(mesh, axis=-1))


def fourier_multiplier_apply(m, w: TorusSignal) -> TorusSignal:
    """Multiply the coefficient of e_k by m(k); fibers are only scaled.

    ``m`` (a HomogeneousSymbol or any callable) follows the table contract of
    :func:`~oplip.spectral.evaluate_rows`: it takes the whole (..., D) table of
    integer frequencies as floats and returns the multiplier values (...).
    """
    coeffs = coefficients(w)
    mult = _multiplier_tensor(m, w.grid_size, w.torus_dim)
    return signal_from_coefficients(coeffs * mult[..., np.newaxis, np.newaxis])


def fejer(w: TorusSignal, n: int) -> TorusSignal:
    """Fejer mean: coefficient of e_l scaled by prod_j max(0, 1 - |l_j|/(n+1)).

    This is the closed form of averaging the rectangular partial sums S_k over
    0 <= k <= (n, ..., n).
    """
    if n < 0:
        raise DomainError("Fejer order must be nonnegative")
    coeffs = coefficients(w)
    freqs = frequencies(w.grid_size)
    damp_1d = np.maximum(0.0, 1.0 - np.abs(freqs) / (n + 1.0))
    weight = np.ones((w.grid_size,) * w.torus_dim)
    for axis in range(w.torus_dim):
        shape = [1] * w.torus_dim
        shape[axis] = w.grid_size
        weight = weight * damp_1d.reshape(shape)
    return signal_from_coefficients(coeffs * weight[..., np.newaxis, np.newaxis])


def _fiber_singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values (F, n) of a stack (F, n, n) of fibers; see signal_profile."""
    n = stack.shape[-1]
    if n == 1:
        return np.abs(stack[:, :, 0])
    if n > 2:
        return np.linalg.svd(stack, compute_uv=False)
    x = stack.reshape(-1, 4).T.copy()  # rows a, b, c, d of the fibers [[a, b], [c, d]]
    sq = np.abs(x)
    # 2^-e with max |entry| < 2^e scales exactly; e >= -1021 keeps 2^-e finite.
    _, e = np.frexp(np.max(sq, axis=0))
    np.maximum(e, -1021, out=e)
    scale = np.ldexp(1.0, -e)
    # Scaled, s1 >= max |entry| >= 2^-53, so an underflow is far below eps * s1.
    with np.errstate(under="ignore"):
        x *= scale
        sq *= scale
        sq *= sq
        a, b, c, d = x
        p = sq[0] + sq[2]
        r = sq[1] + sq[3]
        q = np.abs(a.conj() * b + c.conj() * d)
        h = 0.5 * (p - r)
        s1 = np.sqrt(0.5 * (p + r) + np.sqrt(h * h + q * q))
        s2 = np.abs(a * d - b * c)
    np.divide(s2, s1, out=s2, where=s1 > 0.0)
    np.minimum(s2, s1, out=s2)
    return np.ldexp(np.stack([s1, s2], axis=-1), e[:, None])


def signal_profile(w: TorusSignal) -> SingularValueProfile:
    """Pool all fiber singular values with the grid cell volume as weight.

    The method depends on the fiber size n:

    - n = 1: the moduli of the samples, which is the exact 1 x 1 SVD.
    - n = 2: a closed form for [[a, b], [c, d]] through the Gram matrix
      M^* M = [[p, z], [conj(z), r]], with p = |a|^2 + |c|^2,
      r = |b|^2 + |d|^2 and z = conj(a) b + conj(c) d:
      s1 = sqrt((p + r)/2 + sqrt(((p - r)/2)^2 + |z|^2)) and
      s2 = min(|ad - bc| / s1, s1).  Each fiber is first scaled by a power of
      two just above its largest |entry|, which is exact, so no square
      overflows or underflows at the fiber's own scale; a zero fiber gives
      0, 0 without a division.  Every term under the roots of s1 is
      nonnegative, so s1 has a small relative error, and s2 an absolute
      error of a few eps * s1.  The textbook s2^2 = (||M||_F^2 -
      sqrt(||M||_F^4 - 4 |det M|^2)) / 2 is not used: it cancels when
      s1 ~ s2 and loses about half the digits there.  The Gram form is a few
      array passes over all fibers at once, where a batched LAPACK SVD makes
      one call per fiber.
    - n >= 3: ``np.linalg.svd``.
    """
    d_torus, n_grid, n_fib = w.torus_dim, w.grid_size, w.fiber_dim
    stack = w.samples.reshape(-1, n_fib, n_fib)
    svals = _fiber_singular_values(stack).ravel()
    svals.sort()
    return SingularValueProfile(svals[::-1], (TWO_PI / n_grid) ** d_torus)


def signal_norms(w: TorusSignal):
    """(L1, L2, weak-L1) of the signal over its grid measure."""
    profile = signal_profile(w)
    return (
        schatten_norm(profile, 1),
        schatten_norm(profile, 2),
        weak_l1(profile),
    )


@dataclass(frozen=True)
class PeriodizationResult:
    """Probe output; the quadrature step and truncation bound are never hidden."""

    ratio: float
    weak_ratio: float
    truncation_bound: float
    step: float
    points_per_axis: int


def _nonzero_coefficients(w: TorusSignal):
    coeffs = coefficients(w)
    flat = coeffs[..., 0, 0]
    top = float(np.max(np.abs(flat))) if flat.size else 0.0
    freqs = frequencies(w.grid_size)
    out = []
    for index in np.ndindex(*flat.shape):
        c = flat[index]
        if abs(c) > 1e-13 * max(top, 1.0):
            out.append((np.array([freqs[i] for i in index]), complex(c)))
    return out


def _probe_block(terms, phases, gauss_1d, rows: slice) -> np.ndarray:
    """|W(x_i, x_j)| G_l(x_i) G_l(x_j) for the grid rows i in ``rows``, every j."""
    shape = (rows.stop - rows.start, gauss_1d.size)
    block = np.zeros(shape, dtype=complex)
    term = np.empty(shape, dtype=complex)
    for k, c in terms:
        np.multiply.outer(phases[(0, int(k[0]))][rows], phases[(1, int(k[1]))], out=term)
        term *= c
        block += term
    del term
    ablock = np.abs(block)
    del block
    ablock *= np.multiply.outer(gauss_1d[rows], gauss_1d)
    return ablock


def periodization_probe(w: TorusSignal, l: float, r: float, h: float) -> PeriodizationResult:
    """Gaussian-weighted periodization of a scalar trig polynomial.

    Integrates |per(W)(t)| G_l(t) over [-R, R]^D by the midpoint rule and
    returns the ratio against (2*pi)^{-D} ||W||_{L1(T^D)}, together with the
    analogous weak-L1 ratio (reported as data; no constant is asserted).
    More than ``PROBE_MAX_POINTS`` midpoints per axis raise
    ``GuardViolationError`` before any grid is built.

    For D = 2 the m^2 weighted samples are built ``PROBE_BLOCK_ROWS`` grid
    rows at a time, and only the samples that can attain the weak-L1 maximum
    max_k v_(k) s_k are kept (s_k is the sequential cumsum of the constant
    cell weight step^2):

    - The centre block (the one holding row m//2, where the Gaussian peaks)
      comes first.  Its values are a subset of all values, so its weak-L1 is
      a lower bound L on the pooled one.
    - Every block keeps only its values v >= tau = L / (m^2 step^2 (1 + 1e-6)).
      A dropped value has v s_k < L for every k, since s_k <= m^2 step^2 up
      to a cumsum error far below the 1e-6 slack, so the maximum is attained
      among the kept values.  Those outrank every dropped one, so their
      sorted order is v_(1..K) and the cumsum over them is the first K terms
      of the full one: the weak-L1 is bitwise the full-pool value.  L = 0
      keeps everything, so exactness never depends on how tight L is.
    - Each block's sum is stored and the sums are added in row order, so the
      integral is bitwise independent of the visiting order; it does depend
      on the block shape, because ``np.sum`` is pairwise within a block.
    """
    d_torus = w.torus_dim
    if w.fiber_dim != 1:
        raise DimMismatchError("periodization probe expects a scalar signal")
    if d_torus > 2:
        raise GuardViolationError("probe supports D <= 2")
    if l <= 0:
        raise GuardViolationError("Gaussian width must satisfy l > 0")
    if r < 8.0 * l:
        raise GuardViolationError("truncation radius must satisfy R >= 8l")
    if not 0.0 < h <= TWO_PI / 64.0:
        raise GuardViolationError("step must satisfy 0 < h <= 2*pi/64")
    points = 2.0 * r / h
    if not points <= PROBE_MAX_POINTS:
        raise GuardViolationError(
            f"2R/h = {points:.6g} midpoints per axis exceed the cap {PROBE_MAX_POINTS}"
        )

    terms = _nonzero_coefficients(w)
    m = int(math.ceil(points))
    step = 2.0 * r / m
    x = -r + (np.arange(m) + 0.5) * step
    gauss_1d = np.exp(-(x**2) / (2.0 * l * l)) / (l * math.sqrt(TWO_PI))

    # Reference torus norms from a refined resampling of the same coefficients.
    n_ref = 512 if d_torus == 1 else 256
    ref_coeffs = np.zeros((n_ref,) * d_torus + (1, 1), dtype=complex)
    for k, c in terms:
        ref_coeffs[frequency_index(k, n_ref)] = c
    ref = signal_from_coefficients(ref_coeffs)
    ref_l1, _, ref_weak = signal_norms(ref)
    if ref_l1 == 0.0:
        raise DomainError("probe requires a nonzero signal")

    if d_torus == 1:
        vals = np.zeros(m, dtype=complex)
        for k, c in terms:
            vals += c * np.exp(1j * k[0] * x)
        avals = np.abs(vals)
        integral = float(np.sum(avals * gauss_1d) * step)
        pooled = avals * gauss_1d
    else:
        phases = {}
        for k, _ in terms:
            for axis in (0, 1):
                key = (axis, int(k[axis]))
                if key not in phases:
                    phases[key] = np.exp(1j * k[axis] * x)
        starts = range(0, m, PROBE_BLOCK_ROWS)
        centre = (m // 2) // PROBE_BLOCK_ROWS
        sums = [0.0] * len(starts)
        kept = []
        tau = None
        for index in [centre] + [i for i in range(len(starts)) if i != centre]:
            rows = slice(starts[index], min(starts[index] + PROBE_BLOCK_ROWS, m))
            ablock = _probe_block(terms, phases, gauss_1d, rows)
            sums[index] = float(np.sum(ablock))
            if tau is None:
                lower = weak_l1(SingularValueProfile(np.sort(ablock, axis=None)[::-1], step**2))
                tau = lower / (m * m * step**2 * (1.0 + 1e-6))
            kept.append(ablock[ablock >= tau])
            del ablock
        integral = 0.0
        for block_sum in sums:  # not sum(): it is compensated from Python 3.12
            integral += block_sum
        integral *= step**2
        pooled = np.concatenate(kept)
        del kept

    sup = max((sum(abs(c) for _, c in terms)), 1e-300)
    tail = d_torus * math.erfc(r / (l * math.sqrt(2.0)))
    ratio = integral / (ref_l1 / TWO_PI**d_torus)

    pooled.sort()
    trunc_profile = SingularValueProfile(pooled[::-1], step**d_torus)
    weak_ratio = weak_l1(trunc_profile) / (ref_weak / TWO_PI**d_torus)

    return PeriodizationResult(
        ratio=ratio,
        weak_ratio=weak_ratio,
        truncation_bound=float(sup * tail),
        step=step,
        points_per_axis=m,
    )
