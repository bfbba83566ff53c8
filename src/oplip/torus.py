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

TWO_PI = 2.0 * np.pi
PROBE_BLOCK_ROWS = 512  # grid rows per block of the D = 2 periodization probe


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
    smoothing: object = smoothing_eval

    def __post_init__(self):
        if not 1 <= self.k0 <= self.d:
            raise ValueError(f"k0 = {self.k0} outside 1..{self.d}")


def symbol_eval(g: HomogeneousSymbol, t):
    """Evaluate the homogeneous symbol at one point or a batch of shape (..., d+1)."""
    arr = np.asarray(t, dtype=float)
    single = arr.ndim == 1
    pts = arr[np.newaxis, :] if single else arr
    if pts.shape[-1] != g.d + 1:
        raise DimMismatchError(f"points must have {g.d + 1} coordinates")
    norms = np.linalg.norm(pts, axis=-1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = pts / safe[..., np.newaxis]
    u = np.clip(np.sum(unit[..., : g.d] ** 2, axis=-1), 0.0, 1.0)
    vals = unit[..., g.k0 - 1] * unit[..., g.d] / g.smoothing(u)
    vals = np.where(norms > 0, vals, 0.0)
    return float(vals[0]) if single else vals


def _multiplier_tensor(m, grid_size: int, torus_dim: int) -> np.ndarray:
    """Evaluate a lattice symbol on the whole frequency grid."""
    freqs = frequencies(grid_size)
    mesh = np.meshgrid(*([freqs] * torus_dim), indexing="ij")
    points = np.stack(mesh, axis=-1).reshape(-1, torus_dim)
    if isinstance(m, HomogeneousSymbol):
        vals = symbol_eval(m, points.astype(float))
    else:
        vals = np.array([m(k) for k in points])
    return vals.reshape((grid_size,) * torus_dim)


def fourier_multiplier_apply(m, w: TorusSignal) -> TorusSignal:
    """Multiply the coefficient of e_k by m(k); fibers are only scaled.

    ``m`` is a HomogeneousSymbol (evaluated on the integer lattice) or any
    callable taking an integer frequency vector.
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
        raise ValueError("Fejer order must be nonnegative")
    coeffs = coefficients(w)
    freqs = frequencies(w.grid_size)
    damp_1d = np.maximum(0.0, 1.0 - np.abs(freqs) / (n + 1.0))
    weight = np.ones((w.grid_size,) * w.torus_dim)
    for axis in range(w.torus_dim):
        shape = [1] * w.torus_dim
        shape[axis] = w.grid_size
        weight = weight * damp_1d.reshape(shape)
    return signal_from_coefficients(coeffs * weight[..., np.newaxis, np.newaxis])


def signal_profile(w: TorusSignal) -> SingularValueProfile:
    """Pool all fiber singular values with the grid cell volume as weight."""
    d_torus, n_grid, n_fib = w.torus_dim, w.grid_size, w.fiber_dim
    stack = w.samples.reshape(-1, n_fib, n_fib)
    svals = np.linalg.svd(stack, compute_uv=False).ravel()
    return SingularValueProfile(-np.sort(-svals), (TWO_PI / n_grid) ** d_torus)


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


def periodization_probe(w: TorusSignal, l: float, r: float, h: float) -> PeriodizationResult:
    """Gaussian-weighted periodization of a scalar trig polynomial.

    Integrates |per(W)(t)| G_l(t) over [-R, R]^D by the midpoint rule and
    returns the ratio against (2*pi)^{-D} ||W||_{L1(T^D)}, together with the
    analogous weak-L1 ratio (reported as data; no constant is asserted).
    """
    d_torus = w.torus_dim
    if w.fiber_dim != 1:
        raise DimMismatchError("periodization probe expects a scalar signal")
    if d_torus > 2:
        raise GuardViolationError("probe supports D <= 2")
    if r < 8.0 * l:
        raise GuardViolationError("truncation radius must satisfy R >= 8l")
    if h > TWO_PI / 64.0:
        raise GuardViolationError("step must satisfy h <= 2*pi/64")

    terms = _nonzero_coefficients(w)
    m = int(math.ceil(2.0 * r / h))
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
        raise ValueError("probe requires a nonzero signal")

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
        integral = 0.0
        pooled_blocks = []
        for start in range(0, m, PROBE_BLOCK_ROWS):
            rows = slice(start, min(start + PROBE_BLOCK_ROWS, m))
            block = np.zeros((rows.stop - rows.start, m), dtype=complex)
            for k, c in terms:
                block += c * np.outer(phases[(0, int(k[0]))][rows], phases[(1, int(k[1]))])
            ablock = np.abs(block) * np.outer(gauss_1d[rows], gauss_1d)
            integral += float(np.sum(ablock))
            pooled_blocks.append(ablock.ravel())
        integral *= step**2
        pooled = np.concatenate(pooled_blocks)

    sup = max((sum(abs(c) for _, c in terms)), 1e-300)
    tail = d_torus * math.erfc(r / (l * math.sqrt(2.0)))
    ratio = integral / (ref_l1 / TWO_PI**d_torus)

    trunc_profile = SingularValueProfile(-np.sort(-pooled), step**d_torus)
    weak_ratio = weak_l1(trunc_profile) / (ref_weak / TWO_PI**d_torus)

    return PeriodizationResult(
        ratio=ratio,
        weak_ratio=weak_ratio,
        truncation_bound=float(sup * tail),
        step=step,
        points_per_axis=m,
    )
