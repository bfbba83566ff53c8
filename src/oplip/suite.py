"""Identity and property checks aggregated across all modules.

Each check returns its measured residual; :func:`run_identity_suite` pairs
the residuals with tolerances in a machine-readable, byte-deterministic
report.  The sweep helpers (`perturbation_sweep`, `conjugation_sweep`,
`contraction_rounding_sweep`, `symbol_agreement_sweep`, ...) are parameterized
so the acceptance tests can run them at full size while the suite runs
leaner versions of the same code.
"""

import bisect
import math
import threading

import numpy as np

from .doi import (
    divided_difference_symbol,
    doi_apply,
    doi_l2_norm,
    doi_operator_matrix,
    perturbation_residual,
    symbol_product_check,
)
from .errors import DomainError, GuardViolationError
from .experiments import (
    ExperimentConfig,
    _random_hermitian,
    _random_matrix,
    commutator_ratio,
)
from .functions import builtin_function, contraction_names, experiment_function_names
from .norms import (
    SingularValueProfile,
    matrix_trace_norm,
    matrix_weak_l1,
    mu_at,
    schatten_norm,
    singular_values,
    tensor_profile,
    weak_l1,
)
from .rng import generator
from .spectral import (
    apply_function,
    commutator,
    joint_diagonalize,
    planted_commuting_tuple,
)
from .torus import (
    FIBER_BLOCK,
    TWO_PI,
    HomogeneousSymbol,
    TorusSignal,
    _fiber_singular_values,
    _GramWork,
    _multiplied,
    _multiplier_tensor,
    _square_norms,
    _trig_factors,
    coefficients,
    fejer,
    fourier_multiplier_apply,
    frequencies,
    frequency_index,
    signal_from_coefficients,
    signal_norms,
    symbol_eval,
)
from .transference import (
    _box_points,
    build_embedding,
    contraction_check,
    integer_tuple,
    round_contraction,
    verify_conjugation,
)

_CONE_BATCH = 1 << 14  # cone cells per symbol evaluation in _cone_deviation
# N^(d+1) fiber^2 entries.  d = 2 at N = 128 fits; one signal on the largest grid at
# d = 1, 2 or 3 (N = 1448, 128, 38) peaks at 70, 77 and 100 MB RSS on x86-64 (numpy 2.4).
DELEEUW_MAX_ENTRIES = 1 << 23
KEPT_ROOT_FIBERS = 1 << 16  # largest de Leeuw root grid whose work (3.9 MB) stays held
_WEAK_BLOCK = 1 << 13  # sorted values per step multiply in _sorted_weak_l1


def _rel(diff, ref) -> float:
    return float(diff / (1.0 + ref))


def _worst(seed, stream, instances, residual):
    """max of 0.0 and ``residual(rng, i)`` over the instances; rng is substream (stream, i)."""
    worst = 0.0
    for i in range(instances):
        worst = max(worst, residual(generator(seed, stream, i), i))
    return worst


def _planted(rng, max_n, max_d, law="uniform"):
    """A planted tuple with n in 2..max_n, d in 1..max_d, and its joint spectrum."""
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    tup, _, _ = planted_commuting_tuple(n, d, law, seed=int(rng.integers(2**63)))
    return tup, joint_diagonalize(tup)


# ---------------------------------------------------------------------------
# spectral-core checks


def roundtrip_residual(seed, instances=6):
    def residual(rng, i):
        tup, js = _planted(rng, 16, 3, ["uniform", "integer:5"][i % 2])
        worst = 0.0
        for k, a in enumerate(tup.arrays()):
            recon = (js.basis * js.eigenvalues[:, k]) @ js.basis.conj().T
            scale = max(float(np.linalg.norm(a, "fro")), 1e-300)
            worst = max(worst, float(np.linalg.norm(a - recon, "fro")) / scale)
        return worst

    return _worst(seed, 0x51, instances, residual)


def morphism_residual(seed, instances=4):
    """apply_function is multiplicative on polynomial pairs."""
    def residual(rng, _i):
        _, js = _planted(rng, 8, 2)
        c = rng.standard_normal(3)
        f = lambda lam: c[0] + c[1] * lam[..., 0] + c[2] * lam[..., 0] ** 2
        g = lambda lam: lam[..., 0] + 0.5 * lam[..., -1] ** 2
        fg = lambda lam: f(lam) * g(lam)
        lhs = apply_function(js, fg).data
        rhs = apply_function(js, f).data @ apply_function(js, g).data
        return _rel(np.linalg.norm(lhs - rhs, "fro"), np.linalg.norm(lhs, "fro"))

    return _worst(seed, 0x52, instances, residual)


def calculus_commutation_residual(seed, instances=4):
    """f(A) commutes with every member of the tuple."""
    def residual(rng, _i):
        tup, js = _planted(rng, 8, 3)
        f = builtin_function("euclid-norm", js.d)
        fa = apply_function(js, f).data
        worst = 0.0
        for a in tup.arrays():
            dev = np.linalg.norm(commutator(fa, a), "fro")
            scale = np.linalg.norm(fa, "fro") * np.linalg.norm(a, "fro")
            worst = max(worst, float(dev / (1.0 + scale)))
        return worst

    return _worst(seed, 0x53, instances, residual)


def sort_determinism_residual(seed):
    tup, _, _ = planted_commuting_tuple(7, 2, "integer:3", seed=seed)
    a = joint_diagonalize(tup)
    b = joint_diagonalize(tup)
    dev = float(np.max(np.abs(a.eigenvalues - b.eigenvalues)))
    dev = max(dev, float(np.max(np.abs(a.basis - b.basis))))
    return dev


# ---------------------------------------------------------------------------
# doi-engine checks


def doi_linearity_residual(seed, instances=4):
    def residual(rng, _i):
        _, js = _planted(rng, 8, 2)
        xi = divided_difference_symbol(builtin_function("euclid-norm", js.d), 1, js.d)
        v, w = _random_matrix(js.dim, rng), _random_matrix(js.dim, rng)
        a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        lhs = doi_apply(js, xi, a * v + b * w)
        rhs = a * doi_apply(js, xi, v) + b * doi_apply(js, xi, w)
        return _rel(np.linalg.norm(lhs - rhs, "fro"), np.linalg.norm(rhs, "fro"))

    return _worst(seed, 0x61, instances, residual)


def doi_self_adjoint_residual(seed, instances=4):
    """trace(T(V) W*) = trace(V T(W)*) for a real symmetric symbol."""
    def residual(rng, _i):
        _, js = _planted(rng, 8, 2)
        xi = divided_difference_symbol(builtin_function("crease", js.d), 1, js.d)
        v, w = _random_matrix(js.dim, rng), _random_matrix(js.dim, rng)
        lhs = complex(np.trace(doi_apply(js, xi, v) @ w.conj().T))
        rhs = complex(np.trace(v @ doi_apply(js, xi, w).conj().T))
        return _rel(abs(lhs - rhs), abs(lhs))

    return _worst(seed, 0x62, instances, residual)


def doi_l2_oracle_residual(seed, instances=4, max_n=8):
    """doi_l2_norm against the largest singular value of the dense operator."""
    def residual(rng, _i):
        _, js = _planted(rng, max_n, 2)
        xi = divided_difference_symbol(builtin_function("euclid-norm", js.d), 1, js.d)
        direct = doi_l2_norm(js, xi)
        dense = float(np.linalg.svd(doi_operator_matrix(js, xi), compute_uv=False)[0])
        return _rel(abs(direct - dense), abs(dense))

    return _worst(seed, 0x63, instances, residual)


def perturbation_sweep(seed, instances=20, sizes=(4, 8, 16, 32)):
    """Max residual of the commutator decomposition identity over seeded instances.

    Each instance tests every built-in function of its dimension.
    """
    def residual(rng, i):
        n = sizes[i % len(sizes)]
        d = 1 + (i % 3)
        tup, _, _ = planted_commuting_tuple(n, d, "uniform", seed=int(rng.integers(2**63)))
        js = joint_diagonalize(tup)
        b = _random_hermitian(n, rng)
        worst = 0.0
        for name in experiment_function_names(d):
            f = builtin_function(name, d)
            _, _, res = perturbation_residual(js, f, f.lipschitz, b)
            worst = max(worst, res)
        return worst

    return _worst(seed, 0x64, instances, residual)


def divided_difference_bound_residual(seed, instances=6):
    """max over sampled pairs of |f_k| - L, clipped at 0 (should be 0 up to float)."""
    def residual(rng, i):
        d = 1 + (i % 3)
        f = builtin_function(experiment_function_names(d)[i % 6], d)
        pts = rng.uniform(-2, 2, size=(40, d))
        worst = 0.0
        for k in range(1, d + 1):
            fk = divided_difference_symbol(f, k, d)
            pairs = fk.func(pts[:20, None, :], pts[None, 20:, :])
            worst = max(worst, float(np.max(np.abs(pairs))) - f.lipschitz)
        return worst

    return _worst(seed, 0x65, instances, residual)


def doi_multiplicativity_residual(seed, instances=4):
    def residual(rng, _i):
        _, js = _planted(rng, 8, 2)
        xi1 = divided_difference_symbol(builtin_function("euclid-norm", js.d), 1, js.d)
        xi2 = divided_difference_symbol(builtin_function("crease", js.d), 1, js.d)
        v = _random_matrix(js.dim, rng)
        return symbol_product_check(js, xi1, xi2, v)

    return _worst(seed, 0x66, instances, residual)


# ---------------------------------------------------------------------------
# normlab checks


def quasi_triangle_margin(seed, instances=200):
    """max of weak(X+Y) - 2 weak(X) - 2 weak(Y), clipped at 0."""
    def residual(rng, _i):
        n = int(rng.integers(1, 9))
        x, y = _random_matrix(n, rng), _random_matrix(n, rng)
        return matrix_weak_l1(x + y) - 2.0 * matrix_weak_l1(x) - 2.0 * matrix_weak_l1(y)

    return _worst(seed, 0x71, instances, residual)


def mu_subadditivity_margin(seed, instances=200):
    def residual(rng, _i):
        n = int(rng.integers(1, 9))
        x, y = _random_matrix(n, rng), _random_matrix(n, rng)
        px, py = singular_values(x), singular_values(y)
        pxy = singular_values(x + y)
        t, s = float(rng.uniform(0, n)), float(rng.uniform(0, n))
        return mu_at(pxy, t + s) - mu_at(px, t) - mu_at(py, s)

    return _worst(seed, 0x72, instances, residual)


def tensor_kron_residual(seed, instances=10):
    def residual(rng, _i):
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a, b = _random_matrix(n1, rng), _random_matrix(n2, rng)
        direct = tensor_profile(singular_values(a), singular_values(b))
        kron = singular_values(np.kron(a, b))
        return (float(np.max(np.abs(direct.values - kron.values)))
                / (1.0 + float(kron.values[0])))

    return _worst(seed, 0x73, instances, residual)


def tensor_weak_bound_margin(seed, instances=10):
    """max of ||A (x) B||_{1,inf} - ||A||_1 ||B||_{1,inf}, clipped at 0."""
    def residual(rng, _i):
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a, b = _random_matrix(n1, rng), _random_matrix(n2, rng)
        lhs = weak_l1(tensor_profile(singular_values(a), singular_values(b)))
        rhs = matrix_trace_norm(a) * matrix_weak_l1(b)
        return lhs - rhs

    return _worst(seed, 0x74, instances, residual)


def weak_dominated_margin(seed, instances=200):
    def residual(rng, _i):
        n = int(rng.integers(1, 12))
        p = SingularValueProfile(np.abs(rng.standard_normal(n)), rng.uniform(0.1, 2.0))
        return weak_l1(p) - schatten_norm(p, 1)

    return _worst(seed, 0x75, instances, residual)


def weak_homogeneity_residual(seed, instances=100):
    def residual(rng, _i):
        n = int(rng.integers(1, 12))
        p = SingularValueProfile(np.abs(rng.standard_normal(n)), rng.uniform(0.1, 2.0))
        c = float(rng.uniform(0.1, 10.0))
        return abs(weak_l1(p.scaled(c)) - c * weak_l1(p)) / (1.0 + c * weak_l1(p))

    return _worst(seed, 0x76, instances, residual)


# ---------------------------------------------------------------------------
# torus-multiplier checks


def plancherel_residual(seed, instances=4):
    def residual(rng, i):
        d_torus = 1 + (i % 2)
        n_grid = 8 * (1 + (i % 2))
        w = TorusSignal(
            rng.standard_normal((n_grid,) * d_torus + (2, 2))
            + 1j * rng.standard_normal((n_grid,) * d_torus + (2, 2))
        )
        _, l2, _ = signal_norms(w)
        coeff_l2 = TWO_PI ** (d_torus / 2.0) * float(np.linalg.norm(coefficients(w)))
        return _rel(abs(l2 - coeff_l2), abs(coeff_l2))

    return _worst(seed, 0x81, instances, residual)


def multiplier_composition_residual(seed, instances=4):
    def residual(rng, i):
        d_torus = 1 + (i % 2)
        n_grid = 8
        w = TorusSignal(
            rng.standard_normal((n_grid,) * d_torus + (2, 2))
            + 1j * rng.standard_normal((n_grid,) * d_torus + (2, 2))
        )
        m1 = lambda k: 1.0 / (1.0 + np.sum(k ** 2, axis=-1))
        m2 = lambda k: np.cos(np.sum(k, axis=-1))
        m12 = lambda k: m1(k) * m2(k)
        lhs = fourier_multiplier_apply(m2, fourier_multiplier_apply(m1, w))
        rhs = fourier_multiplier_apply(m12, w)
        return _rel(np.linalg.norm(lhs.samples - rhs.samples), np.linalg.norm(rhs.samples))

    return _worst(seed, 0x82, instances, residual)


def l2_contraction_margin(seed, instances=4):
    """Multipliers of sup-norm <= 1 do not increase the L2 norm."""
    g = HomogeneousSymbol(d=1, k0=1)

    def residual(rng, _i):
        n_grid = 16
        w = TorusSignal(
            rng.standard_normal((n_grid, n_grid, 2, 2))
            + 1j * rng.standard_normal((n_grid, n_grid, 2, 2))
        )
        table = _multiplier_tensor(g, n_grid, 2)
        sup = max(float(np.max(np.abs(table))), 1e-300)
        _, before, _ = signal_norms(w)
        _, after, _ = signal_norms(_multiplied(coefficients(w), table / sup))
        return (after - before) / (1.0 + before)

    return _worst(seed, 0x83, instances, residual)


def fejer_brute(w: TorusSignal, order: int) -> TorusSignal:
    """Average of the rectangular partial sums, computed literally."""
    coeffs = coefficients(w)
    d_torus = w.torus_dim
    freqs = frequencies(w.grid_size)
    acc = np.zeros_like(coeffs)
    for k in np.ndindex(*((order + 1,) * d_torus)):
        mask = np.ones((w.grid_size,) * d_torus, dtype=bool)
        for axis, kj in enumerate(k):
            shape = [1] * d_torus
            shape[axis] = w.grid_size
            mask &= (np.abs(freqs) <= kj).reshape(shape)
        acc += coeffs * mask[..., np.newaxis, np.newaxis]
    return signal_from_coefficients(acc / (order + 1) ** d_torus)


def fejer_bruteforce_residual(seed):
    worst = 0.0
    for d_torus in (1, 2):
        rng = generator(seed, 0x84, d_torus)
        w = TorusSignal(
            rng.standard_normal((8,) * d_torus + (2, 2))
            + 1j * rng.standard_normal((8,) * d_torus + (2, 2))
        )
        for order in (0, 1, 2, 3):
            closed = fejer(w, order)
            brute = fejer_brute(w, order)
            worst = max(
                worst,
                float(np.max(np.abs(coefficients(closed) - coefficients(brute)))),
            )
    return worst


def fejer_convergence_profile(d_torus=1):
    """(order, ||A_n W - W||_1 / ||W||_1) for the fixed degree-1 test signal.

    The signal is 1 + 0.04*cos(t_1): its oscillatory mass is small
    relative to its mean, which is what makes the 1e-3 threshold at n = 50x
    degree attainable (the deficiency of a degree-m coefficient is exactly
    m/(n+1) per axis).
    """
    n_grid = 16
    coeffs = np.zeros((n_grid,) * d_torus + (1, 1), dtype=complex)
    coeffs[frequency_index(np.zeros(d_torus, int), n_grid)] = 1.0
    plus = np.zeros(d_torus, int)
    plus[0] = 1
    coeffs[frequency_index(plus, n_grid)] = 0.02
    coeffs[frequency_index(-plus, n_grid)] = 0.02
    w = signal_from_coefficients(coeffs)
    base_l1 = signal_norms(w)[0]
    out = []
    for order in (1, 3, 10, 25, 50, 57, 100):
        diff = fejer(w, order).samples - w.samples
        out.append((order, signal_norms(TorusSignal(diff))[0] / base_l1))
    return out


class _RootGridWork:
    """One root grid of 2 x 2 fibers (N^D) of a four-term signal, sampled in row strips.

    One allocation holds the (N^D, 2) fiber values of the whole grid, one
    strip of whole grid rows (``samples``) and the right factor of
    ``_trig_factors`` (``right``): freed as the largest block, it keeps
    glibc's trim threshold above the rest of a call (separate arrays faulted
    800-2,600 pages per call past the kept size at d = 2, N = 48 and d = 3,
    N = 20-24).  The strips split the N rows evenly, each about FIBER_BLOCK
    fibers and at least four rows (or all N): each product repacks the whole
    right factor, four rows of samples in size, and a one-row product goes
    through BLAS's matrix-vector routine, which rounds differently (D = 4,
    N = 15 on OpenBLAS 0.3.31) where two rows or more match the whole grid.
    """

    def __init__(self, root, d_torus):
        self.grid, row = (root, d_torus), root ** (d_torus - 1)  # fibers per grid row
        strips = max(1, root // max(4, FIBER_BLOCK // row))
        self.bounds = [root * i // strips for i in range(strips + 1)]
        rows, n = -(-root // strips), root**d_torus
        block = np.empty(n + 4 * row * (rows + 4), dtype=complex)
        self.values = block[:n].view(float).reshape(n, 2)
        strip, right = np.split(block[n:], [4 * row * rows])
        self.samples, self.right = strip.reshape(rows, -1), right.reshape(4, -1)
        self.gram = _GramWork(min(rows * row, FIBER_BLOCK))

    def sample(self, freqs, fibers):
        """The fiber values of the 2 x 2 trig polynomial (``_trig_factors``), strip by strip."""
        left, right = _trig_factors(freqs, fibers, self.grid[0], out=self.right)
        row = right.shape[1] // 4
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            strip = np.matmul(left[lo:hi], right, out=self.samples[:hi - lo])
            _fiber_singular_values(strip.reshape(-1, 2, 2), out=self.values[lo * row:hi * row],
                                   work=self.gram)
        return self.values


def _sorted_weak_l1(values, cell):
    """``weak_l1(SingularValueProfile(values, cell))``, bitwise, overwriting ``values``.

    Sorted ascending in place, the k-th largest of m values sits at m - k;
    each ``_WEAK_BLOCK`` positions are multiplied by their k in one pass.
    """
    ascending, m = values.reshape(-1), values.size
    ascending.sort()
    if not ascending[0] >= 0.0 or np.isnan(ascending[-1]):
        raise DomainError("values must be nonnegative (NaN is refused)")
    for lo in range(0, m, _WEAK_BLOCK):
        ascending[lo:lo + _WEAK_BLOCK] *= np.arange(m - lo, max(m - lo - _WEAK_BLOCK, 0), -1.0)
    return float(cell) * float(np.max(ascending))


_kept = threading.local()  # .work: this thread's work for roots of at most KEPT_ROOT_FIBERS


def _fiber_value_grids(freqs, fibers, sizes, call):
    """(N, fiber singular values on the N^D grid) for each distinct size, root by root.

    Only a root, a size that divides no larger one, is sampled; every other
    size N is read off the largest size M it divides (a root) at stride M/N,
    where the samples are the same trig polynomial at the same points and
    each fiber's values depend on that fiber alone.  The values come back as
    contiguous (N^D, 2) arrays, so a sum over them adds in the order a direct
    sampling would, and none is read again once yielded (the root's own, a
    view of its work, come last): the caller may sort them.  The work is this
    thread's ``_kept`` one for roots of at most ``KEPT_ROOT_FIBERS`` fibers,
    else the ``call``'s, made anew when the grid (N, D) changes (9^4 and 81^2
    have the same fibers in different strips).  Kept, a run of calls allocates
    nothing large after its first: fresh, 0.03-1 MB arrays cost about 950
    faults and 1.5-2x the time per d = 1 call (2-core x86-64 host).
    """
    d_torus = np.shape(freqs)[1]
    descending = sorted(set(sizes), reverse=True)
    root_of = {n: next(m for m in descending if m % n == 0) for n in descending}
    for root in sorted(set(root_of.values()), reverse=True):
        holder = vars(_kept) if root**d_torus <= KEPT_ROOT_FIBERS else call
        if getattr(holder.get("work"), "grid", None) != (root, d_torus):
            holder["work"] = None  # the old buffers go before the new are made
            holder["work"] = _RootGridWork(root, d_torus)
        values = holder["work"].sample(freqs, fibers).reshape((root,) * d_torus + (-1,))
        for n_grid in sorted(n for n in descending if root_of[n] == root):  # the root last
            strided = values[(slice(None, None, root // n_grid),) * d_torus]
            yield n_grid, np.ascontiguousarray(strided).reshape(n_grid**d_torus, -1)
        del values  # before the next root is sampled


def deleeuw_ratios(seed, sizes=(32, 64, 128), signals=10, d=1):
    """weak-L1(g(grad)W)/L1(W) for a fixed signal family across grid sizes.

    A signal is four 2 x 2 fibers at nonzero frequencies in [-4, 4]^(d+1),
    drawn as coefficients, and W and g(grad)W are sampled straight from those
    terms (g at the four frequencies only).  L1(W) is the cell times the sum
    of the fiber singular values, and the weak-L1 of g(grad)W is read off the
    same values sorted.  A size that divides a larger one is read off it at a
    stride (:func:`_fiber_value_grids`): bitwise the direct sampling at
    power-of-two strides, a few eps off otherwise.  Each dict lists the sizes
    in the caller's order.  d < 1, a frequency outside the balanced range of
    any size, or a grid past ``DELEEUW_MAX_ENTRIES`` raises DomainError before
    any grid is sampled (d and the cap before any draw).
    """
    if d < 1:
        raise DomainError(f"de Leeuw ratios need d >= 1, got d={d}")
    d_torus, fiber = d + 1, 2
    if max(sizes, default=0) ** d_torus * fiber**2 > DELEEUW_MAX_ENTRIES:
        raise DomainError(f"a de Leeuw grid of N={max(sizes)} in d={d} has more than "
                          f"DELEEUW_MAX_ENTRIES = {DELEEUW_MAX_ENTRIES} sample entries")
    g = HomogeneousSymbol(d=d, k0=1)
    rng = generator(seed, 0x85)
    family = []
    for _ in range(signals):
        freqs, fibers = [], []
        while len(freqs) < 4:
            k = rng.integers(-4, 5, size=d_torus)
            if np.any(k != 0):
                freqs.append(k)
                fibers.append(rng.standard_normal((fiber, fiber))
                              + 1j * rng.standard_normal((fiber, fiber)))
        fibers = np.array(fibers)
        gains = g(np.array(freqs, dtype=float))
        family.append((freqs, fibers, gains[:, np.newaxis, np.newaxis] * fibers))
    for n_grid in sizes:  # a subsampled size still refuses what it cannot hold
        for k in (k for freqs, _, _ in family for k in freqs):
            frequency_index(k, n_grid)
    results, call = [], {}  # call["work"]: this call's work for a root past the kept size
    for freqs, fibers, multiplied in family:
        l1 = {n_grid: (TWO_PI / n_grid) ** d_torus * float(np.sum(values))
              for n_grid, values in _fiber_value_grids(freqs, fibers, sizes, call)}
        ratios = {n_grid: _sorted_weak_l1(values, (TWO_PI / n_grid) ** d_torus) / l1[n_grid]
                  for n_grid, values in _fiber_value_grids(freqs, multiplied, sizes, call)}
        results.append({n_grid: ratios[n_grid] for n_grid in sizes})
    return results


def deleeuw_spread(ratios):
    """max/min of one signal's ratios across grid sizes; 1.0 when the min is 0."""
    return max(ratios) / min(ratios) if min(ratios) > 0 else 1.0


def deleeuw_stability_factor(seed, sizes=(32, 64, 128), signals=10, d=1):
    """Largest ratio spread over the family (should stay below 2)."""
    worst = 1.0
    for ratios in deleeuw_ratios(seed, sizes, signals, d):
        worst = max(worst, deleeuw_spread(ratios.values()))
    return worst


# ---------------------------------------------------------------------------
# transference checks


def conjugation_instances(seed, count):
    """Seeded instances (IntegerTuple, integer contraction, V, k0), d <= 2, n <= 8."""
    out = []
    rng = generator(seed, 0x91)
    for i in range(count):
        d = 1 + (i % 2)
        n = int(rng.integers(2, 9))
        tup, _, _ = planted_commuting_tuple(
            n, d, "integer:5", seed=int(rng.integers(2**63))
        )
        it = integer_tuple(tup)
        kind = i % 4
        if kind == 1:
            h = round_contraction(builtin_function("euclid-norm", d), 2 + 2 * (i % 3))
            name = "round(euclid-norm)"
        elif kind == 2:
            h = round_contraction(builtin_function("crease", d), 1 + (i % 4))
            name = "round(crease)"
        else:
            name = "max-abs" if kind == 0 else "coordinate:1"
            h = builtin_function(name, d)
        v = _random_matrix(n, rng)
        k0 = 1 + int(rng.integers(0, d))
        out.append((it, h, name, v, k0))
    return out


def conjugation_sweep(seed, count=10, grid_size=64):
    worst = 0.0
    for it, h, _, v, k0 in conjugation_instances(seed, count):
        worst = max(worst, verify_conjugation(it, h, v, grid_size, k0))
    return worst


def isometry_residual(seed, instances=3):
    """L1 and weak-L1 of I(V) equal (2 pi)^(d+1) times those of V."""
    def residual(rng, i):
        d = 1 + (i % 2)
        n = int(rng.integers(2, 5))
        tup, _, _ = planted_commuting_tuple(
            n, d, "integer:3", seed=int(rng.integers(2**63))
        )
        it = integer_tuple(tup)
        h = round_contraction(builtin_function("euclid-norm", d), 4)
        v = _random_matrix(n, rng)
        w = build_embedding(it, h, v, 32)
        l1, _, weak = signal_norms(w)
        factor = TWO_PI ** (d + 1)
        p = singular_values(v)
        trace, weak_v = factor * schatten_norm(p, 1), factor * weak_l1(p)
        return max(_rel(abs(l1 - trace), trace), _rel(abs(weak - weak_v), weak_v))

    return _worst(seed, 0x92, instances, residual)


def rounded_contractions(d, n_values, names=None):
    """``(name, n, h)``: each built-in contraction of dimension d rounded at each n."""
    for name in (names or contraction_names(d)):
        f = builtin_function(name, d)
        for n in n_values:
            yield name, n, round_contraction(f, n)


def contraction_rounding_sweep(d_values=(1, 2), radius=10, n_values=range(1, 9),
                               names=None):
    """Number of contraction violations over built-in functions and roundings."""
    violations = 0
    checked = 0
    for d in d_values:
        for _, _, h in rounded_contractions(d, n_values, names):
            report = contraction_check(h, radius, d, report_margin=False)
            checked += 1
            if not report.ok:
                violations += 1
    return violations, checked


def _cone_deviation(radius, d):
    """max |g(delta, m) - delta_k0 m / |delta|^2| over the contraction cone.

    The cone cells are delta in [-2r, 2r]^d, delta != 0, and integers m with
    m^2 <= |delta|^2, for every k0.  There the smoothing argument is
    |delta|^2 / (|delta|^2 + m^2) >= 1/2, so the smoothing function is the
    identity and the normalized symbol reduces to the divided difference.

    Only the sign orthant delta >= 0 (every coordinate), m >= 0 is walked,
    and the maximum is bitwise the full cone's.  Negating one coordinate of a
    cell negates both sides exactly or leaves both unchanged: every
    coordinate enters :func:`symbol_eval` and |delta|^2 as a square, except
    c_k0 and c_d (= m), which enter the value and delta_k0 m as linear
    factors; the power-of-two rescaling of odd rows reads max |coordinate|
    and is sign-blind too.  IEEE rounding is symmetric, so x - y negates with
    its operands, and every |deviation| of the cone recurs in the orthant.

    The delta table is sorted once by |delta|^2 (stably), so the cells of
    one m are the contiguous suffix from the first |delta|^2 >= max(m^2, 1).
    In cell order the m-suffixes follow each other, m ascending, and each
    run of ``_CONE_BATCH`` cells (the last one shorter) takes one symbol
    evaluation per k0.  A run is assembled from the suffix slices it covers,
    found by bisection on the cumulative suffix ends, with one
    ``np.concatenate`` into a float (``_CONE_BATCH``, d+1) buffer reused by
    every run, and one ``np.repeat`` for the m column; three slice copies per
    m cost more than the symbol evaluation at d = 1.  The divided difference
    reads delta_k0 and m from the buffer (integers, so delta_k0 m is exact).
    Every orthant cell is evaluated once for every k0, and memory follows the
    delta table.
    |delta|^2 is summed over the integer columns, exact in ``int64``.
    """
    deltas = _box_points(radius, d) + radius  # [0, 2r]^d
    dist2 = _square_norms(deltas)
    order = np.argsort(dist2, kind="stable")
    deltas, dist2 = deltas[order], dist2[order]
    ms = np.arange(math.isqrt(int(dist2[-1])) + 1)
    starts = np.searchsorted(dist2, np.maximum(ms * ms, 1))
    bounds = [0, *np.cumsum(len(dist2) - starts).tolist()]  # cell positions of the m-suffixes
    shift = (starts - bounds[:-1]).tolist()  # cell position -> sorted delta index, per m
    cells = np.empty((min(_CONE_BATCH, bounds[-1]), d + 1))
    denoms = np.empty(len(cells))
    worst = 0.0
    for lo in range(0, bounds[-1], _CONE_BATCH):
        hi = min(lo + _CONE_BATCH, bounds[-1])
        covered = range(bisect.bisect_right(bounds, lo) - 1, bisect.bisect_left(bounds, hi))
        cuts = [slice(max(lo, bounds[m]) + shift[m], min(hi, bounds[m + 1]) + shift[m])
                for m in covered]
        batch, denom = cells[:hi - lo], denoms[:hi - lo]
        np.concatenate([deltas[cut] for cut in cuts], out=batch[:, :d])
        batch[:, d] = np.repeat(covered, [cut.stop - cut.start for cut in cuts])
        np.concatenate([dist2[cut] for cut in cuts], out=denom)
        worst = max(worst, *(
            float(np.max(np.abs(symbol_eval(HomogeneousSymbol(d=d, k0=k0), batch)
                                - batch[:, k0 - 1] * batch[:, d] / denom)))
            for k0 in range(1, d + 1)))
    return worst


def symbol_agreement_sweep(d_values=(1, 2), radius=10, n_values=range(1, 9),
                           names=None):
    """max |g(i-j, h(i)-h(j)) - h_k0(i, j)| over lattice box pairs.

    The left side travels through the normalized homogeneous symbol with its
    smoothing function; the right side is the divided difference evaluated on
    the lattice.  Both depend only on the pair difference (delta, m).  A
    rounded contraction h has |h(i) - h(j)| <= |i - j|, so every realized pair
    lies in the cone m^2 <= |delta|^2 with delta in [-2r, 2r]^d.  The deviation
    is therefore taken over the whole cone, once per d; a sign flip of one
    coordinate of (delta, m) negates both sides exactly or leaves both
    unchanged, so :func:`_cone_deviation` walks the orthant delta >= 0, m >= 0
    alone and still returns the full cone's maximum bitwise.  Each rounded h only
    has to pass the exact integer verdict of :func:`contraction_check` over
    every pair of the box, in every d (a box past its ``SCAN_BUDGET`` raises
    DomainError): its king-step certificate proves the verdict when no step
    to a neighbour with |delta|_inf = 1 changes h by more than 1, as for every
    built-in contraction in d <= 3, and the exhaustive displacement scan runs
    only when it does not.  An h that fails the verdict raises: the cone
    would not be known to cover its pairs.
    """
    worst = 0.0
    for d in d_values:
        for name, n, h in rounded_contractions(d, n_values, names):
            if not contraction_check(h, radius, d, report_margin=False).ok:
                raise GuardViolationError(
                    f"{name} rounded at n={n} is not a contraction on the "
                    f"radius-{radius} box"
                )
        worst = max(worst, _cone_deviation(radius, d))
    return worst


# ---------------------------------------------------------------------------
# experiments checks


def experiments_determinism_residual(seed):
    """Identical configs must produce identical record streams."""
    config = ExperimentConfig(seed=seed, n=4, d=2, trials=4, f_name="crease")
    a = commutator_ratio(config)
    b = commutator_ratio(config)
    same = all(
        ra.kind == rb.kind and ra.instance == rb.instance and ra.ratio == rb.ratio
        for ra, rb in zip(a, b)
    ) and len(a) == len(b)
    return 0.0 if same else 1.0


def experiments_summary_margin(seed):
    """Summary max-ratio dominates per-trial ratios; skips are counted."""
    records = commutator_ratio(
        ExperimentConfig(seed=seed, n=5, d=1, trials=6, f_name="euclid-norm")
    )
    summary = records[-1]
    worst = max(
        (r.ratio - summary.ratio for r in records if r.kind == "trial"),
        default=0.0,
    )
    degenerate = commutator_ratio(
        ExperimentConfig(seed=seed, n=1, d=1, trials=3, f_name="identity")
    )
    if degenerate[-1].skipped != 3:
        worst = max(worst, 1.0)
    return max(worst, 0.0)


# ---------------------------------------------------------------------------
# report assembly


def run_identity_suite(seed: int) -> dict:
    """Execute every cross-module identity/property with the given seed.

    The report contains no wall-clock data, so identical inputs produce
    byte-identical reports.
    """
    checks = []

    def add(name, residual, tolerance, details=""):
        checks.append(dict(name=name, passed=bool(residual <= tolerance),
                           residual=float(residual), tolerance=float(tolerance),
                           details=details))

    add("spectral.roundtrip", roundtrip_residual(seed), 1e-8)
    add("spectral.calculus-morphism", morphism_residual(seed), 1e-9)
    add("spectral.calculus-commutes", calculus_commutation_residual(seed), 1e-9)
    add("spectral.sort-determinism", sort_determinism_residual(seed), 0.0,
        "bitwise-identical spectra on repeated calls")
    add("doi.linearity", doi_linearity_residual(seed), 1e-12)
    add("doi.self-adjoint", doi_self_adjoint_residual(seed), 1e-10)
    add("doi.l2-norm-oracle", doi_l2_oracle_residual(seed), 1e-10)
    add("doi.perturbation-identity", perturbation_sweep(seed, instances=12), 1e-9)
    add("doi.divided-difference-bound", divided_difference_bound_residual(seed), 1e-12)
    add("doi.multiplicativity", doi_multiplicativity_residual(seed), 1e-12)
    add("norms.quasi-triangle", quasi_triangle_margin(seed, instances=100), 1e-12)
    add("norms.mu-subadditivity", mu_subadditivity_margin(seed, instances=100), 1e-12)
    add("norms.tensor-kron", tensor_kron_residual(seed), 1e-10)
    add("norms.tensor-weak-bound", tensor_weak_bound_margin(seed), 1e-12)
    add("norms.weak-le-l1", weak_dominated_margin(seed, instances=100), 1e-12)
    add("norms.weak-homogeneity", weak_homogeneity_residual(seed, instances=50), 1e-12)
    add("torus.plancherel", plancherel_residual(seed), 1e-10)
    add("torus.multiplier-composition", multiplier_composition_residual(seed), 1e-12)
    add("torus.l2-contraction", l2_contraction_margin(seed), 1e-12)
    add("torus.fejer-bruteforce", fejer_bruteforce_residual(seed), 1e-14)
    profile = fejer_convergence_profile()
    tail = max(r for order, r in profile if order >= 50)
    add("torus.fejer-convergence", tail, 1e-3,
        "relative L1 deficiency of the Fejer mean at n >= 50x degree")
    add("torus.deleeuw-stability", deleeuw_stability_factor(seed, signals=4), 2.0,
        "max/min spread of weak-L1/L1 ratios across grid doublings")
    add("transference.conjugation", conjugation_sweep(seed, count=8), 1e-9)
    add("transference.isometry", isometry_residual(seed), 1e-10)
    violations, checked = contraction_rounding_sweep(radius=10)
    add("transference.contraction-rounding", float(violations), 0.0,
        f"exhaustive box checks over {checked} rounded contractions")
    add("transference.symbol-agreement", symbol_agreement_sweep(radius=10), 1e-12)
    add("experiments.determinism", experiments_determinism_residual(seed), 0.0,
        "identical configs produce identical record streams")
    add("experiments.summary-accounting", experiments_summary_margin(seed), 0.0,
        "summary dominates trial ratios; degenerate trials are counted")

    return {
        "suite": "oplip-identity-suite",
        "version": 2,
        "seed": int(seed),
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
