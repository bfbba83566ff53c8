"""Singular value profiles and the norms built on them.

A profile is the finite step function t -> s_k on the k-th step of one
common measure, the cell: the decreasing rearrangement of singular values.
Plain matrices have cell 1; grid signals have the grid's cell volume, so the
same profile arithmetic serves both.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadExponentError, DimMismatchError, DomainError, NonFiniteError

_WEAK_BLOCK = 1 << 13  # sorted values per step multiply in _sorted_weak_l1


@dataclass
class SingularValueProfile:
    """Nonnegative values on steps of one positive measure ``cell``.

    Values of any shape and order are stored flat and sorted descending, so
    every profile is a decreasing rearrangement and no caller sorts first.
    """

    values: np.ndarray
    cell: float = 1.0

    def __post_init__(self):
        self.values = np.sort(np.asarray(self.values, dtype=float), axis=None)[::-1]
        self.cell = float(self.cell)
        if not np.all(self.values >= 0):
            raise DomainError("values must be nonnegative (NaN is refused)")
        if not 0.0 < self.cell < np.inf:
            raise DomainError(f"cell must be finite and positive, got {self.cell}")

    def scaled(self, c):
        """Profile of c*x for c >= 0 (values scaled, cell kept)."""
        if c < 0:
            raise DomainError("scale must be nonnegative")
        return SingularValueProfile(self.values * c, self.cell)


def singular_values(x) -> SingularValueProfile:
    """Singular value profile of a matrix (descending, cell 1).

    A square x that equals x* bitwise has the moduli of its eigenvalues as
    singular values, taken from ``eigvalsh``; one that equals -x* bitwise
    does so through the Hermitian 1j*x (multiplying by 1j is exact).  Any
    other matrix goes through the SVD.  An input that is not 2-d raises
    ``DimMismatchError`` and a NaN or infinite entry ``NonFiniteError``.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise DimMismatchError(f"expected a matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("matrix has a NaN or infinite entry")
    h = _hermitian_form(x)
    s = np.linalg.svd(x, compute_uv=False) if h is None else np.abs(np.linalg.eigvalsh(h))
    return SingularValueProfile(s)


def _hermitian_form(x):
    """x if x == x* bitwise, 1j*x if x == -x* bitwise, else None.

    The first column against the first row rules a form out before the full
    comparison, which reads x in transposed order.
    """
    if x.shape[0] != x.shape[1] or x.size == 0:
        return None
    col, row = x[:, 0], x[0].conj()
    if np.array_equal(col, row) and np.array_equal(x, x.conj().T):
        return x
    if np.array_equal(col, -row):
        h = 1j * x
        if np.array_equal(h, h.conj().T):
            return h
    return None


def mu_at(profile: SingularValueProfile, t: float) -> float:
    """Value of the singular value step function at t >= 0.

    Returns s_k on the k-th cell step [(k-1)*cell, k*cell) (right-continuous)
    and 0 beyond the last step.
    """
    if not t >= 0:
        raise DomainError(f"mu is defined for t >= 0 only, got {t}")
    idx = t // profile.cell
    if not idx < profile.values.size:
        return 0.0
    return float(profile.values[int(idx)])


def schatten_norm(profile: SingularValueProfile, q) -> float:
    """(cell * sum_k s_k^q)^(1/q); max value for q = inf.

    The values are divided by s_1 first unless s_1 is 0 or s_1^q lies in
    [2^-900, 2^960]: there no power overflows and none that matters
    underflows, so the plain sum serves.  A norm past the float range reads
    inf, with no warning.
    """
    top = float(profile.values[0]) if profile.values.size else 0.0
    if q == np.inf:
        return top
    q = float(q)
    if not q >= 1:
        raise BadExponentError(f"exponent must be >= 1 or inf, got {q}")
    e = math.frexp(top)[1]  # top in [2^(e-1), 2^e)
    if top == 0.0 or (-900 <= q * (e - 1) and q * e <= 960):
        return float((profile.cell * np.sum(profile.values**q)) ** (1.0 / q))
    return top * float((profile.cell * np.sum((profile.values / top) ** q)) ** (1.0 / q))


def weak_l1(profile: SingularValueProfile) -> float:
    """sup_t t*mu(t) = cell * max_k k*s_k, attained at a step's right end.

    A k*s_k past the float range reads inf, with no warning.
    """
    if profile.values.size == 0:
        return 0.0
    steps = np.arange(1.0, profile.values.size + 1.0)
    with np.errstate(over="ignore"):
        steps *= profile.values
    return profile.cell * float(np.max(steps))


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


def tensor_profile(p: SingularValueProfile, q: SingularValueProfile) -> SingularValueProfile:
    """Profile of a tensor product: all pairwise value products, cells multiplied."""
    return SingularValueProfile(np.outer(p.values, q.values), p.cell * q.cell)


def matrix_trace_norm(x) -> float:
    return schatten_norm(singular_values(x), 1)


def matrix_weak_l1(x) -> float:
    return weak_l1(singular_values(x))

