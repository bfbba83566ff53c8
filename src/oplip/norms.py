"""Singular value profiles and the norms built on them.

A profile is the finite step function t -> s_k on the k-th step of one
common measure, the cell: the decreasing rearrangement of singular values.
Plain matrices have cell 1; grid signals have the grid's cell volume, so the
same profile arithmetic serves both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadExponentError, DomainError, NonFiniteError


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
    other matrix goes through the SVD.  A NaN or infinite entry raises
    ``NonFiniteError`` first.
    """
    x = np.asarray(x)
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
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.size == 0:
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
    """(cell * sum_k s_k^q)^(1/q); max value for q = inf."""
    if q == np.inf:
        return float(profile.values[0]) if profile.values.size else 0.0
    q = float(q)
    if not q >= 1:
        raise BadExponentError(f"exponent must be >= 1 or inf, got {q}")
    return float((profile.cell * np.sum(profile.values**q)) ** (1.0 / q))


def weak_l1(profile: SingularValueProfile) -> float:
    """sup_t t*mu(t) = cell * max_k k*s_k, attained at a step's right end."""
    if profile.values.size == 0:
        return 0.0
    steps = np.arange(1.0, profile.values.size + 1.0)
    steps *= profile.values
    return profile.cell * float(np.max(steps))


def tensor_profile(p: SingularValueProfile, q: SingularValueProfile) -> SingularValueProfile:
    """Profile of a tensor product: all pairwise value products, cells multiplied."""
    return SingularValueProfile(np.outer(p.values, q.values), p.cell * q.cell)


def matrix_trace_norm(x) -> float:
    return schatten_norm(singular_values(x), 1)


def matrix_weak_l1(x) -> float:
    return weak_l1(singular_values(x))

