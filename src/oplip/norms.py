"""Singular value profiles and the norms built on them.

A profile is the finite step function t -> s_i (value s_i on the i-th weight
interval): the decreasing rearrangement of singular values weighted by the
measure of each step.  Plain matrices carry unit weights; grid signals carry
the cell volume, so the same profile arithmetic serves both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadExponentError, DomainError


@dataclass
class SingularValueProfile:
    """Descending nonnegative values with positive step weights.

    A scalar weight is a constant step weight; it is kept as a read-only
    broadcast view, so equal-cell grid profiles allocate no weight array.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim == 0:
            self.weights = np.broadcast_to(self.weights, self.values.shape)
        if self.values.ndim != 1 or self.values.shape != self.weights.shape:
            raise DomainError("values and weights must be 1-d and of equal length")
        if self.values.size and np.any(np.diff(self.values) > 0):
            raise DomainError("values must be sorted in descending order")
        if np.any(self.values < 0):
            raise DomainError("values must be nonnegative")
        if np.any(self.weights <= 0):
            raise DomainError("weights must be positive")

    def scaled(self, c):
        """Profile of c*x for c >= 0 (values scaled, weights kept)."""
        if c < 0:
            raise DomainError("scale must be nonnegative")
        return SingularValueProfile(self.values * c, self.weights.copy())


def profile_from_values(values, weights=None):
    """Build a profile from unordered values; sorts descending, keeps weight pairing."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if weights is None:
        weights = np.ones_like(values)
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    order = np.argsort(-values, kind="stable")
    return SingularValueProfile(values[order], weights[order])


def singular_values(x) -> SingularValueProfile:
    """Singular value profile of a matrix (descending, unit weights)."""
    x = np.asarray(x)
    s = np.linalg.svd(x, compute_uv=False)
    return SingularValueProfile(s, np.ones_like(s))


def mu_at(profile: SingularValueProfile, t: float) -> float:
    """Value of the singular value step function at t >= 0.

    Returns s_i on the i-th weight interval (right-continuous) and 0 beyond
    the total weight.
    """
    if t < 0:
        raise DomainError("mu is defined for t >= 0 only")
    cum = np.cumsum(profile.weights)
    idx = int(np.searchsorted(cum, t, side="right"))
    if idx >= profile.values.size:
        return 0.0
    return float(profile.values[idx])


def schatten_norm(profile: SingularValueProfile, q) -> float:
    """(sum_i w_i s_i^q)^(1/q); max value for q = inf."""
    if q == np.inf:
        return float(profile.values[0]) if profile.values.size else 0.0
    q = float(q)
    if q < 1:
        raise BadExponentError(f"exponent must be >= 1 or inf, got {q}")
    return float(np.sum(profile.weights * profile.values**q) ** (1.0 / q))


def weak_l1(profile: SingularValueProfile) -> float:
    """sup_t t*mu(t): attained at right endpoints of the weight steps."""
    if profile.values.size == 0:
        return 0.0
    return float(np.max(np.cumsum(profile.weights) * profile.values))


def tensor_profile(p: SingularValueProfile, q: SingularValueProfile) -> SingularValueProfile:
    """Profile of a tensor product: all pairwise value products, weights multiplied."""
    vals = np.outer(p.values, q.values).ravel()
    wts = np.outer(p.weights, q.weights).ravel()
    order = np.argsort(-vals, kind="stable")
    return SingularValueProfile(vals[order], wts[order])


def matrix_trace_norm(x) -> float:
    return schatten_norm(singular_values(x), 1)


def matrix_weak_l1(x) -> float:
    return weak_l1(singular_values(x))

