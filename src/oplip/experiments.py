"""Seeded ratio experiments probing the weak-(1,1) inequalities.

Trial ``t`` of a stream draws its data from substream ``t`` of the experiment
seed, and trials run in trial order.  Every stream emits one summary record
holding the maximum observed ratio (an empirical lower bound on the unknown
dimensional constant -- never an asserted upper bound).  Degenerate trials
(zero denominator) are emitted as ``skipped`` records and counted in the
summary.  Every stream takes its joint spectra from the plant that
``planted_commuting_tuple`` returns; only the difference stream's cross-check
recovers one with ``joint_diagonalize``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .doi import block_difference_embed, divided_difference_symbol, doi_apply
from .errors import BadExponentError, DomainError, GuardViolationError
from .functions import builtin_function
from .norms import matrix_trace_norm, matrix_weak_l1, schatten_norm, singular_values
from .rng import generator
from .spectral import (
    JointSpectrum,
    apply_function,
    commutator,
    joint_diagonalize,
    planted_commuting_tuple,
)

CROSSCHECK_TOL = 1e-9


@dataclass
class ExperimentConfig:
    seed: int = 0
    n: int = 8
    d: int = 1
    trials: int = 10
    f_name: str = "euclid-norm"
    lipschitz_bound: float = None

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise DomainError(f"n and d must be >= 1, got n={self.n}, d={self.d}")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.lipschitz_bound is not None and self.lipschitz_bound <= 0:
            raise DomainError("lipschitz bound must be positive")

    def resolve_function(self):
        f = builtin_function(self.f_name, self.d)
        bound = self.lipschitz_bound if self.lipschitz_bound is not None else f.lipschitz
        if bound is None:
            raise DomainError(
                f"function {self.f_name!r} has no exact Lipschitz constant; "
                "pass --lipschitz"
            )
        return f, float(bound)


@dataclass
class RatioRecord:
    kind: str  # trial | skipped | summary
    seed: int
    instance: int
    k0: int
    n: int
    d: int
    f_name: str
    numerator: float
    denominator: float
    ratio: float
    skipped: int = 0

    FIELDS = (
        "kind", "seed", "instance", "k0", "n", "d", "f_name",
        "numerator", "denominator", "ratio", "skipped",
    )


def _record(config, t, k0, num, denom):
    """The trial record, or a skipped one when the denominator is 0."""
    if denom == 0.0:
        return RatioRecord("skipped", config.seed, t, k0, config.n, config.d,
                           config.f_name, 0.0, 0.0, 0.0)
    return RatioRecord("trial", config.seed, t, k0, config.n, config.d,
                       config.f_name, num, denom, num / denom)


def _stream(config, substream, trial):
    """Records of ``trial(t, rng)`` for t in trial order, then the summary.

    ``rng`` is substream ``t`` of ``substream``; ``trial`` returns a list of
    ``(k0, numerator, denominator)``.
    """
    records = [
        _record(config, t, k0, num, denom)
        for t in range(config.trials)
        for k0, num, denom in trial(t, generator(config.seed, substream, t))
    ]
    ratios = [r.ratio for r in records if r.kind == "trial"]
    records.append(
        RatioRecord("summary", config.seed, -1, 0, config.n, config.d, config.f_name,
                    0.0, 0.0, max(ratios) if ratios else 0.0,
                    skipped=len(records) - len(ratios))
    )
    return records


def _planted(config, rng):
    """A planted tuple and its joint spectrum, taken from the plant itself."""
    tup, basis, lambdas = planted_commuting_tuple(
        config.n, config.d, "uniform", seed=int(rng.integers(2**63))
    )
    return tup, JointSpectrum(basis=basis, eigenvalues=lambdas, provenance=tup)


def _random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_hermitian(n, rng):
    z = _random_matrix(n, rng)
    return (z + z.conj().T) / 2.0


def _function_difference(x_js, y_js, f):
    return apply_function(x_js, f).data - apply_function(y_js, f).data


def commutator_ratio(config: ExperimentConfig):
    """weak-L1([f(A), B]) / (L * max_k ||[A_k, B]||_1) per seeded trial."""
    f, bound = config.resolve_function()

    def trial(t, rng):
        tup, js = _planted(config, rng)
        b = _random_hermitian(config.n, rng)
        denom = bound * max(
            matrix_trace_norm(commutator(a, b)) for a in tup.arrays()
        )
        num = matrix_weak_l1(commutator(apply_function(js, f), b))
        return [(0, num, denom)]

    return _stream(config, 1, trial)


def difference_ratio(config: ExperimentConfig):
    """weak-L1(f(X) - f(Y)) / (L * max_k ||X_k - Y_k||_1), cross-checked.

    f(X) - f(Y) comes from the planted spectra and is checked against the
    corner block of [f(A), B] for the block embedding, whose spectrum
    ``joint_diagonalize`` recovers independently; a relative residual above
    ``CROSSCHECK_TOL`` raises GuardViolationError.
    """
    f, bound = config.resolve_function()

    def trial(t, rng):
        x, x_js = _planted(config, rng)
        y, y_js = _planted(config, rng)
        direct = _function_difference(x_js, y_js, f)
        embedded, b = block_difference_embed(x, y)
        corner = commutator(apply_function(joint_diagonalize(embedded), f), b)[
            : config.n, config.n :
        ]
        crosscheck = float(
            np.linalg.norm(direct - corner, "fro") / (1.0 + np.linalg.norm(direct, "fro"))
        )
        if crosscheck > CROSSCHECK_TOL:
            raise GuardViolationError(
                f"block-embedding cross-check failed at trial {t}: {crosscheck:.3e}"
            )
        denom = bound * max(
            matrix_trace_norm(xa - ya) for xa, ya in zip(x.arrays(), y.arrays())
        )
        return [(0, matrix_weak_l1(direct), denom)]

    return _stream(config, 2, trial)


def _symbol_trial(config, f, numerator, denominator):
    """Trial giving ``(k0, numerator(T_{f_k0}(V)), denominator(V))`` per k0."""

    def trial(t, rng):
        _, js = _planted(config, rng)
        v = _random_matrix(config.n, rng)
        denom = denominator(v)
        return [
            (k0, numerator(doi_apply(js, divided_difference_symbol(f, k0, config.d), v)),
             denom)
            for k0 in range(1, config.d + 1)
        ]

    return trial


def doi_ratio(config: ExperimentConfig):
    """weak-L1(T_{f_k0}(V)) / (L * ||V||_1), one record per trial and k0."""
    f, bound = config.resolve_function()
    trial = _symbol_trial(config, f, matrix_weak_l1,
                          lambda v: bound * matrix_trace_norm(v))
    return _stream(config, 3, trial)


def lp_ratio(config: ExperimentConfig, p: float):
    """||T_{f_k0}(V)||_p / (L * ||V||_p) for 1 < p < inf, one record per trial and k0."""
    if not 1.0 < p < np.inf:
        raise BadExponentError(f"p must satisfy 1 < p < inf, got {p}")
    f, bound = config.resolve_function()

    def norm(m):
        return schatten_norm(singular_values(m), p)

    return _stream(config, 4, _symbol_trial(config, f, norm, lambda v: bound * norm(v)))


def normal_ratio(config: ExperimentConfig):
    """Difference ratio for normal operators X = X_1 + i X_2 through C = R^2.

    The function name is resolved with d = 2 (e.g. ``euclid-norm`` is the
    modulus, ``coordinate:1`` the real part); the denominator uses the trace
    norm of the normal difference X - Y.
    """
    config = replace(config, d=2)
    f, bound = config.resolve_function()

    def trial(t, rng):
        x, x_js = _planted(config, rng)
        y, y_js = _planted(config, rng)
        normal_diff = (x.arrays()[0] - y.arrays()[0]) + 1j * (
            x.arrays()[1] - y.arrays()[1]
        )
        denom = bound * matrix_trace_norm(normal_diff)
        return [(0, matrix_weak_l1(_function_difference(x_js, y_js, f)), denom)]

    return _stream(config, 5, trial)
