"""Seeded ratio experiments probing the weak-(1,1) inequalities.

Trial ``t`` of a stream draws its data from substream ``t`` of the experiment
seed, and trials run in trial order.  Every stream emits one summary record
holding the maximum observed ratio (an empirical lower bound on the unknown
dimensional constant -- never an asserted upper bound).  Degenerate trials
(zero denominator) are emitted as ``skipped`` records and counted in the
summary.  A trial whose numerator, denominator or ratio is not finite raises
NonFiniteError.

Every stream measures from the plant: the basis U and eigenvalue table
Lambda it draws, U within the unitarity gate of a joint spectrum.  Both
sides of each inequality are unitarily invariant, so the commutator, doi and
Schatten-p streams measure Schur products on U*BU or U*VU and build no
tuple, and f(X) is U diag(f(Lambda)) U*.  Tuples are built only where
X_k - Y_k is measured (the difference and normal streams), and
``joint_diagonalize`` runs only in the difference stream's cross-check.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .doi import block_difference_embed, divided_differences
from .errors import (
    BadExponentError,
    DomainError,
    GuardViolationError,
    NonFiniteError,
    integer_at_least,
)
from .functions import builtin_function
from .norms import matrix_trace_norm, matrix_weak_l1, schatten_norm, singular_values
from .rng import generator
from .spectral import (
    HermitianMatrix,
    _check_unitary,
    _frob,
    _plant,
    apply_function,
    commutator,
    evaluate_rows,
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
        self.seed = integer_at_least("seed", self.seed, 0)
        self.n = integer_at_least("n", self.n, 1)
        self.d = integer_at_least("d", self.d, 1)
        self.trials = integer_at_least("trials", self.trials, 1)
        if self.lipschitz_bound is not None and not 0 < self.lipschitz_bound < np.inf:
            raise DomainError(f"lipschitz bound must be finite and positive, "
                              f"got {self.lipschitz_bound}")

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
    """The trial record, or a skipped one when the denominator is 0.

    A numerator, denominator or ratio that is not finite raises NonFiniteError.
    """
    ratio = num / denom if denom else 0.0
    if not all(map(math.isfinite, (num, denom, ratio))):
        raise NonFiniteError(f"trial {t} is not finite: numerator {num}, "
                             f"denominator {denom}")
    if denom == 0.0:
        return RatioRecord("skipped", config.seed, t, k0, config.n, config.d,
                           config.f_name, 0.0, 0.0, 0.0)
    return RatioRecord("trial", config.seed, t, k0, config.n, config.d,
                       config.f_name, num, denom, ratio)


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


def _gated_plant(config, rng):
    """The plant's basis U and n x d eigenvalue table, U within the unitarity gate."""
    basis, lambdas = _plant(config.n, config.d, "uniform", int(rng.integers(2**63)))
    _check_unitary(basis)
    return basis, lambdas


def _planted_tuple(config, f, rng):
    """A planted tuple X and f(X) = U diag(f(lambda_i)) U*, U within the unitarity gate."""
    tup, basis, lambdas = planted_commuting_tuple(
        config.n, config.d, "uniform", seed=int(rng.integers(2**63))
    )
    _check_unitary(basis)
    return tup, HermitianMatrix((basis * evaluate_rows(f, lambdas)) @ basis.conj().T).data


def _random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_hermitian(n, rng):
    z = _random_matrix(n, rng)
    return (z + z.conj().T) / 2.0


def _schur_commutator(values, b):
    """U*[A, B]U = (x_i - x_j) o b for A = U diag(x) U* and b = U*BU.

    x_j - x_i is exactly -(x_i - x_j), so for a bitwise Hermitian b the
    product is bitwise skew-Hermitian.  A difference or product that
    overflows reads inf or NaN, which ``singular_values`` refuses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (values[:, np.newaxis] - values) * b


def commutator_ratio(config: ExperimentConfig):
    """weak-L1([f(A), B]) / (L * max_k ||[A_k, B]||_1) per seeded trial.

    Measured in the plant's basis U, with the draws ``planted_commuting_tuple``
    makes: for B' = U*BU, [A_k, B] is unitarily equivalent to
    (lambda_i^k - lambda_j^k) o B' and [f(A), B] to (f_i - f_j) o B', so no
    tuple, f(A) or commutator is formed.  U keeps the unitarity gate of a
    joint spectrum.
    """
    f, bound = config.resolve_function()

    def trial(t, rng):
        basis, lambdas = _gated_plant(config, rng)
        b = HermitianMatrix(basis.conj().T @ _random_hermitian(config.n, rng) @ basis).data
        denom = bound * max(
            matrix_trace_norm(_schur_commutator(column, b)) for column in lambdas.T
        )
        num = matrix_weak_l1(_schur_commutator(evaluate_rows(f, lambdas), b))
        return [(0, num, denom)]

    return _stream(config, 1, trial)


def difference_ratio(config: ExperimentConfig):
    """weak-L1(f(X) - f(Y)) / (L * max_k ||X_k - Y_k||_1), cross-checked.

    f(X) - f(Y) comes from the plants' (U, Lambda) and is checked against the
    corner block of [f(A), B] for the block embedding, whose spectrum
    ``joint_diagonalize`` recovers independently; a relative residual above
    ``CROSSCHECK_TOL`` raises GuardViolationError.
    """
    f, bound = config.resolve_function()

    def trial(t, rng):
        x, fx = _planted_tuple(config, f, rng)
        y, fy = _planted_tuple(config, f, rng)
        direct = fx - fy
        embedded, b = block_difference_embed(x, y)
        corner = commutator(apply_function(joint_diagonalize(embedded), f), b)[
            : config.n, config.n :
        ]
        crosscheck = _frob(direct - corner) / (1.0 + _frob(direct))
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
    """Trial giving ``(k0, numerator(T_{f_k0}(V)), denominator(V))`` per k0.

    The numerator is unitarily invariant, so it is measured on
    f_k0 o U*VU in the plant's basis U, with no tuple; one stack of
    divided differences serves every k0.
    """

    def trial(t, rng):
        basis, lambdas = _gated_plant(config, rng)
        v = _random_matrix(config.n, rng)
        denom = denominator(v)
        w = basis.conj().T @ v @ basis
        table = divided_differences(lambdas, f)
        return [(k0, numerator(tk * w), denom) for k0, tk in enumerate(table, 1)]

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
        x, fx = _planted_tuple(config, f, rng)
        y, fy = _planted_tuple(config, f, rng)
        normal_diff = (x.arrays()[0] - y.arrays()[0]) + 1j * (
            x.arrays()[1] - y.arrays()[1]
        )
        denom = bound * matrix_trace_norm(normal_diff)
        return [(0, matrix_weak_l1(fx - fy), denom)]

    return _stream(config, 5, trial)
