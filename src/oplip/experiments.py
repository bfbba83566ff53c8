"""Seeded ratio experiments probing the weak-(1,1) inequalities.

Every stream draws its trial data from substreams of the experiment seed, so
records are identical whatever the worker count, and emits one summary record
holding the maximum observed ratio (an empirical lower bound on the unknown
dimensional constant -- never an asserted upper bound).  Degenerate trials
(zero denominator with zero numerator) are emitted as ``skipped`` records and
counted in the summary.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .doi import block_difference_embed, divided_difference_symbol, doi_apply
from .errors import BadExponentError
from .functions import builtin_function
from .norms import matrix_trace_norm, matrix_weak_l1, schatten_norm, singular_values
from .rng import generator
from .spectral import commutator, joint_diagonalize, apply_function, planted_commuting_tuple

THREADS_ENV = "OPLIP_THREADS"
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.lipschitz_bound is not None and self.lipschitz_bound <= 0:
            raise ValueError("lipschitz bound must be positive")

    def resolve_function(self):
        f = builtin_function(self.f_name, self.d)
        bound = self.lipschitz_bound if self.lipschitz_bound is not None else f.lipschitz
        if bound is None:
            raise ValueError(
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


def worker_count() -> int:
    """OPLIP_THREADS (default 1), clamped to [1, os.cpu_count()]."""
    cap = os.environ.get(THREADS_ENV)
    if cap is None:
        return 1
    return max(1, min(int(cap), os.cpu_count() or 1))


def _map_trials(fn, trials):
    """Run per-trial closures, in declared order, on the configured worker pool."""
    workers = worker_count()
    if workers == 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def _random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_hermitian(n, rng):
    z = _random_matrix(n, rng)
    return (z + z.conj().T) / 2.0


def _summarize(records, config, trial_records):
    ratios = [r.ratio for r in trial_records if r.kind == "trial"]
    skipped = sum(1 for r in trial_records if r.kind == "skipped")
    records.append(
        RatioRecord(
            kind="summary",
            seed=config.seed,
            instance=-1,
            k0=0,
            n=config.n,
            d=config.d,
            f_name=config.f_name,
            numerator=0.0,
            denominator=0.0,
            ratio=max(ratios) if ratios else 0.0,
            skipped=skipped,
        )
    )
    return records


def commutator_ratio(config: ExperimentConfig):
    """weak-L1([f(A), B]) / (L * max_k ||[A_k, B]||_1) per seeded trial."""
    f, bound = config.resolve_function()

    def one(t):
        rng = generator(config.seed, 1, t)
        tup, _, _ = planted_commuting_tuple(
            config.n, config.d, "uniform", seed=int(rng.integers(2**63))
        )
        b = _random_hermitian(config.n, rng)
        js = joint_diagonalize(tup)
        denom = bound * max(
            matrix_trace_norm(commutator(a, b)) for a in tup.arrays()
        )
        if denom == 0.0:
            return RatioRecord("skipped", config.seed, t, 0, config.n, config.d,
                               config.f_name, 0.0, 0.0, 0.0)
        num = matrix_weak_l1(commutator(apply_function(js, f), b))
        return RatioRecord("trial", config.seed, t, 0, config.n, config.d,
                           config.f_name, num, denom, num / denom)

    records = _map_trials(one, config.trials)
    return _summarize(list(records), config, records)


def difference_trial(config: ExperimentConfig, t: int):
    """One difference-ratio trial; returns (record, cross-check residual).

    The cross-check computes f(X) - f(Y) twice: directly, and as the corner
    block of [f(A), B] for the block embedding.
    """
    f, bound = config.resolve_function()
    rng = generator(config.seed, 2, t)
    x, _, _ = planted_commuting_tuple(
        config.n, config.d, "uniform", seed=int(rng.integers(2**63))
    )
    y, _, _ = planted_commuting_tuple(
        config.n, config.d, "uniform", seed=int(rng.integers(2**63))
    )
    direct = (
        apply_function(joint_diagonalize(x), f).data
        - apply_function(joint_diagonalize(y), f).data
    )
    embedded, b = block_difference_embed(x, y)
    corner = commutator(apply_function(joint_diagonalize(embedded), f), b)[
        : config.n, config.n :
    ]
    crosscheck = float(
        np.linalg.norm(direct - corner, "fro") / (1.0 + np.linalg.norm(direct, "fro"))
    )
    denom = bound * max(
        matrix_trace_norm(xa - ya) for xa, ya in zip(x.arrays(), y.arrays())
    )
    if denom == 0.0:
        record = RatioRecord("skipped", config.seed, t, 0, config.n, config.d,
                             config.f_name, 0.0, 0.0, 0.0)
    else:
        num = matrix_weak_l1(direct)
        record = RatioRecord("trial", config.seed, t, 0, config.n, config.d,
                             config.f_name, num, denom, num / denom)
    return record, crosscheck


def difference_ratio(config: ExperimentConfig):
    """weak-L1(f(X) - f(Y)) / (L * max_k ||X_k - Y_k||_1) via the block embedding."""

    def one(t):
        record, crosscheck = difference_trial(config, t)
        if crosscheck > CROSSCHECK_TOL:
            raise RuntimeError(
                f"block-embedding cross-check failed at trial {t}: {crosscheck:.3e}"
            )
        return record

    records = _map_trials(one, config.trials)
    return _summarize(list(records), config, records)


def doi_ratio(config: ExperimentConfig):
    """weak-L1(T_{f_k0}(V)) / (L * ||V||_1), one record per trial and k0."""
    f, bound = config.resolve_function()

    def one(t):
        rng = generator(config.seed, 3, t)
        tup, _, _ = planted_commuting_tuple(
            config.n, config.d, "uniform", seed=int(rng.integers(2**63))
        )
        js = joint_diagonalize(tup)
        v = _random_matrix(config.n, rng)
        denom = bound * matrix_trace_norm(v)
        out = []
        for k0 in range(1, config.d + 1):
            num = matrix_weak_l1(
                doi_apply(js, divided_difference_symbol(f, k0, config.d), v)
            )
            out.append(
                RatioRecord("trial", config.seed, t, k0, config.n, config.d,
                            config.f_name, num, denom, num / denom)
            )
        return out

    nested = _map_trials(one, config.trials)
    records = [r for chunk in nested for r in chunk]
    return _summarize(list(records), config, records)


def lp_ratio(config: ExperimentConfig, p: float):
    """Schatten-p ratio of T_{f_k} for 1 < p < inf."""
    if not 1.0 < p < np.inf:
        raise BadExponentError(f"p must satisfy 1 < p < inf, got {p}")
    f, _ = config.resolve_function()

    def one(t):
        rng = generator(config.seed, 4, t)
        tup, _, _ = planted_commuting_tuple(
            config.n, config.d, "uniform", seed=int(rng.integers(2**63))
        )
        js = joint_diagonalize(tup)
        v = _random_matrix(config.n, rng)
        denom = schatten_norm(singular_values(v), p)
        out = []
        for k0 in range(1, config.d + 1):
            num = schatten_norm(
                singular_values(
                    doi_apply(js, divided_difference_symbol(f, k0, config.d), v)
                ),
                p,
            )
            out.append(
                RatioRecord("trial", config.seed, t, k0, config.n, config.d,
                            config.f_name, num, denom, num / denom)
            )
        return out

    nested = _map_trials(one, config.trials)
    records = [r for chunk in nested for r in chunk]
    return _summarize(list(records), config, records)


def normal_ratio(config: ExperimentConfig):
    """Difference ratio for normal operators X = X_1 + i X_2 through C = R^2.

    The function name is resolved with d = 2 (e.g. ``euclid-norm`` is the
    modulus, ``coordinate:1`` the real part); the denominator uses the trace
    norm of the normal difference X - Y.
    """
    config = replace(config, d=2)
    f, bound = config.resolve_function()

    def one(t):
        rng = generator(config.seed, 5, t)
        x, _, _ = planted_commuting_tuple(
            config.n, 2, "uniform", seed=int(rng.integers(2**63))
        )
        y, _, _ = planted_commuting_tuple(
            config.n, 2, "uniform", seed=int(rng.integers(2**63))
        )
        normal_diff = (x.arrays()[0] - y.arrays()[0]) + 1j * (
            x.arrays()[1] - y.arrays()[1]
        )
        denom = bound * matrix_trace_norm(normal_diff)
        if denom == 0.0:
            return RatioRecord("skipped", config.seed, t, 0, config.n, 2,
                               config.f_name, 0.0, 0.0, 0.0)
        diff = (
            apply_function(joint_diagonalize(x), f).data
            - apply_function(joint_diagonalize(y), f).data
        )
        num = matrix_weak_l1(diff)
        return RatioRecord("trial", config.seed, t, 0, config.n, 2,
                           config.f_name, num, denom, num / denom)

    records = _map_trials(one, config.trials)
    return _summarize(list(records), config, records)
