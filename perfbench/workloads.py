"""One benchmark pass: build a workload's operations from the seed, run and check each.

Run as a script, this is one pass in a process of its own, so the pass owns
its set-up time, its peak RSS and every in-process cache (such as the
`lru_cache` on the contraction box) -- nothing carries over between passes:

    PYTHONPATH=src python3 perfbench/workloads.py --workload sweep --seed 0 \
        --trace 0 --started <time.monotonic() of the caller>

It prints one JSON object: the pass wall time, every operation's latency, the
failure count, set-up time, peak RSS and, when traced, the per-layer numbers.
An operation fails when it raises or when its output misses its tolerance.
"""

import argparse
import functools
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from oplip import cli, doi, functions, spectral, suite, torus, transference
from oplip.rng import generator

from calibrate import CALIBRATION
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

RATIO_RTOL = 1e-9  # the regression-pin tolerance of the ratio sweeps


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# sweep: CLI ratio sweeps, checked against the planted spectrum.

# Three commutator invocations per difference invocation keep op_ms_p50 and
# op_ms_p90 among the commutator invocations, not on the edge of the two.
# Twenty-four invocations average out how much Jacobi work a seed's inputs take.
SWEEP_COMMANDS = (
    ("ratio-commutator", 64, 3, "euclid-norm"),
    ("ratio-commutator", 64, 3, "euclid-norm"),
    ("ratio-commutator", 64, 3, "euclid-norm"),
    ("ratio-difference", 32, 2, "max-abs"),
) * 6
SWEEP_TRIALS = 1  # short invocations give each one a sample in every pass
# Oracle forms of the swept functions, evaluated row-wise on planted spectra.
ORACLE_F = {
    "euclid-norm": lambda lam: np.linalg.norm(lam, axis=1),
    "max-abs": lambda lam: np.max(np.abs(lam), axis=1),
}


def _svals(x):
    return np.linalg.svd(x, compute_uv=False)


def _weak_l1(x):
    s = _svals(x)
    return float(np.max(np.arange(1, s.size + 1) * s))


def _planted(rng, n, d, f_name):
    """The tuple a trial draws from ``rng`` and f of it through the planted basis."""
    tup, basis, lambdas = spectral.planted_commuting_tuple(
        n, d, "uniform", seed=int(rng.integers(2**63)))
    f_a = (basis * ORACLE_F[f_name](lambdas)) @ basis.conj().T
    return tup.arrays(), f_a


def oracle_ratio(command, seed, t, n, d, f_name):
    """Trial ``t``'s ratio without joint diagonalization (both f are 1-Lipschitz)."""
    if command == "ratio-commutator":
        rng = generator(seed, 1, t)
        arrays, f_a = _planted(rng, n, d, f_name)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = (z + z.conj().T) / 2.0
        num = _weak_l1(f_a @ b - b @ f_a)
        denom = max(float(np.sum(_svals(a @ b - b @ a))) for a in arrays)
    else:
        rng = generator(seed, 2, t)
        xs, f_x = _planted(rng, n, d, f_name)
        ys, f_y = _planted(rng, n, d, f_name)
        num = _weak_l1(f_x - f_y)
        denom = max(float(np.sum(_svals(x - y))) for x, y in zip(xs, ys))
    return num / denom


def _run_cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"oplip {argv[0]} exited with {code}")
    return argv[argv.index("--out") + 1]


def _check_ratio_file(command, seed, n, d, f_name, path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    trials = [r for r in records if r["kind"] == "trial"]
    summary = records[-1]
    if (len(trials) != SWEEP_TRIALS or len(records) != SWEEP_TRIALS + 1
            or summary["kind"] != "summary" or summary["skipped"] != 0
            or summary["ratio"] != max(r["ratio"] for r in trials)):
        return False
    for r in trials:
        expected = oracle_ratio(command, seed, r["instance"], n, d, f_name)
        if not abs(r["ratio"] - expected) <= RATIO_RTOL * abs(expected):
            return False
    return True


def sweep_ops(seed, outdir):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i, (command, n, d, f_name) in enumerate(SWEEP_COMMANDS):
        op_seed = int(rng.integers(2**31))
        argv = [command, "--seed", str(op_seed), "--n", str(n), "--d", str(d),
                "--f", f_name, "--trials", str(SWEEP_TRIALS),
                "--out", str(Path(outdir) / f"op{i}.jsonl")]
        ops.append(Op(command, functools.partial(_run_cli, argv),
                      functools.partial(_check_ratio_file, command, op_seed, n, d, f_name)))
    return ops


# ---------------------------------------------------------------------------
# verify: acceptance criteria 1, 2, 6 and 10, one instance per operation.

# The counts place op_ms_p50 among the Schur instances (one size, so one
# latency cluster) and op_ms_p90 among the de Leeuw signals, whose neighbours
# are the mid-sized perturbation instances, away from the edges of clusters.
# Every family runs twice that many instances, which keeps those positions and
# averages out how much work a seed's inputs take.
PERTURBATION_INSTANCES = 24  # each (n, d) pair of the cycles below twice
PERTURBATION_SIZES = (4, 8, 16, 32)
CONJUGATION_INSTANCES = 16
CONJUGATION_GRID = 64
SCHUR_INSTANCES = 32
SCHUR_SIZE = 6
DELEEUW_SIGNALS = 12
DELEEUW_GRIDS = (32, 64, 128)


def _perturbation(tup, b):
    js = spectral.joint_diagonalize(tup)
    worst = 0.0
    for name in functions.experiment_function_names(js.d):
        f = functions.builtin_function(name, js.d)
        worst = max(worst, doi.perturbation_residual(js, f, f.lipschitz, b)[2])
    return worst


def _conjugation(tup, h, v, k0):
    it = transference.integer_tuple(tup)
    return transference.verify_conjugation(it, h, v, CONJUGATION_GRID, k0)


def _schur_l2(tup, name, k0):
    d = tup.d
    js = spectral.joint_diagonalize(tup)
    xi = doi.divided_difference_symbol(functions.builtin_function(name, d), k0, d)
    direct = doi.doi_l2_norm(js, xi)
    dense = float(_svals(doi.doi_operator_matrix(js, xi))[0])
    return abs(direct - dense) / (1.0 + dense)


def _deleeuw_spread(seed):
    (ratios,) = suite.deleeuw_ratios(seed, sizes=DELEEUW_GRIDS, signals=1, d=1)
    return max(ratios.values()) / min(ratios.values())


def _at_most(tol, value):
    return value <= tol


def verify_ops(seed, _outdir):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i in range(PERTURBATION_INSTANCES):
        n, d = PERTURBATION_SIZES[i % 4], 1 + i % 3
        tup, _, _ = spectral.planted_commuting_tuple(
            n, d, "uniform", seed=int(rng.integers(2**63)))
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ops.append(Op("perturbation", functools.partial(_perturbation, tup, (z + z.conj().T) / 2),
                      functools.partial(_at_most, 1e-9)))
    instances = suite.conjugation_instances(int(rng.integers(2**31)), CONJUGATION_INSTANCES)
    for it, h, _, v, k0 in instances:
        # Re-deriving the integer tuple inside the operation keeps the
        # joint diagonalization of clustered integer spectra in the timing.
        ops.append(Op("conjugation",
                      functools.partial(_conjugation, it.spectrum.provenance, h, v, k0),
                      functools.partial(_at_most, 1e-9)))
    for i in range(SCHUR_INSTANCES):
        d = 1 + i % 3
        tup, _, _ = spectral.planted_commuting_tuple(
            SCHUR_SIZE, d, "uniform", seed=int(rng.integers(2**63)))
        name = ("euclid-norm", "crease", "max-abs")[i % 3]
        ops.append(Op("schur-l2", functools.partial(_schur_l2, tup, name, 1 + i % d),
                      functools.partial(_at_most, 1e-10)))
    for _ in range(DELEEUW_SIGNALS):
        ops.append(Op("deleeuw", functools.partial(_deleeuw_spread, int(rng.integers(2**31))),
                      lambda spread: spread < 2.0))
    return ops


# ---------------------------------------------------------------------------
# lattice: criteria 3, 4 and 9.  d = 1 runs in full, one operation per
# rounding level over every contraction; for d = 2 the seed picks the rounding
# levels (one operation per contraction and level), the contractions of the
# symbol-agreement check and the probed signal.  The CLI's report_margin=True
# path is left out.  The d = 2 contraction checks, one latency cluster, then
# hold both op_ms_p50 and op_ms_p90, clear of the edges of the cheap d = 1
# operations and of the few slow ones.

LATTICE_RADIUS = 30
ROUNDINGS = range(1, 9)
CONTRACTION_LEVELS_D2 = 3  # rounding levels drawn for the d = 2 contraction checks
AGREEMENT_NAMES_D2 = 3  # contractions drawn for the d = 2 symbol-agreement check
PROBE_SPANS = {1: 32.0, 2: 16.0}  # Gaussian width l per torus dimension
PROBE_TERMS = 2  # seeded frequencies besides the constant term


def _contraction(f, n, d):
    h = transference.round_contraction(f, n)
    return transference.contraction_check(h, LATTICE_RADIUS, d, report_margin=False)


def _contractions(fs, n, d):
    return [_contraction(f, n, d) for f in fs]


def _symbol_agreement(d, n, names):
    return suite.symbol_agreement_sweep(d_values=(d,), radius=LATTICE_RADIUS,
                                        n_values=(n,), names=names)


def _probe_signal(rng, d_torus, grid=16):
    coeffs = np.zeros((grid,) * d_torus + (1, 1), dtype=complex)
    coeffs[torus.frequency_index(np.zeros(d_torus, int), grid)] = 1.0
    while np.count_nonzero(coeffs) < PROBE_TERMS + 1:
        k = rng.integers(-3, 4, size=d_torus)
        index = torus.frequency_index(k, grid)
        if coeffs[index] == 0:
            coeffs[index] = rng.uniform(0.1, 0.4) * np.exp(2j * np.pi * rng.uniform())
    return torus.signal_from_coefficients(coeffs)


def _probe(w, spread):
    return torus.periodization_probe(w, spread, 8.0 * spread, torus.TWO_PI / 64.0)


def _pick(rng, items, count):
    return sorted(rng.choice(list(items), size=count, replace=False).tolist())


def lattice_ops(seed, _outdir):
    rng = np.random.default_rng([seed, 3])
    ops = []
    d1 = [functions.builtin_function(name, 1) for name in functions.contraction_names(1)]
    for n in ROUNDINGS:
        ops.append(Op("contraction", functools.partial(_contractions, d1, n, 1),
                      lambda reports: all(report.ok for report in reports)))
    for name in functions.contraction_names(2):
        f = functions.builtin_function(name, 2)
        for n in _pick(rng, ROUNDINGS, CONTRACTION_LEVELS_D2):
            ops.append(Op("contraction", functools.partial(_contraction, f, n, 2),
                          lambda report: report.ok))
    agreement = [(1, n, None) for n in ROUNDINGS]
    agreement.append((2, int(rng.integers(1, 9)),
                      _pick(rng, functions.contraction_names(2), AGREEMENT_NAMES_D2)))
    for args in agreement:
        ops.append(Op("symbol-agreement", functools.partial(_symbol_agreement, *args),
                      functools.partial(_at_most, 1e-12)))
    for d_torus, spread in PROBE_SPANS.items():
        ops.append(Op("periodization",
                      functools.partial(_probe, _probe_signal(rng, d_torus), spread),
                      lambda result: abs(result.ratio - 1.0) <= 0.05))
    return ops


OP_LISTS = {"sweep": sweep_ops, "verify": verify_ops, "lattice": lattice_ops}


def run_pass(ops, tracer, calibrate=None):
    """Run and check every operation, in order.

    Returns the pass wall time, each operation's latency (``op_s``) and its
    latency plus check time (``step_s``), and the failure count.  With a
    ``calibrate`` kernel, it also returns the kernel's time before each
    operation (``cal_s``); the wall time leaves those out.
    """
    op_s, step_s, cal_s = [], [], []
    failed = 0
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if calibrate is not None:
            began = time.perf_counter()
            calibrate()
            cal_s.append(time.perf_counter() - began)
        began = time.perf_counter()
        ran = None
        try:
            result = op.run()
            ran = time.perf_counter()
            with tracer.paused():
                ok = bool(op.check(result))
        except Exception:  # a raising operation or check is a failed operation
            traceback.print_exc(file=sys.stderr)
            ok = False
        done = time.perf_counter()
        op_s.append((ran or done) - began)
        step_s.append(done - began)
        if not ok:
            failed += 1
            print(f"operation {index} ({op.kind}) failed", file=sys.stderr)
    return {"wall_s": time.perf_counter() - start - sum(cal_s), "op_s": op_s,
            "step_s": step_s, "cal_s": cal_s, "attempted": len(ops), "failed": failed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the caller started this process")
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        ops = OP_LISTS[args.workload](args.seed, outdir)
        # CLOCK_MONOTONIC is shared by every process on the host.
        setup_s = time.monotonic() - args.started
        tracer.covered_s = 0.0
        calibrate = None if args.trace else CALIBRATION[args.workload][0]
        result = run_pass(ops, tracer, calibrate)
    tracer.active = False
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        result["layers"] = tracer.snapshot()
        result["covered_s"] = tracer.covered_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
