"""oplip benchmark: seeded workloads, verified outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the repository root.  Each pass over a workload's operation list is
a fresh process (`workloads.py`) with BLAS/OpenMP threads and `OPLIP_THREADS`
pinned to 1; passes repeat until the next one would end after ``--seconds``
(at least ``MIN_PASSES``).  With ``--trace 0`` the result holds the end-to-end
metrics.  On a shared host the CPU speed drifts by up to 1.6x for seconds to
minutes, so an untraced pass also times a calibration kernel (`calibrate.py`)
before each operation, and its times are scaled by the kernel's nominal time
over its mean time in that pass.  Per operation the benchmark takes the
median of those scaled times over the passes: ``wall_norm_s`` sums them
(operation plus output check) into one pass, and ``op_norm_ms_p50`` and
``op_norm_ms_p90`` are quantiles of them over the operation list.  The raw,
unscaled timings are printed for people but are not in the result.  Peak RSS
and set-up time are medians over passes.  With ``--trace 1`` untraced and traced
passes alternate, and the result holds the per-layer metrics of the traced
passes (medians), the share of traced wall time that top-level spans cover,
and the tracing overhead against the untraced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it are for people.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import CALIBRATION
from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "verify", "lattice")
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "OPLIP_THREADS")
MIN_PASSES = 2
PASS_TIMEOUT_S = 170
END_TO_END = (("wall_norm_s", "s"), ("op_norm_ms_p50", "ms"), ("op_norm_ms_p90", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
RAW = (("wall_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"), ("calibration_ms", "ms"))
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.covered_share", "ratio"),
                 ("trace.untraced_s", "s"), ("trace.overhead", "ratio"))


def pass_env():
    env = dict(os.environ)
    env.update((name, "1") for name in PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "mem_total_mb": mem_kb // 1024,
        "pinned": {name: "1" for name in PINNED_THREADS},
    }


def one_pass(workload, seed, trace):
    """Run one pass in a fresh process; exits the benchmark if the process fails."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--started", repr(started)],
        cwd=ROOT, env=pass_env(), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """Untraced passes (and, when tracing, one traced pass after each)."""
    plain, traced = [], []
    start = time.monotonic()
    last = 0.0
    while len(plain) < MIN_PASSES or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        plain.append(one_pass(workload, seed, 0))
        if trace:
            traced.append(one_pass(workload, seed, 1))
        last = time.monotonic() - began
    return plain, traced


def _op_medians(plain, key, scale):
    """Each operation's median time over the passes, each pass's times multiplied
    by its scale factor."""
    columns = zip(*([t * f for t in p[key]] for p, f in zip(plain, scale)))
    return [statistics.median(col) for col in columns]


def _timings(plain, scale, suffix):
    op_ms = [1000.0 * s for s in _op_medians(plain, "op_s", scale)]
    return {
        f"wall{suffix}_s": sum(_op_medians(plain, "step_s", scale)),
        f"op{suffix}_ms_p50": statistics.median(op_ms),
        f"op{suffix}_ms_p90": statistics.quantiles(op_ms, n=10, method="inclusive")[-1],
    }


def end_to_end(workload, plain):
    """Host-scaled timings (each pass's times multiplied by the calibration
    kernel's nominal over its mean time in that pass), then per operation the median
    over passes; memory and set-up as medians over the passes.  The raw
    timings come back too, for people only."""
    nominal = CALIBRATION[workload][1]
    scale = [nominal / statistics.fmean(p["cal_s"]) for p in plain]
    values = _timings(plain, scale, "_norm")
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
    values["setup_s"] = statistics.median(p["setup_s"] for p in plain)
    raw = _timings(plain, [1.0] * len(plain), "")
    raw["calibration_ms"] = 1000.0 * statistics.median(
        statistics.fmean(p["cal_s"]) for p in plain)
    return values, raw


def per_layer(plain, traced):
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name, _ in metric_names()}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.covered_share"] = statistics.median(
        p["covered_s"] / p["wall_s"] for p in traced)
    values["trace.untraced_s"] = statistics.median(
        p["wall_s"] - p["covered_s"] for p in traced)
    values["trace.overhead"] = traced_wall / statistics.median(p["wall_s"] for p in plain)
    return values


def measure(workload, seed, seconds, trace):
    """Print a readable report; return (attempted, failed, metrics with units)."""
    plain, traced = run_passes(workload, seed, seconds, trace)
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)
    ops = sum(len(p["op_s"]) for p in plain)
    print(f"# {workload} seed={seed}: {len(plain)} passes, {ops} operations"
          + (f", {len(traced)} traced passes" if trace else ""))
    print(f"# environment {json.dumps(environment())}")
    raw = {}
    if trace:
        units = dict(metric_names() + list(TRACE_METRICS))
        values = per_layer(plain, traced)
    else:
        units = dict(END_TO_END + RAW)
        values, raw = end_to_end(workload, plain)
    for name, value in list(values.items()) + list(raw.items()):
        print(f"{workload:>10} {name:<48} {value:>14.6g} {units[name]}"
              + ("   (raw, not in the result)" if name in raw else ""))
    print(f"{workload:>10} {'fail_frac':<48} {failed / attempted:>14.6g} "
          f"ratio ({failed}/{attempted})")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oplip" / "__init__.py").is_file():
        raise SystemExit(f"no oplip sources under {ROOT / 'src'}; run from a checkout")

    attempted, failed, metrics = 0, 0, {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        a, f, m = measure(workload, args.seed, args.seconds, args.trace)
        attempted, failed = attempted + a, failed + f
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update((prefix + name, value) for name, value in m.items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
