"""Checks the benchmark's correctness gate.

    python3 perfbench/selftest.py

1. A sweep ratio perturbed by a relative 1e-6 and a contraction verdict
   forced to ``ok=False`` must each count as a failed operation.
2. Every workload, run briefly with the default seed and with one other seed,
   must report ``failed == 0`` at the current commit.
Exits non-zero on the first check that does not hold.
"""

import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from oplip import experiments, transference  # noqa: E402

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

OTHER_SEED = 7


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def off_by_1e6(commutator_ratio):
    def perturbed(config):
        records = commutator_ratio(config)
        records[0].ratio *= 1.0 + 1e-6
        return records
    return perturbed


def forced_violation(contraction_check):
    def violated(*args, **kwargs):
        return contraction_check(*args, **kwargs)._replace(ok=False)
    return violated


def failed_ops(ops):
    return workloads.run_pass(ops, Tracer())["failed"]


def check(ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    if not ok:
        raise SystemExit(1)


def main():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        ops = [op for op in workloads.sweep_ops(0, outdir) if op.kind == "ratio-commutator"]
        check(failed_ops(ops[:1]) == 0, "unperturbed commutator sweep passes its check")
        with patched(experiments, "commutator_ratio", off_by_1e6):
            check(failed_ops(ops[:1]) == 1, "ratio off by 1e-6 fails its check")
    ops = [op for op in workloads.lattice_ops(0, None) if op.kind == "contraction"]
    check(failed_ops(ops[:1]) == 0, "unforced contraction verdict passes its check")
    with patched(transference, "contraction_check", forced_violation):
        check(failed_ops(ops[:1]) == 1, "forced ok=False verdict fails its check")

    for seed in (0, OTHER_SEED):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} seed={seed}: fail_frac 0 over {result['attempted']} operations")


if __name__ == "__main__":
    main()
