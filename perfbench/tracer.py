"""Per-layer tracing for the benchmark's traced passes.

`Tracer.install` replaces every binding of each timed public function of
`oplip` -- in the defining module, in every `oplip` module that imported it,
and in the package namespace -- by a wrapper that records a span per call.
A function's self time is its span duration minus the time its child spans
cover.  No layer queues work, so there is no waiting time to record.  Passes
run with `OPLIP_THREADS=1`, so every span is on the main thread.

Memory-heavy functions also record their `tracemalloc` peak of the
allocations made while they run.  `tracemalloc` traces only inside those
calls, but the wrappers still slow every timed call, so traced passes never
contribute end-to-end numbers.
"""

import contextlib
import functools
import sys
import time
import tracemalloc
from collections import defaultdict

TIMED = {
    "spectral": ("joint_diagonalize", "planted_commuting_tuple", "apply_function"),
    "doi": ("symbol_matrix", "doi_apply", "doi_l2_norm", "doi_operator_matrix",
            "perturbation_residual"),
    "norms": ("singular_values", "weak_l1"),
    "torus": ("symbol_eval", "signal_norms", "fourier_multiplier_apply",
              "periodization_probe"),
    "transference": ("integer_tuple", "contraction_check", "verify_conjugation"),
    "suite": ("conjugation_instances", "deleeuw_ratios", "symbol_agreement_sweep"),
    "experiments": ("commutator_ratio", "difference_ratio"),
    "cli": ("main", "write_records"),
}
# tracemalloc runs only inside these calls; none of them calls another.
MEMORY_HEAVY = frozenset({
    "torus.periodization_probe",
    "transference.contraction_check",
    "suite.symbol_agreement_sweep",
})
# Counts computed from input sizes, summed over calls.  contraction_check is
# exhaustive over the (2r+1)^d box for d <= 2, the only dimensions run.
COMPUTED = {
    "doi.symbol_matrix": ("entries", lambda js, *_a, **_k: js.dim ** 2),
    "transference.contraction_check": (
        "pairs", lambda _h, radius, d, *_a, **_k: (2 * radius + 1) ** (2 * d)),
}
SCALAR_CALLS = "functions.scalar_calls"


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for module, names in TIMED.items():
        for fn in names:
            key = f"{module}.{fn}"
            out += [(f"{key}.calls", "count"), (f"{key}.self_s", "s"),
                    (f"{key}.fail", "count")]
            if key in MEMORY_HEAVY:
                out.append((f"{key}.peak_alloc_mb", "MB"))
            if key in COMPUTED:
                out.append((f"{key}.{COMPUTED[key][0]}", "count"))
    out.append((SCALAR_CALLS, "count"))
    return out


class _Frame:
    __slots__ = ("start", "child")

    def __init__(self, start):
        self.start = start
        self.child = 0.0


class Tracer:
    """Spans, counts and allocation peaks of the timed `oplip` functions."""

    def __init__(self):
        self.active = False
        self.covered_s = 0.0  # total duration of top-level spans
        self._values = defaultdict(float)
        self._stack = []

    def install(self):
        """Wrap every binding of every timed function."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "oplip" or name.startswith("oplip."))]
        for module_name, fns in TIMED.items():
            home = sys.modules[f"oplip.{module_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        builtin = sys.modules["oplip.functions"].BuiltinFunction
        call = builtin.__call__
        tracer = self

        def counted(fn_self, lam):
            if tracer.active:
                tracer._values[SCALAR_CALLS] += 1
            return call(fn_self, lam)

        builtin.__call__ = counted
        self.active = True

    def _wrap(self, key, fn):
        memory = key in MEMORY_HEAVY
        computed = COMPUTED.get(key)
        calls, self_s, fail = f"{key}.calls", f"{key}.self_s", f"{key}.fail"
        peak_key = f"{key}.peak_alloc_mb"
        extra_key = f"{key}.{computed[0]}" if computed else None
        values, stack = self._values, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            values[calls] += 1
            if computed:
                values[extra_key] += computed[1](*args, **kwargs)
            if memory:
                tracemalloc.start()
            frame = _Frame(time.perf_counter())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                values[fail] += 1
                raise
            finally:
                duration = time.perf_counter() - frame.start
                stack.pop()
                values[self_s] += duration - frame.child
                if stack:
                    stack[-1].child += duration
                else:
                    self.covered_s += duration
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    values[peak_key] = max(values[peak_key], peak)

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Keep the benchmark's own output checks out of the layer numbers."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def snapshot(self):
        """Every per-layer metric value, 0 for functions that were not called."""
        return {name: self._values[name] for name, _ in metric_names()}
