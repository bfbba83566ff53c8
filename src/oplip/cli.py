"""Command-line surface: seeded, reproducible experiment sweeps and checks.

Identical invocations produce byte-identical output files: records appear in
trial order, floats carry 17 significant digits, and reports contain no
wall-clock data.
"""

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from . import experiments, suite
from .errors import DomainError, OplipError
from .functions import builtin_function
from .serialize import canonical_json, format_float
from .spectral import joint_diagonalize, planted_commuting_tuple
from .torus import signal_from_coefficients, frequency_index, periodization_probe
from .transference import contraction_check, discretization_report, verify_conjugation
from .experiments import ExperimentConfig, RatioRecord


def _record_line_json(record: RatioRecord) -> str:
    parts = []
    for name in RatioRecord.FIELDS:
        value = getattr(record, name)
        if isinstance(value, float):
            parts.append(f'"{name}": {format_float(value)}')
        elif isinstance(value, str):
            parts.append(f'"{name}": "{value}"')
        else:
            parts.append(f'"{name}": {int(value)}')
    return "{" + ", ".join(parts) + "}"


def _record_line_csv(record: RatioRecord) -> str:
    cells = []
    for name in RatioRecord.FIELDS:
        value = getattr(record, name)
        cells.append(format_float(value) if isinstance(value, float) else str(value))
    return ",".join(cells)


def write_records(records, fmt: str, out):
    if fmt == "csv":
        out.write(",".join(RatioRecord.FIELDS) + "\n")
        for r in records:
            out.write(_record_line_csv(r) + "\n")
    else:
        for r in records:
            out.write(_record_line_json(r) + "\n")


@contextlib.contextmanager
def _open_out(path):
    """The --out file (closed on exit), or stdout when no path is given."""
    if path is None:
        yield sys.stdout
        return
    try:
        out = open(path, "w", newline="\n")
    except OSError as exc:
        raise DomainError(f"cannot write --out {path}: {exc.strerror}") from exc
    with out:
        yield out


_FLAGS = {
    "seed": dict(type=int, default=0),
    "n": dict(type=int, default=8),
    "d": dict(type=int, default=1),
    "trials": dict(type=int, default=10),
    "f": dict(dest="f_name", default="euclid-norm"),
    "lipschitz": dict(type=float, default=None,
                      help="override the function's Lipschitz constant"),
    "out": dict(default=None),
    "format": dict(dest="fmt", default="json-lines", choices=["json-lines", "csv"]),
}


def _at_least_one(flag, value):
    """DomainError unless ``value`` >= 1: a check must run something."""
    if value < 1:
        raise DomainError(f"--{flag} must be >= 1, got {value}")


def _flags(parser, names):
    """Add the named shared flags (a command gets only those it reads)."""
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


# command, stream name in `experiments`, help.  The stream is looked up when
# the command runs, so a rebinding of the module attribute takes effect.
# ratio-lp alone takes --p; ratio-normal works in C = R^2 and takes no --d.
_RATIO_COMMANDS = (
    ("ratio-commutator", "commutator_ratio", "weak-L1([f(A),B]) ratios"),
    ("ratio-difference", "difference_ratio", "weak-L1(f(X)-f(Y)) ratios"),
    ("ratio-doi", "doi_ratio", "weak-L1(T_{f_k}(V)) ratios"),
    ("ratio-lp", "lp_ratio", "Schatten-p ratios of T_{f_k}"),
    ("ratio-normal", "normal_ratio", "difference ratios for normal operators"),
)


def cmd_ratio(args):
    config = ExperimentConfig(
        seed=args.seed, n=args.n, d=getattr(args, "d", 2), trials=args.trials,
        f_name=args.f_name, lipschitz_bound=args.lipschitz,
    )
    extra = {"p": args.p} if "p" in args else {}
    records = getattr(experiments, args.stream)(config, **extra)
    with _open_out(args.out) as out:
        write_records(records, args.fmt, out)
    return 0


# transference-check reads these only for its --discretization table; their
# parser defaults are None so that one given without it can be refused.
_DISCRETIZATION_FLAGS = (("n", "n"), ("d", "d"), ("f", "f_name"))


def cmd_transference_check(args):
    _at_least_one("trials", args.trials)
    if not 0 <= args.tolerance < math.inf:
        raise DomainError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    given = {flag: getattr(args, dest) for flag, dest in _DISCRETIZATION_FLAGS}
    if not args.discretization:
        ignored = [f"--{flag}" for flag, value in given.items() if value is not None]
        if ignored:
            raise DomainError(f"{', '.join(ignored)}: read only with --discretization")
    else:
        n, d, f_name = (_FLAGS[flag]["default"] if value is None else value
                        for flag, value in given.items())
        f = builtin_function(f_name, d)
        tup, _, _ = planted_commuting_tuple(n, d, "uniform", seed=args.seed)
        js = joint_diagonalize(tup)
    with _open_out(args.out) as out:
        worst = 0.0
        for index, (it, h, name, v, k0) in enumerate(
            suite.conjugation_instances(args.seed, args.trials)
        ):
            residual = verify_conjugation(it, h, v, args.grid, k0)
            worst = max(worst, residual)
            out.write(
                f"instance={index} d={it.d} n={it.dim} f={name} k0={k0} "
                f"residual={format_float(residual)}\n"
            )
        out.write(f"max-residual={format_float(worst)}\n")
        if args.discretization:
            out.write("discretization report (symbol vs half divided difference):\n")
            for n_round in (1, 2, 4, 8, 16, 32):
                rep = discretization_report(js, f, n_round)
                out.write(
                    f"n={rep.n} identity-residual={format_float(rep.identity_residual)} "
                    f"sup|xi_n - f_k0/2|={format_float(rep.symbol_sup_difference)}\n"
                )
        return 0 if worst <= args.tolerance else 1


def cmd_deleeuw_sweep(args):
    _at_least_one("trials", args.trials)
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise DomainError(f"--sizes takes integers >= 1 joined by commas, got {args.sizes!r}")
    results = suite.deleeuw_ratios(args.seed, sizes=sizes, signals=args.trials, d=args.d)
    with _open_out(args.out) as out:
        out.write("signal," + ",".join(f"N={s}" for s in sizes) + ",spread\n")
        worst = 1.0
        for index, ratios in enumerate(results):
            vals = [ratios[s] for s in sizes]
            spread = suite.deleeuw_spread(vals)
            worst = max(worst, spread)
            out.write(
                f"{index}," + ",".join(format_float(v) for v in vals)
                + f",{format_float(spread)}\n"
            )
        out.write(f"max-spread,{format_float(worst)}\n")
        return 0 if worst < 2.0 else 1


def cmd_periodization(args):
    d_torus = args.d + 1
    if d_torus < 1:
        raise DomainError(f"torus dimension must be >= 1, got {d_torus}")
    n_grid = 16
    coeffs = np.zeros((n_grid,) * d_torus + (1, 1), dtype=complex)
    coeffs[frequency_index(np.zeros(d_torus, int), n_grid)] = 1.0
    unit = np.zeros(d_torus, int)
    unit[0] = 1
    coeffs[frequency_index(unit, n_grid)] = 0.4
    if d_torus == 2:
        coeffs[frequency_index(np.array([0, 1]), n_grid)] = 0.3
    w = signal_from_coefficients(coeffs)
    radius = 8.0 * args.l if args.radius is None else args.radius
    step = 2.0 * np.pi / 64.0 if args.step is None else args.step
    result = periodization_probe(w, args.l, radius, step)
    with _open_out(args.out) as out:
        out.write(f"ratio={format_float(result.ratio)}\n")
        out.write(f"weak-ratio={format_float(result.weak_ratio)}\n")
        out.write(f"truncation-bound={format_float(result.truncation_bound)}\n")
        out.write(f"step={format_float(result.step)}\n")
        out.write(f"points-per-axis={result.points_per_axis}\n")
        return 0 if abs(result.ratio - 1.0) <= 0.05 else 1


def cmd_contraction_test(args):
    _at_least_one("max-rounding", args.max_rounding)
    with _open_out(args.out) as out:
        failures = 0
        for name, n, h in suite.rounded_contractions(args.d, range(1, args.max_rounding + 1)):
            report = contraction_check(h, args.radius, args.d)
            status = "ok" if report.ok else "VIOLATION"
            if not report.ok:
                failures += 1
            out.write(
                f"f={name} n={n} {status} "
                f"margin={format_float(report.margin)} "
                f"worst=({list(map(int, report.worst_pair[0]))},"
                f"{list(map(int, report.worst_pair[1]))})\n"
            )
        out.write(f"violations={failures}\n")
        return 0 if failures == 0 else 1


def cmd_identity_suite(args):
    report = suite.run_identity_suite(args.seed)
    text = canonical_json(report) + "\n"
    with _open_out(args.out) as out:
        out.write(text)
    return 0 if report["all_passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="oplip",
        description="Seeded experiments on double operator integrals, weak-L1 "
                    "ratios, torus multipliers and the transference identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, stream, help_text in _RATIO_COMMANDS:
        p = sub.add_parser(command, help=help_text)
        _flags(p, [name for name in _FLAGS
                   if not (name == "d" and command == "ratio-normal")])
        if command == "ratio-lp":
            p.add_argument("--p", type=float, default=2.0)
        p.set_defaults(func=cmd_ratio, stream=stream)

    p = sub.add_parser("transference-check", help="verify S(I(V)) = I(T(V))")
    _flags(p, ("seed", "n", "d", "trials", "f", "out"))
    p.set_defaults(**{dest: None for _, dest in _DISCRETIZATION_FLAGS})
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--discretization", action="store_true",
                   help="also print the floored-symbol comparison table")
    p.set_defaults(func=cmd_transference_check)

    p = sub.add_parser("deleeuw-sweep", help="weak-L1/L1 ratio stability across grids")
    _flags(p, ("seed", "d", "trials", "out"))
    p.add_argument("--sizes", default="32,64,128")
    p.set_defaults(func=cmd_deleeuw_sweep)

    p = sub.add_parser("periodization", help="Gaussian periodization probe")
    _flags(p, ("d", "out"))
    p.add_argument("--l", type=float, default=32.0)
    p.add_argument("--radius", type=float, default=None,
                   help="truncation radius (default 8*l)")
    p.add_argument("--step", type=float, default=None,
                   help="midpoint step (default 2*pi/64)")
    p.set_defaults(func=cmd_periodization)

    p = sub.add_parser("contraction-test", help="exhaustive contraction rounding check")
    _flags(p, ("d", "out"))
    p.add_argument("--radius", type=int, default=30)
    p.add_argument("--max-rounding", type=int, default=8)
    p.set_defaults(func=cmd_contraction_test)

    p = sub.add_parser("identity-suite", help="run every identity/property check")
    _flags(p, ("seed", "out"))
    p.set_defaults(func=cmd_identity_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except OplipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # As the Python docs advise: stdout goes to devnull, so the flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before all output was written",
              file=sys.stderr)
        return 2

