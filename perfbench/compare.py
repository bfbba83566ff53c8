"""Side-by-side view of two benchmark results, one row per metric.

    python3 perfbench/run.py --workload verify --trace 1 > old.txt   # parent
    python3 perfbench/run.py --workload verify --trace 1 > new.txt   # change
    python3 perfbench/compare.py old.txt new.txt

Each file is the saved stdout of one run; its last line is the result.  For
traced runs the rows are every timed function's self time, calls, failures,
allocation peak and computed counts, so a change can show which layer a
saving sits in.  Rows whose counts differ are marked with ``*``.
"""

import argparse
import json


def load_metrics(path):
    with open(path) as fh:
        last = fh.read().strip().splitlines()[-1]
    return json.loads(last)["metrics"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = load_metrics(args.old), load_metrics(args.new)
    names = list(old) + [name for name in new if name not in old]
    width = max(len(name) for name in names)
    print(f"{'metric':<{width}} {'old':>14} {'new':>14} {'new/old':>9}  unit")
    for name in names:
        a = old.get(name, {}).get("value")
        b = new.get(name, {}).get("value")
        unit = (old.get(name) or new.get(name))["unit"]
        ratio = f"{b / a:9.3f}" if a and b is not None else f"{'-':>9}"
        mark = "*" if unit == "count" and a != b else ""
        cells = [f"{v:14.6g}" if v is not None else f"{'-':>14}" for v in (a, b)]
        print(f"{name:<{width}} {cells[0]} {cells[1]} {ratio}  {unit}{mark}")


if __name__ == "__main__":
    main()
