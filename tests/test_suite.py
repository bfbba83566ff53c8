import importlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oplip import suite
from oplip.errors import DomainError, GuardViolationError
from oplip.functions import builtin_function, contraction_names
from oplip.norms import SingularValueProfile, weak_l1
from oplip.rng import generator
from oplip.serialize import canonical_json
from oplip.suite import deleeuw_ratios, run_identity_suite, symbol_agreement_sweep
from oplip.torus import (
    TWO_PI,
    HomogeneousSymbol,
    _fiber_singular_values,
    _trig_polynomial,
    symbol_eval,
)
from oplip.transference import _box_points, round_contraction


def test_deleeuw_family_is_fixed_per_seed():
    a = deleeuw_ratios(3, sizes=(16, 32), signals=3)
    b = deleeuw_ratios(3, sizes=(16, 32), signals=3)
    assert a == b
    assert len(a) == 3
    assert all(set(r) == {16, 32} for r in a)


@pytest.mark.parametrize("d", [1, 2])
def test_deleeuw_default_sizes_fit_the_grid_cap(d):
    # signals=0 runs the cap check and draws nothing.
    assert deleeuw_ratios(0, sizes=(32, 64, 128), signals=0, d=d) == []


@pytest.mark.parametrize("d, sizes", [(1, (1449,)), (2, (32, 129)), (3, (32, 64, 128))])
def test_deleeuw_grid_past_the_cap_is_rejected(d, sizes):
    with pytest.raises(DomainError):
        deleeuw_ratios(0, sizes=sizes, signals=1, d=d)


def test_deleeuw_ratios_pin():
    ratios = deleeuw_ratios(0, sizes=(32, 64, 128), signals=2)
    pinned = [
        {32: 0.2914378632401821, 64: 0.2883275334766128, 128: 0.28735658278912535},
        {32: 0.42660944853039073, 64: 0.42645750739987076, 128: 0.4251611723891093},
    ]
    for got, want in zip(ratios, pinned, strict=True):
        assert list(got) == list(want)
        np.testing.assert_allclose(list(got.values()), list(want.values()), rtol=1e-9)


def _per_grid_deleeuw_ratios(seed, sizes, signals, d):
    """deleeuw_ratios with every size sampled on its own grid (no strided reads)."""
    g = HomogeneousSymbol(d=d, k0=1)
    rng = generator(seed, 0x85)
    out = []
    for _ in range(signals):
        freqs, fibers = [], []
        while len(freqs) < 4:
            k = rng.integers(-4, 5, size=d + 1)
            if np.any(k != 0):
                freqs.append(k)
                fibers.append(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        fibers = np.array(fibers)
        multiplied = g(np.array(freqs, dtype=float))[:, np.newaxis, np.newaxis] * fibers
        ratios = {}
        for n_grid in sizes:
            cell = (TWO_PI / n_grid) ** (d + 1)
            l1 = cell * float(np.sum(_fiber_singular_values(
                _trig_polynomial(freqs, fibers, n_grid).samples)))
            weak = weak_l1(SingularValueProfile(_fiber_singular_values(
                _trig_polynomial(freqs, multiplied, n_grid).samples), cell))
            ratios[n_grid] = weak / l1
        out.append(ratios)
    return out


@pytest.mark.parametrize("d, sizes", [
    (1, (32, 64, 128)), (1, (16, 32, 48, 96)), (1, (30, 90, 45, 15)), (2, (12, 24, 36)),
])
def test_deleeuw_nested_grids_match_the_per_grid_route(d, sizes):
    for seed in range(3):
        got = deleeuw_ratios(seed, sizes=sizes, signals=3, d=d)
        want = _per_grid_deleeuw_ratios(seed, sizes, 3, d)
        for g_ratios, w_ratios in zip(got, want, strict=True):
            assert list(g_ratios) == list(sizes)
            if sizes == (32, 64, 128):  # power-of-two strides read the same bits
                assert g_ratios == w_ratios
            np.testing.assert_allclose(list(g_ratios.values()), list(w_ratios.values()),
                                       rtol=1e-14, atol=0.0)


def test_root_grid_work_weak_l1_is_the_profile_weak_l1_bitwise():
    rng = np.random.default_rng(7)
    for size in (1, 2, 37, 128, 2 * suite._WEAK_BLOCK + 5):  # the last spans three blocks
        values = np.abs(rng.standard_normal(size))
        values[::5] = 0.0
        values[1::7] = values[0]  # ties
        cell = rng.uniform(0.01, 2.0)
        want = weak_l1(SingularValueProfile(values, cell))
        assert suite._sorted_weak_l1(values, cell) == want  # which overwrites values
    for bad in (np.array([1.0, -0.5]), np.array([np.nan, 1.0])):
        with pytest.raises(DomainError):
            suite._sorted_weak_l1(bad, 1.0)


@pytest.mark.parametrize("root, d_torus", [(128, 2), (90, 2), (45, 3), (15, 4), (9, 4)])
def test_root_grid_strips_sample_the_whole_grid_bitwise(root, d_torus):
    # a one-row strip would go through BLAS's matrix-vector product, which
    # rounds differently at (15, 4) on OpenBLAS 0.3.31
    rng = np.random.default_rng(root)
    freqs = rng.integers(-4, 5, size=(4, d_torus))
    fibers = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    work = suite._RootGridWork(root, d_torus)
    assert min(np.diff(work.bounds)) >= 2 and work.bounds[-1] == root
    want = _fiber_singular_values(_trig_polynomial(freqs, fibers, root).samples)
    assert np.array_equal(work.sample(freqs, fibers), want)


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "per-call"])
def test_deleeuw_root_grid_never_holds_its_samples(monkeypatch, kept):
    # d = 2 at N = 64 has 2^18 fibers: 16 MB of complex samples, which the
    # whole-grid route held (21.7 MiB traced); the strips hold 1 MB of them
    vars(suite._kept).clear()
    monkeypatch.setattr(suite, "KEPT_ROOT_FIBERS", 64**3 if kept else 0)
    tracemalloc.start()
    try:
        deleeuw_ratios(11, sizes=(64,), signals=1, d=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20
    assert hasattr(suite._kept, "work") == kept


def test_deleeuw_kept_work_follows_the_grid_not_its_fiber_count():
    # 9^4 and 81^2 grids have 6561 fibers each, in strips of different shapes
    src = os.path.dirname(os.path.dirname(suite.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", "from oplip.suite import deleeuw_ratios; "
         "print(repr(deleeuw_ratios(1, sizes=(81,), signals=1, d=1)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    deleeuw_ratios(1, sizes=(9,), signals=1, d=3)
    assert repr(deleeuw_ratios(1, sizes=(81,), signals=1, d=1)) == fresh.stdout.strip()


def test_deleeuw_call_makes_one_work_per_larger_root(monkeypatch):
    # a root past the kept size is sampled for W and g(grad)W of every signal
    # in one work of the call, which goes with the call
    want = deleeuw_ratios(4, sizes=(16, 32, 48, 96), signals=3)
    made = []
    monkeypatch.setattr(suite, "KEPT_ROOT_FIBERS", 0)
    monkeypatch.setattr(suite, "_RootGridWork",
                        lambda *grid, _make=suite._RootGridWork: made.append(grid) or _make(*grid))
    assert deleeuw_ratios(4, sizes=(16, 32, 48, 96), signals=3) == want
    assert made == [(96, 2)]


def test_deleeuw_calls_reuse_the_kept_root_grid_work():
    # one signal at N = 128, D = 2 samples 1 MB of complex values; a later call
    # on the same root grid samples and reduces it in the kept rows, so it
    # traces no more than the small per-size copies (the fresh route: 2.2 MB)
    vars(suite._kept).clear()
    first = deleeuw_ratios(5, sizes=(32, 64, 128), signals=1)
    kept = suite._kept.work
    tracemalloc.start()
    try:
        again = deleeuw_ratios(5, sizes=(32, 64, 128), signals=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert suite._kept.work is kept
    assert peak < 512 * 2**10


def test_deleeuw_threads_keep_their_own_root_grid_work():
    want = {seed: deleeuw_ratios(seed, sizes=(32, 64), signals=1) for seed in range(4)}
    got, works = {}, {}

    def run(seed):
        got[seed] = [deleeuw_ratios(seed, sizes=(32, 64), signals=1) for _ in range(5)]
        works[seed] = suite._kept.work

    threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert got == {seed: [ratios] * 5 for seed, ratios in want.items()}
    assert len({id(work) for work in works.values()} | {id(suite._kept.work)}) == 5


def test_deleeuw_root_grid_past_the_kept_size_is_not_kept(monkeypatch):
    want = deleeuw_ratios(2, sizes=(16, 32), signals=2)
    vars(suite._kept).clear()
    monkeypatch.setattr(suite, "KEPT_ROOT_FIBERS", 32**2 - 1)
    assert deleeuw_ratios(2, sizes=(16, 32), signals=2) == want
    assert not hasattr(suite._kept, "work")


def test_deleeuw_ratios_refuse_d_below_one_by_name():
    for signals in (0, 1):
        with pytest.raises(DomainError, match="d=0"):
            deleeuw_ratios(0, signals=signals, d=0)


def test_identity_suite_report_shape():
    report = run_identity_suite(1)
    assert report["all_passed"] is True
    assert report["seed"] == 1
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for prefix in ("spectral.", "doi.", "norms.", "torus.", "transference."):
        assert any(name.startswith(prefix) for name in names)
    for check in report["checks"]:
        assert check["residual"] <= check["tolerance"] or not check["passed"]


def test_identity_suite_reports_residuals_and_is_canonical():
    report = run_identity_suite(2)
    text = canonical_json(report)
    assert '"residual":' in text
    assert canonical_json(run_identity_suite(2)) == text


def test_identity_suite_tolerance_hook_flips_exit(monkeypatch):
    monkeypatch.setattr(suite, "roundtrip_residual", lambda seed: 1.0)
    report = run_identity_suite(2)
    assert report["all_passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["spectral.roundtrip"]


def test_symbol_agreement_rejects_a_rounded_non_contraction():
    with pytest.raises(GuardViolationError):
        symbol_agreement_sweep(d_values=(1,), radius=4, names=["poly:0,3"])


def test_symbol_agreement_rejects_sampled_dimensions():
    # a d=3 box too large for an exhaustive scan is refused, not sampled, before any work
    with pytest.raises(DomainError, match="SCAN_BUDGET"):
        symbol_agreement_sweep(d_values=(3,), radius=30)


def _realized_pair_deviation(radius, d_values):
    """max |g(i-j, h(i)-h(j)) - h_k0(i, j)| over every realized box pair, literally."""
    worst = 0.0
    for d in d_values:
        points = _box_points(radius, d)
        delta = (points[:, None, :] - points[None, :, :]).reshape(-1, d)
        dist2 = np.sum(delta * delta, axis=-1)
        keep = dist2 > 0
        for name in contraction_names(d):
            f = builtin_function(name, d)
            for n in range(1, 9):
                h = round_contraction(f, n)
                values = np.array([h(p) for p in points])
                m = (values[:, None] - values[None, :]).ravel()
                t = np.column_stack([delta, m])[keep].astype(float)
                for k0 in range(1, d + 1):
                    g = symbol_eval(HomogeneousSymbol(d=d, k0=k0), t)
                    dd = delta[keep, k0 - 1] * m[keep] / dist2[keep]
                    worst = max(worst, float(np.max(np.abs(g - dd))))
    return worst


def test_symbol_agreement_covers_the_realized_pairs():
    for d_values, radius in (((1, 2), 4), ((3,), 2)):
        swept = symbol_agreement_sweep(d_values=d_values, radius=radius)
        brute = _realized_pair_deviation(radius, d_values)
        assert brute <= swept <= 1e-12


def _mask_cone_deviation(radius, d):
    """The earlier cone walk: one boolean mask and one copied point table per m."""
    deltas = _box_points(2 * radius, d)
    dist2 = np.sum(deltas * deltas, axis=-1)
    mmax = math.isqrt(int(np.max(dist2)))
    worst = 0.0
    for m in range(-mmax, mmax + 1):
        cell = (m * m <= dist2) & (dist2 > 0)
        delta, denom = deltas[cell], dist2[cell]
        points = np.column_stack([delta, np.full(len(delta), m)]).astype(float)
        for k0 in range(1, d + 1):
            gv = symbol_eval(HomogeneousSymbol(d=d, k0=k0), points)
            worst = max(worst, float(np.max(np.abs(gv - delta[:, k0 - 1] * m / denom))))
    return worst


def _orthant_cells(radius, d):
    """Sorted points of the cone cells with delta >= 0 (every coordinate) and m >= 0."""
    deltas = _box_points(2 * radius, d)
    deltas = deltas[np.all(deltas >= 0, axis=1)]
    dist2 = np.sum(deltas * deltas, axis=-1)
    mmax = math.isqrt(int(np.max(dist2)))
    points = []
    for m in range(mmax + 1):
        cell = (m * m <= dist2) & (dist2 > 0)
        points.append(np.column_stack([deltas[cell], np.full(int(cell.sum()), m)]))
    return np.unique(np.concatenate(points).astype(float), axis=0)


@pytest.mark.parametrize("radius, d", [(r, d) for d in (1, 2) for r in range(1, 11)] + [(2, 3)])
def test_cone_deviation_matches_the_mask_walk(radius, d):
    assert suite._cone_deviation(radius, d) == _mask_cone_deviation(radius, d)


@pytest.mark.parametrize("radius, d", [(1, 1), (4, 1), (3, 2), (10, 2), (2, 3)])
def test_cone_deviation_evaluates_every_orthant_cell(monkeypatch, radius, d):
    # batched calls: per k0, the evaluated rows are every cell of the sign orthant
    # delta >= 0, m >= 0 exactly once, and the maximum is still the full cone's;
    # a 7-cell buffer splits m-suffixes within and across calls
    want = _orthant_cells(radius, d)
    for batch in (suite._CONE_BATCH, 7):
        monkeypatch.setattr(suite, "_CONE_BATCH", batch)
        seen = {k0: [] for k0 in range(1, d + 1)}

        def recording(g, points):
            seen[g.k0].append(np.array(points))
            return symbol_eval(g, points)

        monkeypatch.setattr(suite, "symbol_eval", recording)
        worst = suite._cone_deviation(radius, d)
        for tables in seen.values():
            cells, counts = np.unique(np.concatenate(tables), axis=0, return_counts=True)
            assert np.all(counts == 1)
            assert np.array_equal(cells, want)
        assert worst == _mask_cone_deviation(radius, d)


def test_cone_deviation_makes_one_symbol_call_per_k0_at_d1(monkeypatch):
    # the 1890 orthant cells at d = 1, radius 30 fit one _CONE_BATCH buffer
    calls = []

    def recording(g, points):
        calls.append(g.k0)
        return symbol_eval(g, points)

    monkeypatch.setattr(suite, "symbol_eval", recording)
    assert suite._cone_deviation(30, 1) == _mask_cone_deviation(30, 1)
    assert calls == [1]


def test_cone_deviation_memory_bounded():
    tracemalloc.start()
    try:
        suite._cone_deviation(30, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # the sorted delta table and one _CONE_BATCH-cell buffer


@pytest.fixture
def perfbench(monkeypatch):
    """Imports the benchmark's modules by name, without writing into perfbench/."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                             "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module


def test_traced_benchmark_names_resolve(perfbench):
    # the benchmark's tracer wraps functions by name; a deleted one would break its passes
    for module, names in perfbench("tracer").TIMED.items():
        home = importlib.import_module(f"oplip.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"oplip.{module}.{name}"


def test_benchmark_workloads_build_their_operations(perfbench, tmp_path):
    # each workload builds its operation list through oplip calls; a renamed function,
    # attribute or signature they use would fail here instead of in a benchmark pass
    workloads = perfbench("workloads")
    counts = [len(build(0, str(tmp_path))) for build in
              (workloads.sweep_ops, workloads.verify_ops, workloads.lattice_ops)]
    assert counts == [24, 84, 40]
