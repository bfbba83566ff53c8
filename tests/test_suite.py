import importlib.util
import os

import numpy as np
import pytest

from oplip import suite
from oplip.errors import DomainError, GuardViolationError
from oplip.functions import builtin_function, contraction_names
from oplip.serialize import canonical_json
from oplip.suite import deleeuw_ratios, run_identity_suite, symbol_agreement_sweep
from oplip.torus import HomogeneousSymbol, symbol_eval
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


def test_traced_benchmark_names_resolve():
    # the benchmark's tracer wraps functions by name; a deleted one would break its passes
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.TIMED.items():
        home = importlib.import_module(f"oplip.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"oplip.{module}.{name}"
