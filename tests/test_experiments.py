import os
import subprocess
import sys

import numpy as np
import pytest

import oplip
from oplip.cli import main
from oplip.errors import BadExponentError
from oplip.experiments import (
    ExperimentConfig,
    commutator_ratio,
    difference_ratio,
    difference_trial,
    doi_ratio,
    lp_ratio,
    normal_ratio,
    worker_count,
)


def trials(records):
    return [r for r in records if r.kind == "trial"]


def summary(records):
    assert records[-1].kind == "summary"
    return records[-1]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(lipschitz_bound=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(f_name="poly:0,1").resolve_function()  # needs --lipschitz


def test_commutator_ratio_summary_dominates():
    records = commutator_ratio(ExperimentConfig(seed=7, n=6, d=2, trials=20,
                                                f_name="euclid-norm"))
    s = summary(records)
    assert all(r.ratio <= s.ratio for r in trials(records))
    # regression pin: empirically observed maximum for this seed, not a
    # mathematical constant
    np.testing.assert_allclose(s.ratio, 0.39607196062060124, rtol=1e-9)


def test_commutator_ratio_weak_le_trace_for_identity():
    records = commutator_ratio(ExperimentConfig(seed=3, n=5, d=1, trials=10,
                                                f_name="identity"))
    assert all(r.ratio <= 1.0 + 1e-12 for r in trials(records))


def test_commutator_ratio_degenerate_skipped():
    # n = 1: scalars commute with everything, so every trial is degenerate
    records = commutator_ratio(ExperimentConfig(seed=1, n=1, d=1, trials=5,
                                                f_name="identity"))
    s = summary(records)
    assert s.skipped == 5
    assert s.ratio == 0.0
    assert all(r.kind == "skipped" for r in records[:-1])


def test_difference_ratio_crosscheck_and_pin():
    records = difference_ratio(ExperimentConfig(seed=5, n=6, d=1, trials=10,
                                                f_name="abs"))
    s = summary(records)
    np.testing.assert_allclose(s.ratio, 0.48203340624046015, rtol=1e-9)  # pin
    for t in range(3):
        _, crosscheck = difference_trial(
            ExperimentConfig(seed=5, n=6, d=1, trials=10, f_name="abs"), t
        )
        assert crosscheck <= 1e-9


def test_doi_ratio_per_k0_and_bound():
    records = doi_ratio(ExperimentConfig(seed=11, n=5, d=2, trials=6,
                                         f_name="euclid-norm"))
    ts = trials(records)
    assert {r.k0 for r in ts} == {1, 2}
    assert all(r.denominator > 0 for r in ts)
    # d=1, f=id: T removes the joint-basis diagonal; empirical bound recorded
    records1 = doi_ratio(ExperimentConfig(seed=11, n=5, d=1, trials=20,
                                          f_name="identity"))
    assert all(r.ratio <= 3.0 for r in trials(records1))
    np.testing.assert_allclose(summary(records1).ratio, 0.621050259129296,
                               rtol=1e-9)  # pin


def test_doi_ratio_scale_invariance():
    cfg = ExperimentConfig(seed=13, n=4, d=1, trials=1, f_name="abs")
    base = trials(doi_ratio(cfg))[0]
    # both norms are positively homogeneous, so the ratio is scale-free
    assert base.ratio == pytest.approx(base.numerator / base.denominator)


def test_lp_ratio_bounds():
    with pytest.raises(BadExponentError):
        lp_ratio(ExperimentConfig(seed=2, trials=1), p=1.0)
    with pytest.raises(BadExponentError):
        lp_ratio(ExperimentConfig(seed=2, trials=1), p=np.inf)
    records = lp_ratio(ExperimentConfig(seed=2, n=5, d=1, trials=10,
                                        f_name="identity"), p=2.0)
    # |f_1| <= 1 makes the Schur multiplier an L2 contraction
    assert all(r.ratio <= 1.0 + 1e-12 for r in trials(records))
    np.testing.assert_allclose(summary(records).ratio, 0.9483591258998203,
                               rtol=1e-9)  # pin


def test_normal_ratio():
    records = normal_ratio(ExperimentConfig(seed=9, n=4, trials=10,
                                            f_name="euclid-norm"))
    s = summary(records)
    assert s.d == 2
    np.testing.assert_allclose(s.ratio, 0.39882986069789095, rtol=1e-9)  # pin
    # f(z) = Re z reduces to the first coordinate
    re_records = normal_ratio(ExperimentConfig(seed=9, n=4, trials=5,
                                               f_name="coordinate:1"))
    assert all(r.ratio <= 1.0 + 1e-12 for r in trials(re_records))


def test_records_deterministic_across_workers(monkeypatch):
    cfg = ExperimentConfig(seed=7, n=5, d=2, trials=8, f_name="crease")
    base = commutator_ratio(cfg)
    monkeypatch.setenv("OPLIP_THREADS", "4")
    pooled = commutator_ratio(cfg)
    assert [(r.kind, r.instance, r.ratio) for r in base] == [
        (r.kind, r.instance, r.ratio) for r in pooled
    ]


def test_worker_count_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setenv("OPLIP_THREADS", "100000")
    assert 1 <= worker_count() <= (os.cpu_count() or 1)
    monkeypatch.setenv("OPLIP_THREADS", "0")
    assert worker_count() == 1


def _run_cli(args):
    return main(args)


def test_cli_rejects_unknown_format(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run_cli(["ratio-commutator", "--seed", "2", "--n", "3", "--trials", "1",
                  "--format", "xml", "--out", str(tmp_path / "r.xml")])
    assert exc.value.code == 2


def test_cli_unknown_function_exits_2(capsys):
    assert _run_cli(["ratio-commutator", "--seed", "2", "--n", "3", "--trials", "1",
                     "--f", "nope"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["contraction-test", "--radius", "0"],
    ["ratio-commutator", "--n", "3", "--trials", "1", "--f", "poly:x", "--lipschitz", "1"],
])
def test_cli_domain_errors_exit_2(argv, capsys):
    assert _run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_python_dash_m_runs_cli():
    src = os.path.dirname(os.path.dirname(oplip.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "oplip", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "ratio-commutator" in done.stdout


def test_cli_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["ratio-doi", "--seed", "21", "--n", "4", "--d", "1", "--trials", "4",
            "--f", "abs"]
    assert _run_cli(argv + ["--out", str(out1)]) == 0
    assert _run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 5  # 4 trials + summary
    import json

    for line in lines:
        json.loads(line)


def test_cli_csv_header(tmp_path):
    out = tmp_path / "r.csv"
    assert _run_cli(["ratio-commutator", "--seed", "2", "--n", "3", "--trials", "2",
                     "--f", "identity", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("kind,seed,instance,k0,n,d,f_name,"
                        "numerator,denominator,ratio,skipped")
    assert len(lines) == 4


def test_cli_identity_suite_roundtrip(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert _run_cli(["identity-suite", "--seed", "5", "--out", str(out1)]) == 0
    assert _run_cli(["identity-suite", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_identity_suite_corrupted_tolerance(tmp_path):
    rc = _run_cli(["identity-suite", "--seed", "5", "--tolerance-scale", "1e-30",
                   "--out", str(tmp_path / "bad.json")])
    assert rc != 0


def test_cli_contraction_test(tmp_path):
    out = tmp_path / "c.txt"
    rc = _run_cli(["contraction-test", "--d", "1", "--radius", "8",
                   "--max-rounding", "2", "--out", str(out)])
    assert rc == 0
    assert "violations=0" in out.read_text()


def test_cli_transference_check(tmp_path):
    out = tmp_path / "t.txt"
    rc = _run_cli(["transference-check", "--seed", "4", "--trials", "3",
                   "--out", str(out)])
    assert rc == 0
    assert "max-residual=" in out.read_text()
