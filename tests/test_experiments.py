import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import oplip
from oplip import experiments
from oplip.cli import build_parser, main
from oplip.errors import BadExponentError, GuardViolationError, NoConvergenceError
from oplip.experiments import (
    ExperimentConfig,
    commutator_ratio,
    difference_ratio,
    doi_ratio,
    lp_ratio,
    normal_ratio,
)
from oplip.rng import generator
from oplip.spectral import apply_function, joint_diagonalize, planted_commuting_tuple
from oplip.suite import deleeuw_stability_factor


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
    # difference_ratio raises when a trial's cross-check exceeds CROSSCHECK_TOL,
    # so returning at all means every trial passed it
    records = difference_ratio(ExperimentConfig(seed=5, n=6, d=1, trials=10,
                                                f_name="abs"))
    s = summary(records)
    np.testing.assert_allclose(s.ratio, 0.48203340624046015, rtol=1e-9)  # pin


def _diagonalized_plant(config, rng):
    tup, _, _ = planted_commuting_tuple(config.n, config.d, "uniform",
                                        seed=int(rng.integers(2**63)))
    return tup, joint_diagonalize(tup)


def _svd_trace_norm(m):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def _svd_weak_l1(m):
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.max(np.arange(1, s.size + 1) * s))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ratio_streams_match_the_diagonalized_svd_route(seed):
    # the streams take their spectra from the plant and their singular values
    # from eigvalsh; this route recovers the spectra with joint_diagonalize and
    # takes every norm from the SVD
    cfg = ExperimentConfig(seed=seed, n=8, d=2, trials=3, f_name="euclid-norm")
    f, bound = cfg.resolve_function()
    for r in trials(commutator_ratio(cfg)):
        rng = generator(seed, 1, r.instance)
        tup, js = _diagonalized_plant(cfg, rng)
        z = rng.standard_normal((cfg.n, cfg.n)) + 1j * rng.standard_normal((cfg.n, cfg.n))
        b = (z + z.conj().T) / 2.0
        fa = apply_function(js, f).data
        denom = bound * max(_svd_trace_norm(a @ b - b @ a) for a in tup.arrays())
        np.testing.assert_allclose(r.ratio, _svd_weak_l1(fa @ b - b @ fa) / denom,
                                   rtol=1e-12)

    cfg = replace(cfg, n=6, f_name="max-abs")
    f, bound = cfg.resolve_function()
    for r in trials(difference_ratio(cfg)):
        rng = generator(seed, 2, r.instance)
        x, x_js = _diagonalized_plant(cfg, rng)
        y, y_js = _diagonalized_plant(cfg, rng)
        num = _svd_weak_l1(apply_function(x_js, f).data - apply_function(y_js, f).data)
        denom = bound * max(_svd_trace_norm(xa - ya)
                            for xa, ya in zip(x.arrays(), y.arrays()))
        np.testing.assert_allclose(r.ratio, num / denom, rtol=1e-12)


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


def test_lp_ratio_divides_by_the_lipschitz_bound():
    base = ExperimentConfig(seed=4, n=4, d=2, trials=3, f_name="euclid-norm")
    plain = lp_ratio(base, p=2.5)
    halved = lp_ratio(replace(base, lipschitz_bound=2.0), p=2.5)
    assert [r.numerator for r in halved] == [r.numerator for r in plain]
    assert [r.ratio for r in halved] == [r.ratio / 2.0 for r in plain]


def test_cli_ratio_lp_runs_poly_with_lipschitz(capsys):
    assert _run_cli(["ratio-lp", "--n", "3", "--trials", "2", "--f", "poly:0,1",
                     "--lipschitz", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3  # 2 trials + summary


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


def test_difference_ratio_raises_on_crosscheck_failure(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "CROSSCHECK_TOL", -1.0)
    with pytest.raises(GuardViolationError, match="cross-check failed at trial 0"):
        difference_ratio(ExperimentConfig(seed=5, n=3, d=1, trials=2, f_name="abs"))
    assert _run_cli(["ratio-difference", "--n", "3", "--trials", "2", "--f", "abs"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: block-embedding cross-check failed")


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
    ["contraction-test", "--d", "0", "--radius", "2"],
    ["contraction-test", "--d", "3"],  # radius 30: past the scan budget
    ["contraction-test", "--d", "2", "--radius", "1000000"],  # rejected before allocating
    ["transference-check", "--grid", "4", "--trials", "2"],  # AliasRiskError
    ["periodization", "--d", "1", "--l", "0"],  # GuardViolationError
    ["periodization", "--d", "1", "--l", "1000"],  # m = 162975 past the point cap
    ["periodization", "--d", "1", "--step", "1e-6"],  # rejected before allocating
    ["periodization", "--d", "-1"],  # torus dimension d + 1 = 0
    ["ratio-commutator", "--trials", "0"],
    ["ratio-commutator", "--lipschitz", "0"],
    ["ratio-commutator", "--f", "poly:0,1"],  # needs --lipschitz
    ["ratio-commutator", "--n", "0"],
    ["ratio-doi", "--d", "0"],
    ["transference-check", "--trials", "0"],
    ["deleeuw-sweep", "--trials", "0"],
    ["deleeuw-sweep", "--trials", "-2"],
    ["contraction-test", "--max-rounding", "0"],
    ["deleeuw-sweep", "--sizes", "8,x"],
    ["deleeuw-sweep", "--sizes", "32,-8"],
    # NonFiniteError: f overflows on the spectrum
    ["ratio-commutator", "--f", "poly:1e308,1e308,1e308", "--lipschitz", "1", "--trials", "1"],
    ["identity-suite", "--tolerance-scale", "nan"],
    ["identity-suite", "--tolerance-scale", "0"],
    ["transference-check", "--trials", "2", "--tolerance", "nan"],
    ["transference-check", "--trials", "2", "--tolerance", "-1"],
    ["deleeuw-sweep", "--trials", "1", "--sizes", "1000000"],  # rejected before allocating
    # planted tuples past n*n*d = 2**21 or d = 256, rejected before the first draw
    ["ratio-commutator", "--n", "1000000", "--trials", "1"],
    ["ratio-difference", "--n", "2", "--d", "1024", "--trials", "1"],
    # d past 1..256 is refused where --f is resolved, before crease builds its vector
    ["ratio-commutator", "--d", "100000000000", "--f", "crease", "--trials", "1"],
    ["transference-check", "--d", "100000000000", "--f", "crease", "--discretization"],
    ["transference-check", "--d", "0", "--f", "crease", "--discretization"],
    ["contraction-test", "--d", "100000000000"],  # no list of 1e11 names
])
@pytest.mark.filterwarnings("error")  # a numpy warning before the error line fails too
def test_cli_domain_errors_exit_2(argv, capsys):
    assert _run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["contraction-test", "--d", "1", "--radius", "3", "--seed", "9"],
    ["periodization", "--d", "1", "--trials", "2"],
    ["identity-suite", "--format", "csv"],
    ["ratio-normal", "--d", "3"],  # the normal stream works in C = R^2
    ["periodization", "--torus-dim", "0"],  # --d sets the torus dimension
])
def test_cli_rejects_flags_the_command_ignores(argv):
    with pytest.raises(SystemExit) as exc:
        _run_cli(argv)
    assert exc.value.code == 2


def test_readme_cli_commands_parse():
    # parse only: every `oplip ...` line of the README's fenced blocks must use
    # flags its command accepts, so the examples cannot drift from the parser
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("oplip ")]
    assert lines, "README has no fenced oplip commands"
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_cli_no_convergence_exits_2(monkeypatch, capsys):
    def diverge(_tup):
        raise NoConvergenceError("matrix 0 fails reconstruction from the spectrum")

    monkeypatch.setattr(experiments, "joint_diagonalize", diverge)
    assert _run_cli(["ratio-difference", "--n", "3", "--trials", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: matrix 0 fails reconstruction from the spectrum"]


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.jsonl"
    assert _run_cli(["ratio-commutator", "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.parent.exists()


@pytest.mark.parametrize("flag,value", [("--n", "1000000"), ("--f", "nope")])
def test_transference_check_refusal_writes_nothing(tmp_path, capsys, flag, value):
    # the discretization tuple and --f are resolved before any instance line
    out = tmp_path / "t.txt"
    argv = ["transference-check", "--trials", "1", "--discretization", flag, value]
    assert _run_cli(argv) == 2
    assert capsys.readouterr().out == ""
    assert _run_cli(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (["--n", "4"], "--n"),
    (["--f", "max-abs"], "--f"),
    (["--d", "100000000000", "--f", "nope", "--n", "0"], "--n, --d, --f"),
])
def test_transference_check_refuses_discretization_flags_without_it(tmp_path, capsys,
                                                                    flags, named):
    out = tmp_path / "t.txt"
    assert _run_cli(["transference-check", "--trials", "1", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {named}: read only with --discretization"]
    assert not out.exists()


def test_transference_check_reads_discretization_flags(capsys):
    base = ["transference-check", "--seed", "3", "--trials", "1", "--discretization"]
    assert _run_cli(base) == 0
    default = capsys.readouterr().out
    assert _run_cli(base + ["--n", "8", "--d", "1", "--f", "euclid-norm"]) == 0
    assert capsys.readouterr().out == default  # the defaults, spelled out
    assert _run_cli(base + ["--n", "5", "--d", "2", "--f", "max-abs"]) == 0
    table = capsys.readouterr().out.split("discretization report")
    assert table[0] == default.split("discretization report")[0]  # same instances
    assert table[1] != default.split("discretization report")[1]


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


def test_cli_deleeuw_sweep_spread_of_a_zero_ratio_signal(capsys):
    # seed 247 draws a signal whose ratio is 0 at every N: its spread is 1, as
    # in the suite's stability factor, not inf
    assert _run_cli(["deleeuw-sweep", "--seed", "247", "--trials", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("0,") and rows[1].split(",")[-1] == "1"
    assert deleeuw_stability_factor(247, signals=1) == 1.0


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
