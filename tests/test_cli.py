import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spdelab import cli, engine, hjmm, lab, scenarios
from spdelab.errors import SchemaError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")


def run_cli(args):
    return cli.run(args)


def test_certify_block_example(tmp_path, capsys):
    rc = run_cli(["certify", os.path.join(SCEN, "gdc-example-2x2.json"),
                  "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["lambda0"] == pytest.approx(0.5, abs=1e-9)
    assert cert["lambda1"] == 1.5
    assert "lambda0 = 0.4999999" in out
    assert (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("lambda1", [1e6, 1e9, 1e12, 1e14, 1e300])
def test_certify_block_example_at_large_lambda1(tmp_path, capsys, lambda1):
    doc = scenarios.load_document(os.path.join(SCEN, "gdc-example-2x2.json"))
    doc["gdc"]["lambda1"] = lambda1
    f = tmp_path / "large.json"
    f.write_text(json.dumps(doc))
    assert run_cli(["certify", str(f), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert cert["lambda0"] == pytest.approx(1.0 - 1.0 / (4.0 * (lambda1 - 1.0)), abs=1e-10)


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1
    capsys.readouterr()


def test_schema_unknown_key_exits_one(tmp_path, capsys):
    doc = {"id": "bad", "space": {"kind": "euclidean", "dim": 1},
           "operator": {"mode": "matrix-exponential", "generator": [[-1.0]]},
           "projection": {"builder": "zero"}, "bogus": 1}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert run_cli(["certify", str(f), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err


def test_certification_failure_exits_two(tmp_path, capsys):
    doc = {"id": "expanding", "space": {"kind": "euclidean", "dim": 1},
           "operator": {"mode": "matrix-exponential", "generator": [[1.0]]},
           "projection": {"builder": "zero"}}
    f = tmp_path / "exp.json"
    f.write_text(json.dumps(doc))
    assert run_cli(["certify", str(f), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_lab_counterexample_exits_three(tmp_path, capsys):
    rc = run_cli(["lab", os.path.join(SCEN, "counterexample-antidissipative.json"),
                  "--out", str(tmp_path), "--traj", "64"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "diverges" in out
    verdicts = (tmp_path / "lab_verdicts.csv").read_text()
    assert "second-moment-exponential-growth" in verdicts


def test_simulate_csv_format(tmp_path, capsys):
    doc = {"id": "sim-ou", "space": {"kind": "euclidean", "dim": 1},
           "operator": {"mode": "matrix-exponential", "generator": [[-1.0]]},
           "projection": {"builder": "zero"},
           "coefficients": {"F": {"builder": "zero"},
                            "sigma": {"builder": "constant", "columns": [[1.0]]}},
           "experiment": {"dt": 0.01, "horizon": 1.0, "traj": 500, "seed": 4,
                          "snapshots": [0.5, 1.0], "observables": ["coord:0", "norm2"],
                          "initial": [1.0]}}
    f = tmp_path / "sim.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["simulate", str(f), "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert rc == 0
    text = (tmp_path / "run" / "simulate.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "time,statistic,value,std_err"
    assert text.endswith("\n")
    assert len(lines) == 1 + 2 * 2 * 2
    assert "," in lines[1] and "." in lines[1]


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    doc = {"id": "det", "space": {"kind": "euclidean", "dim": 1},
           "operator": {"mode": "matrix-exponential", "generator": [[-1.0]]},
           "projection": {"builder": "zero"},
           "coefficients": {"sigma": {"builder": "constant", "columns": [[1.0]]}},
           "experiment": {"dt": 0.01, "horizon": 0.5, "traj": 300, "seed": 9,
                          "snapshots": [0.5], "observables": ["coord:0"],
                          "initial": [0.3]}}
    f = tmp_path / "d.json"
    f.write_text(json.dumps(doc))
    assert run_cli(["simulate", str(f), "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["simulate", str(f), "--out", str(tmp_path / "b"),
                    "--threads", "3"]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "simulate.csv").read_bytes() == \
        (tmp_path / "b" / "simulate.csv").read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() != b""


def test_ou_jump_rate_without_marks_is_one_error_line(tmp_path, capsys):
    f = tmp_path / "no-marks.json"
    f.write_text(json.dumps(_mutated_document("coefficients.gamma",
                                              {"builder": "additive", "rate": 1.5})))
    assert run_cli(["ou-limit", str(f), "--traj", "4", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and "coefficients.gamma.marks" in err


def test_an_ou_section_is_an_unknown_key(tmp_path, capsys):
    # ou-limit reads the coefficients section; the OU noise is declared once
    f = tmp_path / "ou.json"
    f.write_text(json.dumps(_mutated_document("ou", {"drift": [0.0, 0.0]})))
    assert run_cli(["ou-limit", str(f), "--traj", "4", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and err.startswith("error: $.ou: unknown key")


def test_simulate_with_jump_rate_zero_is_simulate_without_jumps(tmp_path, capsys):
    zero = {"builder": "additive", "rate": 0.0,
            "marks": {"kind": "gaussian-mark", "mean": [0.3, 0.0], "cov_diag": [0.25, 0.0]}}
    for name, gamma in (("none", {"builder": "none"}), ("zero", zero)):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(_mutated_document("coefficients.gamma", gamma)))
        assert run_cli(["simulate", str(f), "--traj", "300",
                        "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "none" / "simulate.csv").read_bytes() == \
        (tmp_path / "zero" / "simulate.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "lab"])
def test_a_negative_seed_is_one_error_line(tmp_path, capsys, command):
    name = "ou-decoupled-2d.json" if command == "simulate" else "forward-curve.json"
    assert run_cli([command, os.path.join(SCEN, name), "--seed", "-3", "--traj", "4",
                    "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and "seed" in err


def test_importing_the_cli_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = "import sys, spdelab.cli; sys.exit(1 if 'scipy' in sys.modules else 0)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_w2_cli_roundtrip(tmp_path, capsys):
    gen = np.random.Generator(np.random.Philox(12))
    a = gen.normal(0.0, 1.0, 400)
    b = gen.normal(1.0, 1.0, 400)
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    fa.write_text("x\n" + "\n".join(repr(float(v)) for v in a) + "\n")
    fb.write_text("x\n" + "\n".join(repr(float(v)) for v in b) + "\n")
    rc = run_cli(["w2", str(fa), str(fb)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "estimator: sort" in out
    val = float(out.split("=")[1].split("(")[0])
    assert val == pytest.approx(1.0, abs=0.2)


_BAD_SAMPLES = {
    "non-numeric": "x\n1\nabc\n",
    "nan-sort": "x\n1\nnan\n",
    "inf-sort": "x\ninf\n2\n",
    "nan-assignment": "x,y\n1,2\nnan,3\n",
    "header-only": "x\n",
}


@pytest.mark.parametrize("text", list(_BAD_SAMPLES.values()), ids=list(_BAD_SAMPLES))
def test_w2_malformed_samples_are_one_error_line(tmp_path, capsys, text):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text(text)
    good.write_text("x,y\n1,2\n3,4\n" if "," in text else "x\n1\n2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a printed warning is a second stderr line
        rc = run_cli(["w2", str(bad), str(good)])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert str(bad) in err


def test_ou_limit_cli(tmp_path, capsys):
    rc = run_cli(["ou-limit", os.path.join(SCEN, "ou-decoupled-2d.json"),
                  "--out", str(tmp_path), "--traj", "2000", "--dt", "0.01",
                  "--horizon", "12.0"])
    capsys.readouterr()
    assert rc == 0
    lines = (tmp_path / "ou_limit.csv").read_text().splitlines()
    assert lines[0].startswith("u,re_quadrature")
    assert len(lines) == 6
    # the zero-noise coordinate gives an exact phase match
    import csv as _csv
    rows = list(_csv.reader(lines[1:]))
    diffs = [float(r[-1]) for r in rows]
    assert max(diffs) < 0.1


def test_hjmm_cli_small(tmp_path, capsys):
    # a forward curve on 256 points decays under lab's vanishing kind
    doc = _mutated_document("space.n", 256)
    space = hjmm.forward_space(3.0, n=256)
    doc["experiment"]["lab"].update(x=(0.05 + 0.04 * np.exp(-2.0 * space.grid)).tolist(),
                                    dt=space.dx, spacing=0.25)
    f = tmp_path / "fc.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["lab", str(f), "--traj", "64", "--horizon", "4.0", "--seed", "6",
                  "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass] vanishing-coefficients/rate" in out
    rates = (tmp_path / "lab_rates.csv").read_text().splitlines()
    assert rates[0] == "name,rate,prefactor,residual"
    assert rates[2].startswith("theoretical:epsilon,0.16981")


def test_report_requires_manifest(tmp_path, capsys):
    assert run_cli(["report", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("text", ["{bad", "[1]"], ids=["not-json", "not-an-object"])
@pytest.mark.parametrize("command", ["report", "lab"])
def test_a_malformed_json_file_is_one_error_line(tmp_path, capsys, command, text):
    f = tmp_path / "manifest.json"
    f.write_text(text)
    argv = ["report", str(tmp_path)] if command == "report" else \
        ["lab", str(f), "--out", str(tmp_path / "o")]
    rc = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "manifest.json" in err if command == "report" else \
        err.startswith((f"error: {f}: not valid JSON", f"error: {f}: $: expected an object")), err


def test_report_never_prints_a_traceback(tmp_path, capsys):
    # a verdict file or a manifest that cannot be read is one error line
    # naming it
    cases = [("lab_verdicts.csv", b"\xff\xfe", b'{"subcommand": "lab"}'),
             ("manifest.json", None, b"[1]"),
             ("manifest.json", None, b"\xff\xfe")]
    for i, (named, verdicts, manifest) in enumerate(cases):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        (run_dir / "manifest.json").write_bytes(manifest)
        if verdicts is not None:
            (run_dir / "lab_verdicts.csv").write_bytes(verdicts)
        rc = run_cli(["report", str(run_dir)])
        err = capsys.readouterr().err
        assert rc == 1
        assert _one_error_line(err) and named in err, err


def test_report_lists_verdicts(tmp_path, capsys):
    rc = run_cli(["lab", os.path.join(SCEN, "counterexample-antidissipative.json"),
                  "--out", str(tmp_path), "--traj", "64"])
    assert rc == 3
    assert run_cli(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lab_verdicts.csv" in out


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["simulate", "ou-decoupled-2d.json", "--traj", "0"],
    ["simulate", "ou-decoupled-2d.json", "--dt", "0"],
    ["simulate", "ou-decoupled-2d.json", "--dt", "nan"],
    ["simulate", "ou-decoupled-2d.json", "--horizon", "inf"],
    ["simulate", "ou-decoupled-2d.json", "--snapshots", "a,b"],
    ["simulate", "ou-decoupled-2d.json", "--snapshots", "1,nan"],
    ["simulate", "ou-decoupled-2d.json", "--observables", "coord:x"],
    ["simulate", "ou-decoupled-2d.json", "--seed", "-1"],
    ["simulate", "ou-decoupled-2d.json", "--traj", "many"],
    ["simulate"],
    ["lab", "ou-decoupled-2d.json", "--dt", "0"],
    ["lab", "ou-decoupled-2d.json", "--horizon", "inf"],
    ["ou-limit", "ou-decoupled-2d.json", "--dt", "0"],
    ["ou-limit", "ou-decoupled-2d.json", "--horizon", "inf"],
    ["lab", "forward-curve.json", "--traj", "0"],
    ["lab", "forward-curve.json", "--dt", "nan"],
    ["lab", "forward-curve.json", "--dt", "0"],
    ["lab", "forward-curve.json", "--horizon", "inf"],
    ["lab"],
    ["simulate", "ou-decoupled-2d.json", "--horizon", "1e30"],
    ["simulate", "ou-decoupled-2d.json", "--steps", "10000000000"],
    ["simulate", "ou-decoupled-2d.json", "--traj", "2", "--snapshots", "1e30"],
    ["lab", "ou-decoupled-2d.json", "--horizon", "1e300"],
    ["ou-limit", "ou-decoupled-2d.json", "--horizon", "1e308"],
    ["lab", "forward-curve.json", "--horizon", "1e30"],
])
def test_simulate_zero_trajectories_is_one_error_line(tmp_path, capsys, argv):
    argv = [os.path.join(SCEN, a) if a.endswith(".json") else a for a in argv]
    rc = run_cli(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1", "65", "1000000", "x"])
def test_threads_outside_the_bound_are_one_error_line(tmp_path, capsys, monkeypatch, value):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started")

    monkeypatch.setattr(engine, "ThreadPoolExecutor", no_pool)
    rc = run_cli(["lab", os.path.join(SCEN, "forward-curve.json"), "--traj", "100000",
                  "--threads", value, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "--threads" in err
    assert engine.MAX_THREADS == 64


@pytest.mark.parametrize("command", ["simulate", "w2"])
def test_a_directory_as_input_is_one_error_line(tmp_path, capsys, command):
    (tmp_path / "b.csv").write_text("x0\n1.0\n")
    argv = ["simulate", str(tmp_path), "--out", str(tmp_path / "o")] if command == "simulate" \
        else ["w2", str(tmp_path), str(tmp_path / "b.csv")]
    rc = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "directory" in err


def test_a_scenario_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    f = tmp_path / "utf16.json"
    f.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(SchemaError, match="utf16.json"):
        scenarios.load_document(str(f))
    rc = run_cli(["simulate", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "utf16.json" in err and "UTF-8" in err


def test_unmet_hypothesis_prints_its_prefix_once(tmp_path, capsys):
    with open(os.path.join(SCEN, "counterexample-kernel-noise.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["experiment"] = {"kind": "limit-existence", "T": 1, "dt": 0.01, "traj": 8}
    f = tmp_path / "kernel-noise.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("hypothesis violated: deterministic-p1")
    assert err.count("hypothesis violated") == 1


def test_certification_failure_prints_its_prefix_once(tmp_path, capsys):
    doc = {"id": "expanding", "space": {"kind": "euclidean", "dim": 1},
           "operator": {"mode": "matrix-exponential", "generator": [[1.0]]},
           "projection": {"builder": "zero"}}
    f = tmp_path / "exp.json"
    f.write_text(json.dumps(doc))
    assert run_cli(["certify", str(f), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("hypothesis violated") == 1


@pytest.mark.parametrize("gdc", [{"lamda1": 1.5}, {"lambda1": -0.5}])
def test_certify_checks_the_certificate_section(tmp_path, capsys, gdc):
    with open(os.path.join(SCEN, "gdc-example-2x2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["gdc"] = gdc
    f = tmp_path / "bad-gdc.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["certify", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "gdc.lam" in err


def test_simulate_uses_the_document_seed(tmp_path, capsys):
    scen = os.path.join(SCEN, "ou-decoupled-2d.json")
    assert run_cli(["simulate", scen, "--traj", "50", "--out", str(tmp_path / "doc")]) == 0
    assert run_cli(["simulate", scen, "--traj", "50", "--seed", "20405",
                    "--out", str(tmp_path / "flag")]) == 0
    assert run_cli(["simulate", scen, "--traj", "50", "--seed", "0",
                    "--out", str(tmp_path / "zero")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "doc" / "manifest.json").read_text())
    assert manifest["master_seed"] == 20405
    doc_csv = (tmp_path / "doc" / "simulate.csv").read_bytes()
    assert doc_csv == (tmp_path / "flag" / "simulate.csv").read_bytes()
    assert doc_csv != (tmp_path / "zero" / "simulate.csv").read_bytes()


def test_blowup_is_one_error_line_naming_both_checks(tmp_path, capsys):
    doc = {"id": "blowup", "space": {"kind": "euclidean", "dim": 1},
           "operator": {"mode": "matrix-exponential", "generator": [[-1.0]]},
           "projection": {"builder": "zero"},
           "coefficients": {"F": {"builder": "linear", "matrix": [[2000.0]]}},
           "experiment": {"dt": 0.01, "horizon": 5.0, "traj": 2, "initial": [1.0],
                          "snapshots": [0.05, 5.0]}}
    f = tmp_path / "blowup.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["simulate", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "at step 499" in err and "last passed check: step 4" in err


def test_a_zero_step_run_rejects_an_initial_state_past_the_blowup_bound(tmp_path, capsys):
    with open(os.path.join(SCEN, "ou-decoupled-2d.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["experiment"]["simulate"].update(initial=[1e300, 7.0], snapshots=[0.0],
                                         observables=["norm2", "coord:0"])
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["simulate", str(f), "--steps", "0", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and "blow-up bound" in err
    assert not (tmp_path / "o" / "simulate.csv").exists()


def _hjmm_document_file(tmp_path, **lab_section):
    """The small forward-curve document of ``_mutated_document`` (beta 3, 64
    points, T 4, 4 curves) with keys of its ``experiment.lab`` section set."""
    doc = _mutated_document("hjmm.volatility", "example")
    doc["experiment"]["lab"].update(lab_section)
    f = tmp_path / "fc.json"
    f.write_text(json.dumps(doc))
    return str(f)


_GRID64 = np.linspace(0.0, 20.0, 64)
_DX64 = hjmm.forward_space(3.0, n=64).dx


@pytest.mark.parametrize("horizon", ["0.3", "1.25"])
def test_hjmm_horizon_too_short_for_the_decay_fit_names_T(tmp_path, capsys, horizon):
    # --horizon lays over T; 0.3 is below one grid cell (the document's dt),
    # and 1.25 leaves 3 snapshots from FIT_BURN on
    rc = run_cli(["lab", _hjmm_document_file(tmp_path), "--horizon", horizon,
                  "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert err.startswith(("error: experiment.T:", f"error: T = {float(horizon)!r}")), err
    assert not (tmp_path / "lab_series.csv").exists()


@pytest.mark.parametrize("amplitude", ["1e-170", "1e-160", "1e-155", "1e-152", "1e-151",
                                       "1e-150", "1e-145", "1e-140"])
def test_hjmm_tiny_amplitudes_never_end_in_a_fit_error(tmp_path, capsys, amplitude):
    # the squared distance underflows to 0 below about 1e-162 (no fit), and
    # a positive one at or below 1e-300 is rejected before simulating
    x = float(amplitude) * np.exp(-2.0 * _GRID64)
    rc = run_cli(["lab", _hjmm_document_file(tmp_path, x=x.tolist()), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert "not enough positive values" not in err
    if float(amplitude) in (1e-160, 1e-155):
        assert rc == 1
    if rc == 1:
        assert _one_error_line(err) and err.startswith("error: x:"), err
        assert not (tmp_path / "lab_series.csv").exists()
    else:
        assert rc == 0


def test_hjmm_start_at_the_long_rate_passes(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["lab", _hjmm_document_file(tmp_path, x=[0.05] * 64), "--horizon", "2",
                      "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass] vanishing-coefficients/rate: started at the invariant point; " \
        "no decay to fit" in out


def _mutated_document(path, value):
    """A scenario document with the value at the dotted ``path`` replaced;
    ``space.*`` and ``hjmm.*`` paths start from a small forward-curve
    document, whose lab section runs the vanishing kind in steps and
    snapshots of one grid cell."""
    if path.startswith(("space.", "hjmm.")):
        lab_section = {"kind": "vanishing", "x": (0.05 + 0.04 * np.exp(-2.0 * _GRID64)).tolist(),
                       "dt": _DX64, "spacing": _DX64, "T": 4.0, "traj": 4, "seed": 1}
        doc = {"id": "hjmm-small", "space": {"kind": "hbeta-grid", "beta": 3.0, "n": 64},
               "operator": {"mode": "grid-shift"}, "projection": {"builder": "long-rate"},
               "hjmm": {"volatility": "example"},
               "experiment": {"simulate": {"dt": 0.01, "horizon": 0.1, "traj": 2},
                              "lab": lab_section}}
    else:
        with open(os.path.join(SCEN, "ou-decoupled-2d.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
    *parents, leaf = path.split(".")
    node = doc
    for k in parents:
        node = node[k]
    node[leaf] = value
    return doc


# One malformed value ends in exit 1 with one error line naming its key, in
# each command that reads a document: `true` where a number is expected, the
# NaN and Infinity literals (Python's json reads them), and a non-string or
# empty id.
_MALFORMED_VALUES = [
    ("certify", "lipschitz", {"L_F": True}, "lipschitz.L_F"),
    ("certify", "lipschitz", {"L_F": math.nan}, "lipschitz.L_F"),
    ("certify", "lipschitz", {"L_F": math.inf}, "lipschitz.L_F"),
    ("certify", "coefficients.F", {"builder": "sine", "amplitude": math.nan},
     "coefficients.F.amplitude"),
    ("certify", "coefficients.sigma.columns", [[math.inf], [0.0]],
     "coefficients.sigma.columns"),
    ("simulate", "experiment.simulate.dt", True, "experiment.dt"),
    ("simulate", "experiment.simulate.dt", math.nan, "experiment.dt"),
    ("simulate", "experiment.simulate.dt", math.inf, "experiment.dt"),
    ("simulate", "experiment.simulate.initial", [math.nan, 0.0], "experiment.initial"),
    ("lab", "experiment.lab.T", True, "experiment.T"),
    ("lab", "experiment.lab.T", math.nan, "experiment.T"),
    ("lab", "experiment.lab.seed", True, "experiment.seed"),
    ("lab", "experiment.lab.x", [math.inf, 7.0], "experiment.x"),
    ("lab", "experiment.lab.y", [5.0, -math.inf], "experiment.y"),
    *[(command, "id", value, "$.id") for command in ("certify", "simulate", "lab")
      for value in (5, "", None, ["ou"])],
    ("lab", "space.n", 1, "space.n"),
    ("lab", "space.beta", 0, "space.beta"),
    ("simulate", "coefficients.sigma.builder", "tabulated", "coefficients.sigma.builder"),
]


@pytest.mark.parametrize("command,path,value,key", [
    pytest.param("simulate", "experiment.simulate.observables", 3, "experiment.observables",
                 id="observables"),
    pytest.param("simulate", "experiment.simulate.snapshots", [True, 2], "experiment.snapshots",
                 id="snapshots-boolean"),
    pytest.param("simulate", "operator.generator", [[1, 2], [3]], "operator.generator",
                 id="generator-ragged"),
    pytest.param("simulate", "coefficients.sigma",
                 {"builder": "linear-modes", "tensors": [[[1, 2], [3]]]},
                 "coefficients.sigma.tensors", id="tensors-ragged"),
    pytest.param("simulate", "coefficients.sigma", {"builder": "linear-modes", "tensors": "x"},
                 "coefficients.sigma.tensors", id="tensors-string"),
    pytest.param("simulate", "projection.coords", [5], "projection.coords",
                 id="coords-out-of-range"),
    pytest.param("simulate", "projection.coords", [True], "projection.coords",
                 id="coords-boolean"),
    pytest.param("simulate", "flags", {"deterministic_P1": True}, "$.flags: unknown key",
                 id="flags"),
    pytest.param("simulate", "coefficients.sigma.vanishing_wrapper", "no",
                 "coefficients.sigma.vanishing_wrapper", id="vanishing-wrapper-string"),
    pytest.param("ou-limit", "experiment.ou-limit.probes", 5, "experiment.probes",
                 id="probes-number"),
    pytest.param("ou-limit", "experiment.ou-limit.t_cut", 0, "experiment.t_cut",
                 id="t-cut-zero"),
    *[pytest.param(*case, id=f"{case[0]}-{case[3]}-{json.dumps(case[2])}")
      for case in _MALFORMED_VALUES],
])
def test_simulate_checks_the_observables_key(tmp_path, capsys, command, path, value, key):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(_mutated_document(path, value)))
    argv = [command, str(f), "--out", str(tmp_path / "o")]
    rc = run_cli(argv if command == "certify" else argv + ["--traj", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind,key,value", [
    pytest.param(kind, key, value, id=f"{key}-{'value0' if key == 'factors' else value}-{kind}")
    for kind in ("example", "zero", "tabulated")
    for key, value in (("factors", [[1.0]]), ("M", 5.0), ("L_sigma", 9.0), ("L_gamma", 0.5))
    if (kind, key) != ("tabulated", "factors")])
def test_fixed_volatility_rejects_declared_constants(tmp_path, capsys, kind, key, value):
    # every volatility's constants are fixed (the example's) or derived from
    # its factors (tabulated ones); a declared one would not be the one
    # certified. Only a tabulated volatility takes factors
    doc = _mutated_document("hjmm.volatility", kind)
    if kind == "tabulated":
        doc["hjmm"]["factors"] = [[0.0] * 64]
    doc["hjmm"][key] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["simulate", str(f), "--traj", "2", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert f"hjmm.{key}" in err
    assert "Traceback" not in err


def test_ou_limit_caps_the_quadrature_nodes(tmp_path, capsys):
    f = tmp_path / "huge-t-cut.json"
    f.write_text(json.dumps(_mutated_document("experiment.ou-limit.t_cut", 1e30)))
    rc = run_cli(["ou-limit", str(f), "--traj", "2", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "budget" in err


# Property test of the input contract: mutated ou-limit experiments end in a
# documented exit code, exit 1 prints exactly one error line, and nothing
# escapes as a traceback. The base document is the shipped one with a tiny
# horizon and few trajectories, so an example runs in tens of milliseconds.

_JUNK = st.sampled_from([None, True, "x", [], {}, -1, 0, 1e30])
_OU_LIMIT_MUTATIONS = {
    "x": st.one_of(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
                   st.lists(st.floats(), max_size=3), _JUNK),
    "probes": st.one_of(st.lists(st.lists(st.floats(-3, 3), min_size=2, max_size=2),
                                 max_size=3),
                        st.lists(st.one_of(_JUNK, st.lists(st.floats(), max_size=3)),
                                 max_size=2),
                        _JUNK),
    "t_cut": st.one_of(st.floats(-50, 50), st.sampled_from([1e30, math.inf, math.nan]), _JUNK),
    "quad_step": st.one_of(st.sampled_from([0.005, 0.05, 0.5, 100.0, 1e-9, 0.0, -0.01,
                                            math.nan]), _JUNK),
    "traj": st.one_of(st.integers(-2, 6), st.floats(0, 4), _JUNK),
    "horizon": st.one_of(st.floats(-0.05, 0.05), _JUNK),
}


# one or two keys per example, so most examples get past the schema checks
_OU_LIMIT_MUTATION = st.lists(st.sampled_from(sorted(_OU_LIMIT_MUTATIONS)), min_size=1,
                              max_size=2, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _OU_LIMIT_MUTATIONS[k] for k in keys}))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_OU_LIMIT_MUTATION)
@example(mutation={"horizon": 1e30})
def test_mutated_ou_limit_keeps_the_exit_contract(tmp_path, capsys, mutation):
    doc = _mutated_document("experiment.ou-limit.horizon", 0.02)
    doc["experiment"]["ou-limit"]["traj"] = 4
    doc["experiment"]["ou-limit"].update(mutation)
    f = tmp_path / "mutated.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["ou-limit", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert _one_error_line(err)
    assert "Traceback" not in err


# The same contract for the coefficients section that ou-limit reads: a
# state-dependent builder ends in exit 1 naming its coefficient, noise on the
# range of P in exit 2, and malformed marks in exit 1 naming coefficients.gamma.
# One probe on a coarse quadrature keeps an example near 10 ms.

_STATE_DEPENDENT = [
    ("F", {"builder": "linear", "matrix": [[-0.5, 0.0], [0.0, 0.0]]}),
    ("F", {"builder": "sine", "amplitude": 0.1}),
    ("sigma", {"builder": "linear-modes", "tensors": [[[0.1, 0.0], [0.0, 0.0]]]}),
    ("sigma", {"builder": "constant", "columns": [[1.0], [0.0]], "vanishing_wrapper": True}),
]
_ON_RAN_P = [
    ("F", {"builder": "constant", "value": [0.0, 0.5]}),
    ("sigma", {"builder": "constant", "columns": [[1.0], [0.3]]}),
    ("gamma", {"builder": "additive", "rate": 1.0,
               "marks": {"kind": "point-mass", "point": [0.2, -0.1]}}),
    ("gamma", {"builder": "additive", "rate": 1.0,
               "marks": {"kind": "gaussian-mark", "mean": [0.0, 0.0], "cov_diag": [0.25, 0.1]}}),
    ("gamma", {"builder": "additive", "rate": 1.0,
               "marks": {"kind": "uniform-mark", "lo": [0.0, -0.1], "hi": [0.3, 0.1]}}),
]
_MARK_VECTOR = st.one_of(st.floats(-1.0, 1.0).map(lambda v: [v, 0.0]),      # in ker P
                         st.lists(st.floats(), max_size=3),
                         st.sampled_from([[1.0, math.nan], [[0.1], [0.2, 0.3]], [0.1, "x"]]),
                         _JUNK)
_MARKS = st.one_of(
    *[st.fixed_dictionaries({"kind": st.just(kind), **{k: _MARK_VECTOR for k in fields}})
      for kind, fields in (("point-mass", ("point",)), ("gaussian-mark", ("mean", "cov_diag")),
                           ("uniform-mark", ("lo", "hi")))],
    _JUNK, st.fixed_dictionaries({"kind": _JUNK}))
_COEFFICIENT_MUTATION = st.one_of(
    st.sampled_from(_STATE_DEPENDENT).map(lambda c: (*c, 1)),
    st.sampled_from(_ON_RAN_P).map(lambda c: (*c, 2)),
    st.fixed_dictionaries({"builder": st.just("additive"), "rate": st.floats(0.0, 2.0),
                           "marks": _MARKS}).map(lambda g: ("gamma", g, None)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_COEFFICIENT_MUTATION)
@example(case=("gamma", {"builder": "additive", "rate": 1.0,
                         "marks": {"kind": "gaussian-mark", "mean": [0.1, 0.0],
                                   "cov_diag": [-0.25, 0.0]}}, 1))
@example(case=("gamma", {"builder": "additive", "rate": 1.0,
                         "marks": {"kind": "uniform-mark", "lo": [0.5, 0.0],
                                   "hi": [0.1, 0.0]}}, 1))
def test_mutated_ou_coefficients_keep_the_exit_contract(tmp_path, capsys, case):
    key, value, want = case
    doc = _mutated_document(f"coefficients.{key}", value)
    doc["experiment"]["ou-limit"].update(horizon=0.02, traj=4, quad_step=0.05,
                                         probes=[[1.0, 0.5]])
    f = tmp_path / "mutated.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["ou-limit", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    if rc == 1:
        assert _one_error_line(err) and f"coefficients.{key}" in err, err
    if want is not None:
        assert rc == want, err


# Property test of the w2 input contract: two sample files made of random
# rows of numbers, non-finite values, words, blanks and ragged widths end in
# exit 0 or in exit 1 with exactly one error line, and never in a traceback.

_SAMPLE_CELL = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " ", "abc", "nan", "-inf", "1e999", "1e-400", "1e100", "-1e101",
                     "#", '"1"']),
    st.text(alphabet="0123456789.e+-nainfx ", max_size=6))
_SAMPLE_FILE = st.tuples(
    st.sampled_from(["", "x\n", "x,y\n"]),
    st.lists(st.lists(_SAMPLE_CELL, max_size=3).map(",".join), max_size=6),
).map(lambda hr: hr[0] + "".join(row + "\n" for row in hr[1]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text_a=_SAMPLE_FILE, text_b=_SAMPLE_FILE)
@example(text_a="x\n1\n2\n", text_b="x\n1.5\n-3\n")
@example(text_a="x,y\n1,2\n3,4\n", text_b="x,y\n0,0\n1,1\n")
def test_w2_sample_files_keep_the_exit_contract(tmp_path, capsys, text_a, text_b):
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    fa.write_text(text_a)
    fb.write_text(text_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["w2", str(fa), str(fb)])
    err = capsys.readouterr().err
    assert rc in (0, 1)
    if rc == 1:
        assert _one_error_line(err)
    assert "Traceback" not in err


# Property test of the forward-curve document contract under `lab`: one or
# two keys of the small forward-curve document (the grid, hjmm.beta_prime and
# the experiment.lab section) set to non-finite, huge, negative, zero or
# non-numeric values end in exit 0-3, and there is never a traceback or a
# numpy warning. Exit 1 comes with exactly one error line, and it names a
# mutated key: by its path, or through a check that reads it. The decay fit's
# checks name `T = ...` and `x: ...`, T's checks read dt, x's length is the
# grid's n, and the snapshot spacing must not be below dt; the engine's
# trajectory budget names the trajectories. A non-finite or non-numeric value
# is malformed for every key and ends in exit 1. The base run has a 64-point
# grid, 13 steps and 4 curves, and the curated values make no long run (no
# tiny dt, and no n or traj that is large but within its budget), so an
# example takes milliseconds.

def _curve(long_rate, amplitude, decay):
    """``long_rate + amplitude e^(-decay x)`` on the 64-point grid."""
    with np.errstate(all="ignore"):
        return (long_rate + amplitude * np.exp(-decay * _GRID64)).tolist()


_HJMM_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e30, -1.0, 0.0,
                                -0.0, 0.5, 1.0, 2.5])
_HJMM_FLOAT = st.one_of(_HJMM_NUMBER, st.just("x"))
_HJMM_COUNT = st.sampled_from([math.nan, math.inf, 1e3, -1, 0, 1, 2, 3, int("10" * 15), 2**63,
                               "x"])
_HJMM_CURVE = st.one_of(st.builds(_curve, _HJMM_NUMBER, _HJMM_NUMBER, _HJMM_NUMBER),
                        st.sampled_from(["x", 0.05, [], [0.05] * 63, [[0.05]] * 64, ["x"] * 64]))
_HJMM_T = ("experiment.T", "error: T = ")
_HJMM_MUTATIONS = {      # key: (values, what an error line names it by)
    "space.beta": (_HJMM_FLOAT, ("space.beta",)),
    "space.n": (_HJMM_COUNT, ("space.n", "experiment.x", *_HJMM_T)),
    "space.x_max": (_HJMM_FLOAT, ("space.x_max", *_HJMM_T)),
    "hjmm.beta_prime": (_HJMM_FLOAT, ("hjmm.beta_prime",)),
    "experiment.lab.x": (_HJMM_CURVE, ("experiment.x", "error: x:")),
    "experiment.lab.T": (_HJMM_FLOAT, _HJMM_T),
    "experiment.lab.dt": (_HJMM_FLOAT, ("experiment.dt", "experiment.spacing", *_HJMM_T)),
    "experiment.lab.traj": (_HJMM_COUNT, ("experiment.traj", "trajectories exceed")),
    "experiment.lab.seed": (_HJMM_COUNT, ("experiment.seed",)),
}
_HJMM_MUTATION = st.lists(st.sampled_from(sorted(_HJMM_MUTATIONS)), min_size=1, max_size=2,
                          unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _HJMM_MUTATIONS[k][0] for k in keys}))


def _malformed(v):
    """A value no key takes, whatever the other keys hold."""
    if isinstance(v, list):
        return not all(map(_finite_number, v))
    return isinstance(v, str) or (isinstance(v, float) and not math.isfinite(v))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_HJMM_MUTATION)
@example(mutation={"hjmm.beta_prime": math.nan})
@example(mutation={"hjmm.beta_prime": 2.5})
@example(mutation={"space.x_max": math.inf})
@example(mutation={"space.n": 3})
@example(mutation={"space.x_max": 2.5})      # at the long rate within 3 fit snapshots
@example(mutation={"experiment.lab.x": _curve(0.05, 0.04, -1000.0)})
@example(mutation={"space.beta": 1e308, "hjmm.beta_prime": math.inf})      # e^(beta x) overflows
@example(mutation={"experiment.lab.dt": 1e308, "experiment.lab.T": 1e308})
@example(mutation={"experiment.lab.seed": 2**63})
def test_mutated_hjmm_documents_keep_the_exit_contract(tmp_path, capsys, mutation):
    doc = _mutated_document("hjmm.volatility", "example")
    for path, value in mutation.items():
        _apply(doc, "set", tuple(path.split(".")), value)
    f = tmp_path / "mutated.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    if rc == 1:
        assert _one_error_line(err), err
        assert any(name in err for key in mutation for name in _HJMM_MUTATIONS[key][1]), err
    if any(map(_malformed, mutation.values())):
        assert rc == 1, err


def _limit_existence_document(**lab_section):
    """The shipped ou-decoupled-2d.json with a limit-existence lab section."""
    section = {"kind": "limit-existence", "x": [5.0, 7.0], "T": 8.0, "dt": 0.002,
               "traj": 4000, "seed": 20405}
    return _mutated_document("experiment.lab", {**section, **lab_section})


@pytest.mark.parametrize("taus", [[0.5, 1.0, 0.0015], [-0.5], [0.5, 1e30]],
                         ids=["not-a-multiple", "negative", "over-the-step-budget"])
def test_limit_existence_checks_every_tau_before_simulating(tmp_path, capsys, monkeypatch,
                                                            taus):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before tau_list was checked")

    for name in ("simulate_ensemble", "simulate_coupled_ensemble"):
        monkeypatch.setattr(lab, name, no_simulation)
    f = tmp_path / "taus.json"
    f.write_text(json.dumps(_limit_existence_document(tau_list=taus)))
    rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "tau_list" in err


def _vanishing_document():
    """ou-decoupled-2d.json under the vanishing wrapper, started off its anchor;
    the wrapped diffusion depends on the state, with a measured L_sigma of 0.987."""
    doc = _mutated_document("experiment.lab", {"kind": "vanishing", "x": [5.0, 7.0],
                                               "dt": 0.01, "traj": 4})
    doc["coefficients"]["sigma"]["vanishing_wrapper"] = True
    doc["lipschitz"] = {"L_sigma": 1.0}
    return doc


@pytest.mark.parametrize("document, horizon", [
    pytest.param(lambda: _limit_existence_document(tau_list=[0.0, 0.5, 1.0]), "0.5",
                 id="limit-existence"),
    pytest.param(lambda: scenarios.load_document(
        os.path.join(SCEN, "counterexample-antidissipative.json")), "1", id="counterexample"),
    pytest.param(_vanishing_document, "0.5", id="vanishing"),
])
def test_lab_decay_fits_check_their_snapshots_before_simulating(tmp_path, capsys, monkeypatch,
                                                                document, horizon):
    # a horizon with fewer than 4 snapshots leaves a decay fit too few points
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the snapshot count was checked")

    for name in ("simulate_ensemble", "simulate_ensembles", "simulate_coupled_ensemble",
                 "simulate_pair_ensemble"):
        monkeypatch.setattr(lab, name, no_simulation)
    f = tmp_path / "short.json"
    f.write_text(json.dumps(document()))
    rc = run_cli(["lab", str(f), "--horizon", horizon, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert f"T = {float(horizon)!r}" in err and "spacing" in err


def test_a_tiny_vanishing_start_names_x_before_simulating(tmp_path, capsys, monkeypatch):
    # x is 1e-158 off its anchor: a squared distance of 1e-316 is positive but
    # below the decay fit's floor, so no snapshot could be fitted
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the decay fit's floor was checked")

    monkeypatch.setattr(lab, "simulate_ensemble", no_simulation)
    doc = _vanishing_document()
    doc["experiment"]["lab"]["x"] = [1e-158, 7.0]
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["lab", str(f), "--horizon", "2", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and err.startswith("error: x:"), err


# Property test of the lab input contract: a limit-existence experiment with
# one or two of its keys mutated (wrong types, non-finite, huge and negative
# values, ragged arrays) ends in exit 0-3, exit 1 comes with exactly one error
# line, and there is never a traceback. A lone key set to a malformed value
# ends in exit 1 naming that key, and a trajectory count over the budget in
# exit 1. The base run takes 100 steps of 4 trajectories; the drawn values
# keep every valid run that small (dt >= 0.002, T and tau at most 2, traj at
# most 6).

_LAB_FLOAT = st.one_of(st.floats(-2.0, 2.0),
                       st.sampled_from([0.0015, 1e30, -1e30, math.inf, math.nan]))
_LAB_MUTATIONS = {
    "tau_list": st.one_of(st.lists(_LAB_FLOAT, max_size=3),
                          st.lists(st.one_of(_JUNK, st.lists(st.floats(), max_size=2)),
                                   min_size=1, max_size=2),
                          _JUNK),
    "T": st.one_of(_LAB_FLOAT, _JUNK),
    "dt": st.one_of(st.sampled_from([0.002, 0.01, 0.25, 1e-12, 0.0, -0.01, math.nan, 1e30]),
                    _JUNK),
    "traj": st.one_of(st.integers(-2, 6), st.floats(0, 4), st.just(10**9), _JUNK),
    "x": st.one_of(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
                   st.lists(st.one_of(st.floats(), _JUNK), max_size=3),
                   st.just([[1.0, 2.0], [3.0]]), st.just([1e300, 0.0]), _JUNK),
    "spacing": st.one_of(_LAB_FLOAT, _JUNK),
}
_LAB_MUTATION = st.lists(st.sampled_from(sorted(_LAB_MUTATIONS)), min_size=1, max_size=2,
                         unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _LAB_MUTATIONS[k] for k in keys}))


def _finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _malformed_lab_value(key, v):
    """Values the lab checks reject whatever the other keys hold."""
    if key == "traj":
        return not (isinstance(v, int) and not isinstance(v, bool) and v >= 1)
    if key == "x":
        return not (isinstance(v, list) and len(v) == 2 and all(map(_finite_number, v)))
    if key == "tau_list":
        return not (isinstance(v, list) and all(_finite_number(t) and t >= 0 for t in v))
    return not (_finite_number(v) and v > 0)        # T, dt and spacing


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_LAB_MUTATION)
@example(mutation={"tau_list": [0.5, 1.0, 0.0015]})
@example(mutation={"tau_list": [-0.5]})
@example(mutation={"tau_list": [0.5, 1e30]})
@example(mutation={"traj": 10**9})
@example(mutation={"x": [math.nan, 0.0]})
@example(mutation={"x": [1e300, 0.0]})
def test_mutated_limit_existence_keeps_the_exit_contract(tmp_path, capsys, mutation):
    doc = _limit_existence_document(T=1.0, dt=0.01, traj=4, tau_list=[0.25], spacing=0.25)
    doc["experiment"]["lab"].update(mutation)
    f = tmp_path / "mutated.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert _one_error_line(err)
    assert "Traceback" not in err
    [(key, value)] = mutation.items() if len(mutation) == 1 else [(None, None)]
    if key is not None and _malformed_lab_value(key, value):
        assert rc == 1 and (key if key == "tau_list" else f"experiment.{key}") in err, err
    if mutation.get("traj") == 10**9:
        assert rc == 1, err


# The same contract for certify, on the gdc and lipschitz sections of the
# shipped gdc-example-2x2.json with one or two keys mutated. These sections
# take finite numbers >= 0 (gdc.tol >= 1e-15) and no other key, so a mutation
# outside that ends in exit 1 naming a mutated key.

_CERT_NUMBER = st.one_of(st.floats(-2.0, 4.0),
                         st.sampled_from([1e-300, 1e-15, 1e-12, 1e30, 1e300, -1e300,
                                          math.inf, math.nan]),
                         st.integers(-3, 3))
_CERT_MUTATIONS = {f"{section}.{key}": st.one_of(_CERT_NUMBER, _JUNK)
                   for section, keys in (("gdc", ("lambda1", "tol")),
                                         ("lipschitz", ("L_F", "L_sigma")))
                   for key in keys}
_CERT_MUTATIONS["gdc.extra"] = _CERT_NUMBER
_CERT_MUTATION = st.lists(st.sampled_from(sorted(_CERT_MUTATIONS)), min_size=1, max_size=2,
                          unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _CERT_MUTATIONS[k] for k in keys}))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_CERT_MUTATION)
@example(mutation={"gdc.lambda1": -1.0})
@example(mutation={"lipschitz.L_F": 0.3, "gdc.lambda1": -0.5})
@example(mutation={"lipschitz.L_F": -1.0})
@example(mutation={"gdc.tol": 1e-300})
@example(mutation={"gdc.extra": 1})
@example(mutation={"gdc.lambda1": 1e300})      # bisects up to adjacent doubles near 1e287
def test_mutated_certificate_sections_keep_the_exit_contract(tmp_path, capsys, mutation):
    with open(os.path.join(SCEN, "gdc-example-2x2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for path, value in mutation.items():
        section, key = path.split(".")
        doc.setdefault(section, {})[key] = value
    f = tmp_path / "mutated.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["certify", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert _one_error_line(err)
    assert "Traceback" not in err
    if any(path == "gdc.extra" or not (_finite_number(v) and v >= 0)
           or (path == "gdc.tol" and v < 1e-15) for path, v in mutation.items()):
        assert rc == 1 and any(path in err for path in mutation), err


# Hypotheses are measured on the scenario that runs, and a document has one
# certificate: the one of build_scenario.

def _forward_curve_document(**sections):
    """The small forward-curve document (beta 3, n 64, example volatility)."""
    return {**_mutated_document("hjmm.volatility", "example"), **sections}


def test_certify_a_forward_curve_document_writes_the_scenario_epsilon(tmp_path, capsys):
    doc = _forward_curve_document()
    f = tmp_path / "fc.json"
    f.write_text(json.dumps(doc))
    assert run_cli(["certify", str(f), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert cert["epsilon"] == scenarios.build_scenario(doc).certificate.epsilon
    assert cert["epsilon"] == 0.169810982570741


@pytest.mark.parametrize("section", [
    {"lipschitz": {"L_F": 1.0}}, {"gdc": {"lambda1": 1.0}},
    {"operator": {"mode": "matrix-exponential", "generator": [[0.0] * 64] * 64}},
    {"operator": {"mode": "grid-shift", "generator": [[0.0]]}},
    {"projection": {"builder": "identity"}},
    {"projection": {"builder": "long-rate", "coords": [1]}},
], ids=["lipschitz", "gdc", "matrix-operator", "grid-shift-with-generator",
        "identity-projection", "long-rate-with-coords"])
def test_a_forward_curve_document_rejects_declared_constants(tmp_path, capsys, section):
    # the hjmm section supplies the certificate's constants, and the scenario
    # runs the grid shift and the long-rate projection
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(_forward_curve_document(**section)))
    rc = run_cli(["certify", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and f"$.{next(iter(section))}" in err


def test_a_forward_curve_document_builds_only_the_scenario_operator_and_projection(
        monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("built a section that hjmm_scenario builds itself")

    monkeypatch.setattr(scenarios, "build_operator", built)
    monkeypatch.setattr(scenarios, "build_projection", built)
    sc = scenarios.build_scenario(_forward_curve_document())
    assert sc.op.semigroup_mode == "grid-shift"


@pytest.mark.parametrize("space", [{"kind": "hbeta-grid", "beta": 3.0, "n": 64},
                                   {"kind": "euclidean", "dim": 64}],
                         ids=["grid-without-hjmm", "hjmm-without-grid"])
def test_only_forward_curves_live_on_a_grid(tmp_path, capsys, space):
    doc = _forward_curve_document(space=space)
    if space["kind"] == "hbeta-grid":
        del doc["hjmm"]
    f = tmp_path / "grid.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["certify", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and "$.hjmm" in err, err


def test_hjmm_builds_its_scenario_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = hjmm.hjmm_scenario

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(hjmm, "hjmm_scenario", counted)
    assert run_cli(["lab", _hjmm_document_file(tmp_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_the_hjmm_subcommand_is_gone(tmp_path, capsys):
    # forward curves run under lab
    rc = run_cli(["hjmm", os.path.join(SCEN, "forward-curve.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and "invalid choice: 'hjmm'" in err, err


def test_the_shipped_forward_curve_document_runs_the_default_decay():
    # the curve 0.05 + 0.04 e^(-2x) on the document's own grid, in steps of one
    # grid cell, to T 6 with 2,000 curves and seed 0
    doc = scenarios.load_document(os.path.join(SCEN, "forward-curve.json"))
    space = scenarios.build_scenario(doc).space
    run = doc["experiment"]["lab"]
    assert run["x"] == (0.05 + 0.04 * np.exp(-2.0 * space.grid)).tolist()
    assert {k: v for k, v in run.items() if k != "x"} == {
        "kind": "vanishing", "dt": space.dx, "T": 6.0, "traj": 2000, "seed": 0}


def test_lab_audits_the_lipschitz_constants_of_a_forward_curve(tmp_path, capsys, monkeypatch):
    # on x_max 2 the example volatility measures L_sigma 44 against its
    # declared 1: lab ends in exit 2 before simulating, as certify does
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the Lipschitz audit")

    monkeypatch.setattr(lab, "simulate_ensemble", no_simulation)
    doc = scenarios.load_document(os.path.join(SCEN, "forward-curve.json"))
    doc["space"]["x_max"] = 2.0
    del doc["experiment"]["lab"]["x"]
    f = tmp_path / "short-grid.json"
    f.write_text(json.dumps(doc))
    for command in ("certify", "lab"):
        rc = run_cli([command, str(f), "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("hypothesis violated: lipschitz-sigma"), err


def test_a_tau_that_is_not_a_multiple_of_dt_prints_a_plain_number(tmp_path, capsys):
    # tau 0.5 on steps of one grid cell (0.317)
    doc = _mutated_document("hjmm.volatility", "example")
    doc["experiment"]["lab"].update(kind="limit-existence", tau_list=[0.5])
    f = tmp_path / "fc.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: tau_list: every tau must be a multiple of dt, got 0.5\n", err


@pytest.mark.parametrize("argv,resolved", [
    (["simulate", "ou-decoupled-2d.json", "--traj", "10", "--dt", "0.01"],
     {"traj": 10, "dt": 0.01}),
    (["ou-limit", "ou-decoupled-2d.json", "--traj", "10", "--horizon", "0.5", "--dt", "0.01"],
     {"traj": 10, "horizon": 0.5, "dt": 0.01}),
    (["lab", "counterexample-antidissipative.json", "--traj", "8", "--horizon", "2"],
     {"traj": 8, "T": 2.0}),
], ids=["simulate", "ou-limit", "lab"])
def test_the_manifest_records_the_resolved_experiment(tmp_path, capsys, argv, resolved):
    # the document's section for the command with the flags laid over it
    path = os.path.join(SCEN, argv[1])
    rc = run_cli([argv[0], path, *argv[2:], "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc in (0, 3)
    doc = scenarios.load_document(path)
    section = doc["experiment"]
    if argv[0] in section:
        section = section[argv[0]]
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config["experiment"] == {**section, **resolved}
    assert {k: v for k, v in config.items() if k != "experiment"} == \
        {k: v for k, v in doc.items() if k != "experiment"}


@pytest.mark.parametrize("beta_prime", [2.0, 3.0])
def test_beta_prime_not_above_beta_names_the_key(tmp_path, capsys, beta_prime):
    f = tmp_path / "fc.json"
    f.write_text(json.dumps(_mutated_document("hjmm.beta_prime", beta_prime)))
    rc = run_cli(["certify", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and err.startswith("error: hjmm.beta_prime:"), err


def test_a_tabulated_volatility_derives_M_and_L_sigma(tmp_path, capsys):
    # constant factors: L_sigma = 0, so L_F = 0 and epsilon = 2 lambda0 = beta;
    # M is the squared factor norm sum that the volatility audit measures
    grid = np.linspace(0.0, 20.0, 64)
    doc = _mutated_document("hjmm.volatility", "tabulated")
    doc["hjmm"]["factors"] = [(0.05 * np.exp(-3.0 * grid)).tolist(),
                              (0.03 * grid * np.exp(-3.0 * grid)).tolist()]
    sc = scenarios.build_scenario(doc)
    vol = sc.sigma.vol
    norm2 = hjmm.audit_volatility(vol, sc.space, [np.full(sc.dim, 0.05)])["norm2_max"]
    assert vol.M / hjmm.NORM_SLACK <= norm2 <= vol.M * hjmm.NORM_SLACK
    assert vol.L_sigma == 0.0
    f = tmp_path / "tabulated.json"
    f.write_text(json.dumps(doc))
    assert run_cli(["certify", str(f), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert cert["epsilon"] == 3.0
    assert cert["lipschitz"] == {"L_F": 0.0, "L_sigma": 0.0}
    # a derived M that overflows would make L_F = 0 * inf a nan
    doc["hjmm"]["factors"] = [[1e200 * (i % 2) for i in range(64)]]
    f.write_text(json.dumps(doc))
    assert run_cli(["certify", str(f), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert _one_error_line(err) and "hjmm.factors" in err, err


@pytest.mark.parametrize("section,key,value", [("gdc", "lambda0", 0.3),
                                               ("lipschitz", "L_gamma", 0.5)])
def test_constants_the_code_works_out_are_unknown_keys(tmp_path, capsys, section, key, value):
    # lambda0 is always bisected, and every jump is additive (no L_gamma)
    doc = scenarios.load_document(os.path.join(SCEN, "gdc-example-2x2.json"))
    doc.setdefault(section, {})[key] = value
    f = tmp_path / "declared.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["certify", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and f"{section}.{key}: unknown key" in err, err


def test_the_hjmm_mode_is_measured_from_the_factors(tmp_path, capsys):
    # an all-zero tabulated factor vanishes at every constant curve, so the
    # vanishing kind runs; a non-zero one vanishes at none, so the vanishing
    # kind ends in exit 2 before simulating, and limit-existence runs instead
    def run(name, factor, **lab_section):
        doc = _mutated_document("hjmm.volatility", "tabulated")
        doc["hjmm"]["factors"] = [factor.tolist()]
        doc["experiment"]["lab"].update(traj=16, T=3.0, **lab_section)
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(doc))
        return run_cli(["lab", str(f), "--out", str(tmp_path / name)])

    bump = 0.01 * np.exp(-3.0 * _GRID64)
    assert run("zero", np.zeros(64)) == 0
    assert run("bump", bump) == 2
    assert capsys.readouterr().err.startswith(
        "hypothesis violated: coefficients-vanish-at-anchor")
    assert run("bump-limit", bump, kind="limit-existence", tau_list=[_DX64, 2 * _DX64]) in (0, 3)
    capsys.readouterr()
    rates = (tmp_path / "bump-limit" / "lab_rates.csv").read_text()
    assert rates.count("diag_tau=") == 2 and "theoretical:rate" in rates


def test_a_vanishing_run_on_constant_noise_ends_in_exit_two(tmp_path, capsys):
    # guard: with no flag to declare, the anchor audit alone rejects it (the
    # deterministic-p1 guard is test_unmet_hypothesis_prints_its_prefix_once)
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(_mutated_document(
        "experiment.lab", {"kind": "vanishing", "x": [1.0, 1.0], "T": 1.0, "dt": 0.01})))
    rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("hypothesis violated: coefficients-vanish-at-anchor")


def test_a_vanishing_run_on_a_constant_forward_curve_factor_ends_in_exit_two(tmp_path, capsys):
    # the kernel audit passes on the grid; the anchor audit names the factor
    doc = _mutated_document("hjmm.volatility", "tabulated")
    doc["hjmm"]["factors"] = [[0.01] * 64]
    doc["experiment"] = {"kind": "vanishing", "T": 1.0, "dt": 0.01, "traj": 2}
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("hypothesis violated: coefficients-vanish-at-anchor"), err


def test_certify_audits_the_declared_lipschitz_constants(tmp_path, capsys):
    doc = scenarios.load_document(os.path.join(SCEN, "gdc-example-2x2.json"))
    doc["coefficients"] = {"F": {"builder": "sine", "amplitude": 5.0}}
    f = tmp_path / "sine.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["certify", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("hypothesis violated: lipschitz-F")


def test_lab_audits_the_declared_lipschitz_constants(tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the Lipschitz audit")

    monkeypatch.setattr(lab, "simulate_ensemble", no_simulation)
    doc = _vanishing_document()
    del doc["lipschitz"]
    f = tmp_path / "undeclared.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["lab", str(f), "--horizon", "2", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("hypothesis violated: lipschitz-sigma")


def test_hjmm_rejects_a_tabulated_volatility_that_declares_M(tmp_path, capsys):
    # a tabulated volatility derives M from its factors
    doc = _mutated_document("hjmm.volatility", "tabulated")
    doc["hjmm"].update(M=1e-6, factors=[(0.05 * np.exp(-3.0 * _GRID64)).tolist()])
    f = tmp_path / "fc.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["lab", str(f), "--horizon", "3", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and "hjmm.M" in err
    assert not (tmp_path / "o" / "lab_series.csv").exists()


def test_a_moving_p1_part_too_short_to_fit_names_T(tmp_path, capsys, monkeypatch):
    # P1 X_t = e^t moves; on the P1 audit's 0.25 grid T = 0.75 leaves 3
    # positive deviations from P1 X_T, one short of the fit
    def no_coupling(*args, **kwargs):
        raise AssertionError("coupled before the P1 fit was checked")

    monkeypatch.setattr(lab, "simulate_coupled_ensemble", no_coupling)
    doc = scenarios.load_document(os.path.join(SCEN, "gdc-example-2x2.json"))
    doc["coefficients"] = {"sigma": {"builder": "constant", "columns": [[1.0], [0.0]]}}
    doc["experiment"] = {"kind": "limit-existence", "x": [1.0, 1.0], "T": 0.75, "dt": 0.01,
                         "spacing": 0.1, "tau_list": [0.5], "traj": 8}
    f = tmp_path / "moving.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and "T = 0.75" in err


# Property test of the lab input contract on the two counterexample
# documents: one or two mutations anywhere in a document (a key set to a
# wrong type, NaN, a huge number or a ragged array; a key removed; an extra
# key added) end in exit 0-3, exit 1 comes with exactly one error line, and
# there is never a traceback. The base run takes 40 steps of 4 trajectories.

_CE_BASE = {name: {**scenarios.load_document(os.path.join(SCEN, f"{name}.json")),
                   "experiment": {"kind": "counterexample", "x": [1.0, 1.0], "T": 2.0,
                                  "dt": 0.05, "traj": 4, "seed": 808, "spacing": 0.5}}
            for name in ("counterexample-antidissipative", "counterexample-kernel-noise")}
_CE_VALUE = st.one_of(_JUNK, st.floats(-3.0, 3.0),
                      st.sampled_from([math.nan, 1e300, -1e300, [[1.0, 2.0], [3.0]],
                                       [1.0, math.nan], [1e300, 0.0], [[1e300]],
                                       "limit-existence", "vanishing", "affine-uniqueness"]))


def _paths(node, prefix=()):
    """Every dotted path into a document, parents before children."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _ce_mutations(name):
    paths = list(_paths(_CE_BASE[name]))
    objects = [()] + [p for p in paths if isinstance(_node(_CE_BASE[name], p), dict)]
    one = st.one_of(st.tuples(st.just("set"), st.sampled_from(paths), _CE_VALUE),
                    st.tuples(st.just("delete"), st.sampled_from(paths), st.none()),
                    st.tuples(st.just("extra"), st.sampled_from(objects), _CE_VALUE))
    return st.tuples(st.just(name), st.lists(one, min_size=1, max_size=2))


def _node(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _apply(doc, op, path, value):
    """The mutation applied in place; a path an earlier mutation removed is skipped."""
    try:
        parent = _node(doc, path[:-1]) if path else None
        if op == "extra":
            _node(doc, path)["extra"] = value
        elif op == "set":
            parent[path[-1]] = value
        else:
            del parent[path[-1]]
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(sorted(_CE_BASE)).flatmap(_ce_mutations))
@example(case=("counterexample-kernel-noise", [("set", ("experiment", "kind"),
                                                "limit-existence")]))
@example(case=("counterexample-antidissipative", [("set", ("operator", "generator", 0, 0),
                                                   1e300)]))
@example(case=("counterexample-antidissipative", [("set", ("gdc", "lambda1"), math.nan)]))
@example(case=("counterexample-kernel-noise", [("delete", ("coefficients", "sigma",
                                                           "columns"), None)]))
def test_mutated_counterexamples_keep_the_exit_contract(tmp_path, capsys, case):
    name, mutations = case
    doc = json.loads(json.dumps(_CE_BASE[name]))
    for op, path, value in mutations:
        _apply(doc, op, path, value)
    f = tmp_path / "mutated.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["lab", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert _one_error_line(err), err
    assert "Traceback" not in err
