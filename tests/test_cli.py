import json
import os

import numpy as np
import pytest

from spdelab import cli

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
    rc = run_cli(["hjmm", "--beta", "3", "--grid-n", "256", "--traj", "64",
                  "--horizon", "4.0", "--seed", "6", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass] decay-rate" in out
    summary = (tmp_path / "hjmm_summary.csv").read_text().splitlines()
    assert summary[0].startswith("l_f,contraction_margin")


def test_report_requires_manifest(tmp_path, capsys):
    assert run_cli(["report", str(tmp_path)]) == 1
    capsys.readouterr()


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
    ["hjmm", "--beta", "3", "--grid-n", "1"],
    ["hjmm", "--beta", "0"],
    ["hjmm", "--beta", "3", "--dt", "0"],
    ["hjmm", "--beta", "3", "--horizon", "inf"],
    ["hjmm"],
])
def test_simulate_zero_trajectories_is_one_error_line(tmp_path, capsys, argv):
    argv = [os.path.join(SCEN, a) if a.endswith(".json") else a for a in argv]
    rc = run_cli(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "Traceback" not in err


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


@pytest.mark.parametrize("gdc", [{"lamda1": 1.5}, {"lambda1": 1.5, "lambda0": -0.5}])
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


def test_simulate_checks_the_observables_key(tmp_path, capsys):
    with open(os.path.join(SCEN, "ou-decoupled-2d.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["experiment"]["simulate"]["observables"] = 3
    f = tmp_path / "bad-observables.json"
    f.write_text(json.dumps(doc))
    rc = run_cli(["simulate", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err)
    assert "experiment.observables" in err
