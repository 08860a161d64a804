"""Command line driver.

Exit codes: 0 success/pass, 1 usage or schema problems, an input over a size
budget or a numerical blow-up, 2 a required mathematical hypothesis failed its
audit, 3 an experiment verdict failed (including "diverges").

All outputs land in one run directory together with ``manifest.json``
echoing the resolved configuration, seed and thread count; manifests and
CSVs contain no timestamps, so identical (scenario, seed, version) triples
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import __version__, engine, hjmm, lab
from .errors import (BudgetExceeded, CertificationFailed, ContractViolation,
                     HypothesisViolated, SchemaError, SpdelabError)
from .oulevy import empirical_cf, limiting_cf
from .scenarios import (build_forward_curve, build_ou_scenario, build_scenario,
                        experiment_section, load_document, _number, _vector, _integer)
from .wasserstein import ASSIGNMENT_BUDGET, EmpiricalLaw, w2_1d, w2_assignment

EXIT_OK, EXIT_USAGE, EXIT_HYPOTHESIS, EXIT_VERDICT = 0, 1, 2, 3
SAMPLE_MAX = 1e100            # largest magnitude of a w2 sample


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                s = _fmt(v)
                if "," in s or '"' in s:
                    s = '"' + s.replace('"', '""') + '"'
                cells.append(s)
            fh.write(",".join(cells) + "\n")


def write_manifest(out_dir, subcommand, config, seed, threads, outputs) -> str:
    manifest = {
        "format": "spdelab-run/1",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "master_seed": seed,
        "threads": threads,
        "outputs": sorted(outputs),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _out_dir(args, doc_id) -> str:
    out = args.out or os.environ.get("SPDELAB_OUT")
    if out is None:
        out = os.path.join("spdelab-runs", doc_id)
    os.makedirs(out, exist_ok=True)
    return out


def _experiment(args, doc, allowed, subcommand) -> dict:
    """The subcommand's experiment section with each given flag laid over its
    key (``--horizon`` over ``T`` for ``hjmm`` and ``lab``), so flags pass the same checks."""
    exp = dict(experiment_section(doc, allowed, subcommand=subcommand))
    for flag in ("dt", "horizon", "traj", "seed", "snapshots", "observables"):
        if getattr(args, flag, None) is not None:
            exp["T" if flag == "horizon" and subcommand in ("hjmm", "lab") else flag] = \
                getattr(args, flag)
    return exp


def _steps(horizon: float, dt: float, path: str) -> int:
    """Grid steps of ``dt`` in ``horizon``, within the engine's step budget."""
    steps = horizon / dt
    if not steps <= engine.MAX_STEPS:
        raise BudgetExceeded(f"{path}: {horizon!r} is {steps:.4g} steps of dt, over the "
                             f"budget of {engine.MAX_STEPS}")
    return int(round(steps))


def _resolve_observables(names, sc):
    obs = {}
    for name in names:
        if name.startswith("coord:"):
            i = name.split(":", 1)[1]
            i = int(i) if i.isdecimal() else -1
            if not 0 <= i < sc.dim:
                raise SchemaError(f"observable {name!r}: coordinate out of range")
            obs[name] = engine.obs_coordinate(i)
        elif name == "norm2":
            obs[name] = engine.obs_norm2(sc.space)
        elif name == "p1norm2":
            obs[name] = engine.obs_projected_norm2(sc.space, sc.P1)
        else:
            raise SchemaError(f"unknown observable {name!r} "
                              "(use coord:<i>, norm2, p1norm2)")
    return obs


# ---------------------------------------------------------------------------
# subcommands


def cmd_certify(args) -> int:
    doc = load_document(args.scenario)
    sc = build_scenario(doc)
    sc.lipschitz_audit()
    cert = sc.certificate
    out = _out_dir(args, doc["id"])
    record = {
        "lambda0": cert.lambda0, "lambda1": cert.lambda1, "alpha": cert.alpha,
        "beta": cert.beta_const, "epsilon": cert.epsilon,
        "contractive": cert.contractive,
        "audit_max_violation": cert.audit_max_violation,
        "lipschitz": {"L_F": cert.lipschitz.L_F, "L_sigma": cert.lipschitz.L_sigma},
    }
    with open(os.path.join(out, "certificate.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(out, "certify", doc, None, 1, ["certificate.json"])
    for key in ("lambda0", "lambda1", "alpha", "beta", "epsilon"):
        print(f"{key} = {record[key]!r}")
    print(f"contractive (epsilon > 0): {'yes' if cert.contractive else 'no'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    doc = load_document(args.scenario)
    sc = build_scenario(doc)
    exp = _experiment(args, doc, ["dt", "horizon", "traj", "seed", "snapshots", "observables",
                                  "initial"], "simulate")
    dt = _number(exp.get("dt", 1e-3), "experiment.dt", 1e-12)
    horizon = _number(exp.get("horizon", 1.0), "experiment.horizon", dt)
    n_traj = _integer(exp.get("traj", 1000), "experiment.traj", 1)
    seed = _integer(exp.get("seed", 0), "experiment.seed", 0)
    snaps = list(_vector(exp.get("snapshots", [horizon]), "experiment.snapshots"))
    names = exp.get("observables", ["coord:0"])
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise SchemaError("experiment.observables: expected an array of names")
    obs = _resolve_observables(names, sc)
    initial = _vector(exp.get("initial", [0.0] * sc.dim), "experiment.initial", sc.dim)
    n_steps = _steps(horizon, dt, "experiment.horizon") if args.steps is None else args.steps
    ens = engine.simulate_ensemble(sc, initial, dt, n_steps, n_traj, seed, snaps,
                                   observables=obs, threads=args.threads)
    rows = []
    for name in names:
        series = ens.observables[name]
        mean, se = engine.mean_stderr(series)
        for i, t in enumerate(ens.snapshot_times):
            rows.append((t, f"{name}:mean", mean[i], se[i]))
            var = series[i].var(ddof=1) if n_traj > 1 else 0.0
            var_se = var * np.sqrt(2.0 / max(n_traj - 1, 1))
            rows.append((t, f"{name}:var", var, var_se))
    out = _out_dir(args, doc["id"])
    write_csv(os.path.join(out, "simulate.csv"),
              ["time", "statistic", "value", "std_err"], rows)
    write_manifest(out, "simulate", doc, seed, args.threads, ["simulate.csv"])
    print(f"wrote {os.path.join(out, 'simulate.csv')} "
          f"({len(rows)} rows, {n_traj} trajectories)")
    return EXIT_OK


def _read_samples(path) -> np.ndarray:
    """The rows of numbers below a sample file's header line, each at most
    SAMPLE_MAX in magnitude so that no squared distance overflows."""
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")     # loadtxt warns on a file with no rows
            data = np.loadtxt(fh, delimiter=",", ndmin=2, skiprows=1)
    except ValueError as e:
        raise SchemaError(f"{path}: {e}") from None
    if not data.size:
        raise SchemaError(f"{path}: no samples below the header line")
    if not np.all(np.abs(data) <= SAMPLE_MAX):
        raise SchemaError(f"{path}: samples must be numbers of magnitude at most {SAMPLE_MAX:g}")
    return data


def cmd_w2(args) -> int:
    a = _read_samples(args.file_a)
    b = _read_samples(args.file_b)
    if a.shape[1] == 1 and b.shape[1] == 1:
        d = w2_1d(a[:, 0], b[:, 0])
        estimator = "sort"
    elif a.shape[0] <= ASSIGNMENT_BUDGET:
        d = w2_assignment(EmpiricalLaw(a), EmpiricalLaw(b))
        estimator = "assignment"
    else:
        raise BudgetExceeded(
            f"{a.shape[0]} samples in dimension {a.shape[1]} exceed the exact "
            f"assignment budget ({ASSIGNMENT_BUDGET}); export a 1-D observable instead")
    print(f"w2 = {d!r} (estimator: {estimator})")
    return EXIT_OK


def cmd_ou_limit(args) -> int:
    doc = load_document(args.scenario)
    ou = build_ou_scenario(doc)
    sc = ou.scenario
    exp = _experiment(args, doc, ["x", "probes", "t_cut", "quad_step", "horizon", "dt", "traj",
                                  "seed"], "ou-limit")
    dim = sc.dim
    x = _vector(exp.get("x", [0.0] * dim), "experiment.x", dim)
    probes = exp.get("probes", [list(row) for row in np.eye(dim)])
    if not isinstance(probes, list):
        raise SchemaError("experiment.probes: expected an array of vectors")
    us = [_vector(u, "experiment.probes[]", dim) for u in probes]
    t_cut = _number(exp["t_cut"], "experiment.t_cut", 0.0) if "t_cut" in exp else None
    if t_cut == 0.0:
        raise SchemaError("experiment.t_cut: must be > 0")
    quad_step = _number(exp.get("quad_step", 0.005), "experiment.quad_step", 1e-9)
    dt = _number(exp.get("dt", 0.005), "experiment.dt", 1e-12)
    rate = ou.conv.rate
    horizon = _number(exp.get("horizon", 30.0 / rate if np.isfinite(rate) else 1.0),
                      "experiment.horizon", dt)
    n_traj = _integer(exp.get("traj", 20000), "experiment.traj", 1)
    seed = _integer(exp.get("seed", 0), "experiment.seed", 0)
    # the quadratures check their arguments before the simulation runs
    cfs = [limiting_cf(ou, x, u, t_cut=t_cut, quad_step=quad_step) for u in us]
    n_steps = _steps(horizon, dt, "experiment.horizon")
    ens = engine.simulate_ensemble(sc, x, dt, n_steps, n_traj, seed, [n_steps * dt],
                                   threads=args.threads)
    samples = ens.states[-1]
    rows = []
    for u, cf in zip(us, cfs):
        emp, se = empirical_cf(samples, u, sc.space)
        rows.append((json.dumps(list(u)), cf.value.real, cf.value.imag,
                     emp.real, emp.imag, cf.tail_bound, cf.quad_error, se,
                     abs(cf.value - emp)))
    out = _out_dir(args, doc["id"])
    write_csv(os.path.join(out, "ou_limit.csv"),
              ["u", "re_quadrature", "im_quadrature", "re_empirical", "im_empirical",
               "tail_bound", "quad_error", "mc_std_err", "abs_diff"], rows)
    write_manifest(out, "ou-limit", doc, seed, args.threads, ["ou_limit.csv"])
    print(f"wrote {os.path.join(out, 'ou_limit.csv')} ({len(rows)} probes)")
    return EXIT_OK


def cmd_hjmm(args) -> int:
    doc = load_document(args.scenario)
    space, vol = build_forward_curve(doc)
    exp = _experiment(args, doc, ["x", "T", "dt", "traj", "seed"], "hjmm")
    dt = _number(exp.get("dt", space.dx), "experiment.dt", 1e-12)
    T = _number(exp.get("T", 6.0), "experiment.T", dt)
    _steps(T, dt, "experiment.T")
    n_traj = _integer(exp.get("traj", 2000), "experiment.traj", 1)
    seed = _integer(exp.get("seed", 0), "experiment.seed", 0)
    x = _vector(exp["x"], "experiment.x", space.dim) if "x" in exp \
        else 0.05 + 0.04 * np.exp(-2.0 * space.grid)
    if not np.abs(x).max() < engine.BLOWUP_NORM:
        raise SchemaError(f"experiment.x: the initial curve reaches {np.abs(x).max():.3g}, "
                          f"past the blow-up bound {engine.BLOWUP_NORM:g}")
    hjmm.audit_volatility(vol, space, [x])
    rep = hjmm.hjmm_ergodicity_experiment(space, vol, x, horizon=T, n_traj=n_traj, seed=seed,
                                          dt=dt, threads=args.threads)
    out = _out_dir(args, doc["id"])
    rows = [(t, m, s, b) for t, m, s, b in
            zip(rep.times, rep.decay_mean, rep.decay_se, rep.bound)]
    write_csv(os.path.join(out, "hjmm_decay.csv"),
              ["time", "mean_sq_dist_to_long_rate", "std_err", "bound"], rows)
    write_csv(os.path.join(out, "hjmm_summary.csv"),
              ["l_f", "contraction_margin", "fitted_rate", "theoretical_rate",
               "long_rate_max_dev", "mode"],
              [(rep.l_f, rep.margin, rep.fitted_rate, rep.theoretical_rate,
                rep.long_rate_max_dev, rep.mode)])
    write_csv(os.path.join(out, "hjmm_verdicts.csv"),
              ["name", "status", "detail"],
              [(n, st, d) for n, st, d in rep.verdicts])
    write_manifest(out, "hjmm", doc, seed, args.threads,
                   ["hjmm_decay.csv", "hjmm_summary.csv", "hjmm_verdicts.csv"])
    for name, status, detail in rep.verdicts:
        print(f"[{status}] {name}: {detail}")
    ok = all(s == "pass" for _, s, _ in rep.verdicts)
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_lab(args) -> int:
    doc = load_document(args.scenario)
    sc = build_scenario(doc)
    exp = _experiment(args, doc, ["kind", "x", "y", "tau_list", "T", "dt", "traj", "seed",
                                  "spacing"], "lab")
    kind = exp.get("kind")
    if kind not in ("vanishing", "limit-existence", "affine-uniqueness", "counterexample"):
        raise SchemaError(f"experiment.kind: unknown experiment {kind!r}")
    dt = _number(exp.get("dt", 1e-3), "experiment.dt", 1e-12)
    T = _number(exp.get("T", 5.0), "experiment.T", dt)
    _steps(T, dt, "experiment.T")
    n_traj = _integer(exp.get("traj", 2000), "experiment.traj", 1)
    seed = _integer(exp.get("seed", 0), "experiment.seed", 0)
    spacing = _number(exp.get("spacing", 0.25), "experiment.spacing", dt)
    x = _vector(exp.get("x", [0.0] * sc.dim), "experiment.x", sc.dim)
    sc.lipschitz_audit()
    if kind == "vanishing":
        rep = lab.vanishing_coeff_experiment(sc, x, dt, T, n_traj, seed,
                                             snapshot_spacing=spacing, threads=args.threads)
    elif kind == "limit-existence":
        taus = list(_vector(exp.get("tau_list", [0.5, 1.0]), "experiment.tau_list"))
        rep = lab.limit_existence_experiment(sc, x, taus, T, dt, n_traj, seed,
                                             snapshot_spacing=spacing, threads=args.threads)
    elif kind == "affine-uniqueness":
        y = _vector(exp.get("y", [0.0] * sc.dim), "experiment.y", sc.dim)
        rep = lab.affine_uniqueness_experiment(sc, x, y, T, dt, n_traj, seed,
                                               snapshot_spacing=spacing, threads=args.threads)
    else:
        rep = lab.counterexample_experiment(sc, x, T, dt, n_traj, seed,
                                            snapshot_spacing=spacing, threads=args.threads)
    out = _out_dir(args, doc["id"])
    rows = []
    for name in sorted(rep.stats):
        series = np.atleast_1d(rep.stats[name])
        errs = np.atleast_1d(rep.stderr.get(name, np.zeros(len(series))))
        ts = rep.times[:len(series)] if len(series) > 1 else [rep.times[-1]]
        for t, v, e in zip(ts, series, errs):
            rows.append((t, name, v, e))
    write_csv(os.path.join(out, "lab_series.csv"),
              ["time", "statistic", "value", "std_err"], rows)
    fit_rows = [(k, f.rate, f.prefactor, f.residual) for k, f in sorted(rep.fitted.items())]
    fit_rows += [(f"theoretical:{k}", v, "", "") for k, v in sorted(rep.theoretical.items())]
    write_csv(os.path.join(out, "lab_rates.csv"),
              ["name", "rate", "prefactor", "residual"], fit_rows)
    write_csv(os.path.join(out, "lab_verdicts.csv"),
              ["name", "status", "invariant", "detail"],
              [(v.name, v.status, v.invariant, v.detail) for v in rep.verdicts])
    write_manifest(out, "lab", doc, seed, args.threads,
                   ["lab_series.csv", "lab_rates.csv", "lab_verdicts.csv"])
    for v in rep.verdicts:
        print(f"[{v.status}] {rep.experiment}/{v.name}: {v.detail}")
    return EXIT_OK if rep.passed else EXIT_VERDICT


def cmd_report(args) -> int:
    manifest_path = os.path.join(args.run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise SchemaError(f"no manifest.json under {args.run_dir}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as e:     # malformed JSON or text that is not UTF-8
        raise SchemaError(f"{manifest_path}: not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise SchemaError(f"{manifest_path}: expected a JSON object")
    rows = []
    for name in sorted(os.listdir(args.run_dir)):
        if name.endswith("verdicts.csv"):
            path = os.path.join(args.run_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    rows += [(name, line.rstrip("\n")) for line in fh.readlines()[1:]]
            except UnicodeDecodeError as e:
                raise SchemaError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    print(f"run: {manifest.get('subcommand')} (seed {manifest.get('master_seed')}, "
          f"version {manifest.get('version')})")
    print("file,verdict")
    for name, line in rows:
        print(f"{name},{line}")
    if not rows:
        print("(no verdicts recorded)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``error:`` line, like a
    malformed document."""

    def error(self, message):
        raise SchemaError(message)


def _numbers(text) -> list:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _threads(text) -> int:
    """A thread count in ``[1, engine.MAX_THREADS]``, checked before any
    thread starts."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= n <= engine.MAX_THREADS:
        raise argparse.ArgumentTypeError(f"must be in [1, {engine.MAX_THREADS}], got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="spdelab",
                                 description="dissipative stochastic dynamics: "
                                             "certify, simulate, verify convergence")
    ap.add_argument("--version", action="version", version=f"spdelab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario document (JSON)")
        p.add_argument("--out", default=None, help="output directory "
                                                   "(default $SPDELAB_OUT or ./spdelab-runs/<id>)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=_threads, default=1)

    p = sub.add_parser("certify", help="certify dissipativity constants")
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("simulate", help="simulate an ensemble, emit statistics")
    common(p)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--steps", type=int, default=None, help="overrides --horizon")
    p.add_argument("--traj", type=int, default=None)
    p.add_argument("--snapshots", type=_numbers, default=None, help="comma-separated times")
    p.add_argument("--observables", type=lambda text: text.split(","), default=None,
                   help="comma-separated names")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("w2", help="Wasserstein-2 distance between two sample files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_w2)

    for name, fn, text in (
            ("ou-limit", cmd_ou_limit, "limiting characteristic function vs simulation"),
            ("hjmm", cmd_hjmm, "forward-curve decay experiment"),
            ("lab", cmd_lab, "convergence and divergence experiments")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--traj", type=int, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("report", help="aggregate verdicts from a run directory")
    p.add_argument("run_dir")
    p.set_defaults(fn=cmd_report)
    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:    # --help and --version
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except (SchemaError, ContractViolation, BudgetExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (HypothesisViolated, CertificationFailed) as e:
        print(f"hypothesis violated: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SpdelabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
