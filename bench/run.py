"""spdelab benchmark: time to verdict on four workloads, and a per-module
trace taken from outside the package.

Run from the repository root:

    python3 bench/run.py --workload ou-collapse --seed 1 --seconds 20 --trace 0

Workloads: ou-collapse, forward-curve, lockstep-pairs, limit-analysis (see
``bench/workloads.py`` for what each runs and why). The loop is closed: one
process runs one round of experiment calls after another, each round ending
in its verdicts, until ``--seconds`` are spent.

``--trace 0`` measures the end-to-end metrics:
  setup_s      median over fresh processes of import, scenario building,
               certification and audits, up to the first experiment call
  wall_s       median round time, first experiment call to verdict, threads=1
  wall_s_2t    the same at threads=2, in rounds alternating with those at
               threads=1 (limit-analysis takes no thread count, so there it
               repeats the threads=1 work)
  peak_rss_mb  peak resident memory of the measuring process up to the end
               of its first threads=1 round
``--trace 1`` runs one process at threads=1 that alternates untraced and
traced rounds and reports the per-layer metrics (see ``PER_LAYER``).
Garbage is collected before every round, outside the timed region.

Every operation's outputs are checked; an operation fails if it raises, if
its check fails, or if its outputs differ between rounds, thread counts, or
traced and untraced rounds. Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Full results go to ``bench/out/``.
The BLAS pool is pinned to one thread, so ``threads`` is the only parallelism.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("ou-collapse", "forward-curve", "lockstep-pairs", "limit-analysis")
SETUP_PROCESSES = 6
RUN_BUDGET_S = 170.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("wall_s_2t", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# the layers: spdelab's modules; a span's layer is its name's prefix
MODULES = ("scenarios", "gdc", "noise", "engine", "hilbert", "hjmm", "wasserstein",
           "oulevy", "lab")
ENSEMBLE_SPANS = ("engine.simulate_ensemble", "engine.simulate_pair_ensemble",
           "engine.simulate_coupled_ensemble")
HJMM_KERNELS = ("hjmm.example_volatility_rows", "hjmm.cumtrapz_rows", "hjmm.hjmm_drift_rows")


def _span(name, i):
    return lambda ph: ph["spans"].get(name, (0.0, 0.0, 0))[i]


def _incl(*names):
    return lambda ph: sum(_span(n, 0)(ph) for n in names)


def _count(key):
    return lambda ph: ph["counts"].get(key, 0.0)


def _per(numerator, denominator):
    return lambda ph: numerator(ph) / denominator(ph) if denominator(ph) else 0.0


def _module_self(module):
    return lambda ph: sum(v[1] for k, v in ph["spans"].items() if k.split(".")[0] == module)


# Per-layer metrics computed from spans and counters. Each is the setup
# phase's value plus the median over traced rounds ("per verdict"), except
# ratios, which are taken per round.
PHASE_METRICS = [
    ("scenarios.build_s", "s", _incl("scenarios.load_document", "scenarios.build_scenario",
                                     "scenarios.build_ou_scenario")),
    ("gdc.certify_lambda0_s", "s", _span("gdc.certify_lambda0", 0)),
    ("gdc.certify_lambda0_calls", "count", _span("gdc.certify_lambda0", 2)),
    ("gdc.quadratic_form_audit_s", "s", _span("gdc.quadratic_form_audit", 0)),
    ("hilbert.semigroup_matrix_s", "s", _span("hilbert.semigroup_matrix", 0)),
    ("noise.substream_s", "s", _span("noise.substream", 0)),
    ("noise.substream_calls", "count", _span("noise.substream", 2)),
    ("noise.gauss_draws", "count", _count("noise.gauss_draws")),
    ("noise.jump_events", "count", _count("noise.jump_events")),
    ("noise.mark_sample_s", "s", _span("noise.mark_sample", 0)),
    ("engine.simulate_ensemble_self_s", "s", _span("engine.simulate_ensemble", 1)),
    ("engine.simulate_pair_ensemble_self_s", "s", _span("engine.simulate_pair_ensemble", 1)),
    ("engine.simulate_coupled_ensemble_self_s", "s",
     _span("engine.simulate_coupled_ensemble", 1)),
    ("engine.stability_check_self_s", "s", _span("engine.stability_check", 1)),
    ("engine.traj_steps", "count", _count("engine.traj_steps")),
    ("engine.coeff_s", "s", _span("engine.coeff", 0)),
    ("engine.coeff_calls", "count", _span("engine.coeff", 2)),
    ("hjmm.example_volatility_rows_s", "s", _span("hjmm.example_volatility_rows", 0)),
    ("hjmm.example_volatility_rows_calls", "count", _span("hjmm.example_volatility_rows", 2)),
    ("hjmm.cumtrapz_rows_s", "s", _span("hjmm.cumtrapz_rows", 0)),
    ("hjmm.cumtrapz_rows_calls", "count", _span("hjmm.cumtrapz_rows", 2)),
    ("hjmm.hjmm_drift_rows_self_s", "s", _span("hjmm.hjmm_drift_rows", 1)),
    ("hjmm.hjmm_drift_rows_calls", "count", _span("hjmm.hjmm_drift_rows", 2)),
    ("hilbert.apply_semigroup_rows_s", "s", _span("hilbert.apply_semigroup_rows", 0)),
    ("hilbert.apply_semigroup_rows_calls", "count", _span("hilbert.apply_semigroup_rows", 2)),
    ("hilbert.norm2_rows_s", "s", _span("hilbert.norm2_rows", 0)),
    ("hilbert.norm2_rows_calls", "count", _span("hilbert.norm2_rows", 2)),
    ("wasserstein.w2_assignment_s", "s", _span("wasserstein.w2_assignment", 0)),
    ("wasserstein.w2_1d_s", "s", _incl("wasserstein.w2_1d", "wasserstein.w2_1d_to_gaussian")),
    ("wasserstein.ks_statistic_s", "s", _span("wasserstein.ks_statistic", 0)),
    ("oulevy.limiting_cf_s", "s", _span("oulevy.limiting_cf", 0)),
    ("oulevy.levy_exponent_calls", "count", _count("oulevy.levy_exponent.calls")),
    ("lab.affine_uniqueness_experiment_self_s", "s", _span("lab.affine_uniqueness_experiment", 1)),
    ("lab.limit_existence_experiment_self_s", "s", _span("lab.limit_existence_experiment", 1)),
] + [(f"{m}.self_s", "s", _module_self(m)) for m in MODULES]

ROUND_RATIOS = [
    ("engine.traj_steps_per_s", "1/s",
     _per(_count("engine.traj_steps"), _incl(*ENSEMBLE_SPANS))),
    # computed: bytes of the array arguments and results at each kernel call,
    # per time step of the ensemble grid; cache behaviour is not measured
    ("hjmm.bytes_per_step", "B",
     _per(lambda ph: sum(_count(k + ".bytes")(ph) for k in HJMM_KERNELS),
          _count("engine.grid_steps"))),
    ("hilbert.apply_semigroup_rows_bytes_per_step", "B",
     _per(_count("hilbert.apply_semigroup_rows.bytes"), _count("engine.grid_steps"))),
]

OTHER_LAYER = [("noise.gauss_draws_per_s", "1/s"), ("cli.import_s", "s"), ("run.cpu_s", "s"),
               ("run.sys_s", "s"), ("run.minor_faults", "count"),
               ("trace.round_s", "s"), ("trace.overhead_share", "share")]

PER_LAYER = ([(n, u) for n, u, _ in PHASE_METRICS] + [(n, u) for n, u, _ in ROUND_RATIOS]
             + OTHER_LAYER)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(args, deadline, limit_s):
    """Run one worker process to completion and return its JSON result."""
    timeout = min(limit_s, deadline - time.monotonic())
    if timeout <= 1.0:
        raise BenchError("time budget exhausted before " + " ".join(args[:4]))
    env = dict(os.environ, **BLAS_PIN)
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def evaluate(arms):
    """Count operations and failures over [(arm name, rounds)]; an operation
    also fails when its output digest differs from the first one seen for
    the same operation (rounds repeat the same inputs)."""
    attempted, problems, reference = 0, [], {}
    for arm, rounds in arms:
        for k, rnd in enumerate(rounds):
            for i, (label, digest, probs) in enumerate(rnd["ops"]):
                attempted += 1
                bad = list(probs)
                ref = reference.setdefault(i, (digest, arm))
                if digest is not None and ref[0] is not None and digest != ref[0]:
                    bad.append(f"output differs from the {ref[1]} run")
                if bad:
                    problems.append(f"{arm} round {k} op {i} {label}: {' | '.join(bad)}")
    return attempted, problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_end_to_end(args, deadline):
    wl, seed = args.workload, str(args.seed)

    def setup_batch():
        # fresh processes, before and after the measuring one, so one busy
        # moment of the machine does not set the median
        return [spawn(["--role", "setup", "--workload", wl, "--seed", seed], deadline, 60)
                for _ in range(SETUP_PROCESSES // 2)]

    setups = setup_batch()
    res = spawn(["--role", "measure", "--workload", wl, "--seed", seed,
                 "--seconds", str(args.seconds)], deadline, args.seconds * 2 + 90)
    setups += setup_batch()
    walls = {arm: [r["wall_s"] for r in rounds] for arm, rounds in res["rounds"].items()}
    samples = {"wall_s": walls["threads=1"], "wall_s_2t": walls["threads=2"],
               "setup_s": [s["setup_s"] for s in setups]}
    metrics = {"wall_s": statistics.median(samples["wall_s"]),
               "wall_s_2t": statistics.median(samples["wall_s_2t"]),
               "setup_s": statistics.median(samples["setup_s"]),
               "peak_rss_mb": res["maxrss_kb"] / 1024.0}
    attempted, problems = evaluate(res["rounds"].items())
    return {n: (metrics[n], u) for n, u in END_TO_END}, attempted, problems, samples, \
        res["facts"]


def measure_per_layer(args, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    res = spawn(["--role", "trace", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--spans-out", spans_path],
                deadline, args.seconds * 2 + 90)
    setup, plain, traced = res["setup_trace"], res["rounds"]["untraced"], res["rounds"]["traced"]
    med = statistics.median
    values = {}
    for name, _, fn in PHASE_METRICS:
        values[name] = fn(setup) + med([fn(r) for r in traced])
    for name, _, fn in ROUND_RATIOS:
        values[name] = med([fn(r) for r in traced])
    traced_wall, plain_wall = med([r["wall_s"] for r in traced]), med([r["wall_s"] for r in plain])
    values.update({
        "noise.gauss_draws_per_s": res["gauss_draws_per_s"],
        "cli.import_s": res["import_s"],
        "run.cpu_s": med([r["cpu_s"] for r in plain]),
        "run.sys_s": med([r["sys_s"] for r in plain]),
        "run.minor_faults": med([r["minor_faults"] for r in plain]),
        "trace.round_s": traced_wall,
        "trace.overhead_share": traced_wall / plain_wall - 1.0,
    })
    attempted, problems = evaluate(res["rounds"].items())
    samples = {"untraced_wall_s": [r["wall_s"] for r in plain],
               "traced_wall_s": [r["wall_s"] for r in traced]}
    return {n: (values[n], u) for n, u in PER_LAYER}, attempted, problems, samples, res["facts"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    for need in ("src/spdelab/__init__.py", "scenarios/ou-decoupled-2d.json",
                 "scenarios/gdc-example-2x2.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from a spdelab checkout",
                  file=sys.stderr)
            return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        metrics, attempted, problems, samples, facts = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for name, vals in samples.items():
        q1, q2, q3 = quartiles(vals)
        print(f"samples {name}: n={len(vals)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"min={min(vals):.6g} max={max(vals):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failed = len(problems)
    print(f"metric failed_share = {failed / attempted:.6g} share "
          f"({failed} of {attempted} operations)")
    for p in problems[:20]:
        print(f"FAILED {p}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "facts": facts, "samples": samples,
                   "problems": problems, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
