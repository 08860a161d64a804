"""One benchmark process: ``run.py`` starts it once per role and reads the
JSON object it prints as its last line.

Roles:
  setup    import spdelab, build the scenarios and run the certification and
           audits, then exit; reports ``setup_s``
  measure  setup, warm-up, then rounds alternating threads=1 and threads=2
           until ``--seconds`` have passed; reports each round's wall time,
           the operations' outcomes and output digests, and the peak
           resident memory after the first threads=1 round
  trace    as measure, alternating untraced and traced rounds at threads=1,
           then a probe of ``noise.sample_path`` at the workload's shape;
           reports the aggregated spans and counters
"""

import time

T_START = time.perf_counter()   # before numpy or spdelab is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
MIN_ROUNDS = 3
PROBE_SECONDS = 0.3


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def run_round(wl, threads):
    """Run every operation once; returns (wall seconds, [[label, digest, problems]])."""
    results = []
    t0 = time.perf_counter()
    for label, op in wl.operations(threads):
        try:
            arrays, problems = op()
            digest = _digest(arrays)
        except Exception as exc:   # an operation that raises counts as failed; keep going
            digest = None
            problems = [f"{type(exc).__name__}: {exc}",
                        "".join(traceback.format_exception(exc)[-3:])]
        results.append([label, digest, problems])
    return time.perf_counter() - t0, results


def _usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_stime, r.ru_minflt


def machine_facts():
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__,
             "blas": f"{blas.get('name')} {blas.get('version')}"}
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    for key, code in (("l2_bytes", 191), ("l3_bytes", 194)):   # _SC_LEVEL{2,3}_CACHE_SIZE
        facts[key] = int(libc.sysconf(code))
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    facts["blas_threads"] = None
    if os.path.isdir(libdir):
        for name in sorted(os.listdir(libdir)):
            if "openblas" not in name:
                continue
            lib = ctypes.CDLL(os.path.join(libdir, name))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    facts["blas_threads"] = int(fn())
                    break
    return facts


def _probe_gauss_rate(wl):
    """Gaussian draws per second of ``noise.sample_path`` at the workload's
    per-trajectory shape (steps x modes), one trajectory per call."""
    from spdelab import noise

    shape = wl.noise_shape()
    if shape is None:
        return 0.0
    qw, dt, n_steps = shape
    draws, i = 0, 0
    t0 = time.perf_counter()
    while True:
        noise.sample_path(qw, None, dt, n_steps, 7, traj_index=i)
        draws += n_steps * qw.n_modes
        i += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= PROBE_SECONDS and i >= 20:
            return draws / elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    sys.path.insert(0, SRC_DIR)     # the program under test is the checkout's own source
    t_import = time.perf_counter()
    import spdelab.cli  # noqa: F401  (imports every module of the package)
    import_s = time.perf_counter() - t_import
    if not os.path.abspath(spdelab.cli.__file__).startswith(SRC_DIR + os.sep):
        sys.exit(f"spdelab was imported from {spdelab.cli.__file__}, not from {SRC_DIR}")
    from workloads import TRACE_TARGETS, WORKLOADS

    wl = WORKLOADS[args.workload]()
    tracer = None
    if args.role == "trace":
        from spans import Tracer
        tracer = Tracer(TRACE_TARGETS)
        tracer.install()
    wl.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    out = {"role": args.role, "setup_s": setup_s, "import_s": import_s}
    if args.role == "setup":
        print(json.dumps(out))
        return
    if tracer is not None:
        tracer.uninstall()
        out["setup_trace"] = tracer.take()

    # Two arms alternate round by round, so a slow spell of the machine
    # falls on both: threads=1 and threads=2, or untraced and traced.
    if tracer is None:
        arms = (("threads=1", 1, False), ("threads=2", 2, False))
    else:
        arms = (("untraced", 1, False), ("traced", 1, True))
    rounds = {name: [] for name, _, _ in arms}
    last_records = []

    def measured_round(name, threads, traced):
        nonlocal last_records
        gc.collect()    # garbage cycles of the previous round must not inflate this one
        u0 = _usage()
        if traced:
            tracer.install()
        try:
            wall, results = run_round(wl, threads)
        finally:
            if traced:
                tracer.uninstall()
        u1 = _usage()
        rec = {"wall_s": wall, "cpu_s": u1[0] - u0[0], "sys_s": u1[1] - u0[1],
               "minor_faults": u1[2] - u0[2], "ops": results}
        if traced:
            rec.update(tracer.take())
            last_records = rec.pop("records")
        rounds[name].append(rec)

    run_round(wl, 1)                # warm-up: lazy caches fill, allocator settles
    measured_round(*arms[0])
    # peak memory at threads=1 only: thread pools make the threads=2 peak vary
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deadline = time.perf_counter() + args.seconds
    while True:
        measured_round(*arms[1])
        measured_round(*arms[0])
        if time.perf_counter() >= deadline and len(rounds[arms[1][0]]) >= MIN_ROUNDS:
            break
    out["rounds"] = rounds
    out["facts"] = machine_facts()
    if tracer is not None:
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"setup": out["setup_trace"].pop("records"),
                           "last_round": last_records}, fh)
        out["gauss_draws_per_s"] = _probe_gauss_rate(wl)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
