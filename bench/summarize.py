"""Summarize the results ``run.py`` left in ``bench/out/``.

    python3 bench/summarize.py [--trace 0|1] [--json]

For each workload, and each metric, prints the number of runs (one per
seed), the median and quartiles across runs, and the spread: the distance
between the quartiles as a share of the median, which is the figure the
benchmark's bounds are compared against. ``--json`` prints the same as one
JSON object, with the machine facts of the first run of each workload.
"""

import argparse
import glob
import json
import os
import statistics

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    runs = {}
    for path in sorted(glob.glob(os.path.join(OUT_DIR, f"*-trace{args.trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        runs.setdefault(r["workload"], []).append(r)
    summary = {}
    for wl, rs in sorted(runs.items()):
        entry = {"runs": len(rs), "seeds": sorted(r["seed"] for r in rs),
                 "attempted": sum(r["attempted"] for r in rs),
                 "failed": sum(r["failed"] for r in rs),
                 "facts": rs[0]["facts"], "metrics": {}}
        for name, m in rs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            entry["metrics"][name] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None}
        summary[wl] = entry
    if args.json:
        print(json.dumps(summary, indent=1))
        return
    for wl, e in summary.items():
        print(f"{wl}: {e['runs']} runs, {e['failed']} of {e['attempted']} operations failed")
        for name, m in e["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:46s} {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}")


if __name__ == "__main__":
    main()
