"""Summarize run records from ``perfbench/out/`` into medians and quartiles.

    python3 perfbench/summarize.py [--commit REV] [--write FILE]

Reads every ``out/<workload>-seed<N>-trace<T>.json`` that ``run.py`` left,
groups them by workload and by trace mode, and prints for each metric the
median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread ``(q3 - q1) / median``.  ``--write`` stores the
summary, with the drawn input shares, the failed share and the machine
record, as a baseline file.
"""

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(trace):
    records = {}
    for path in sorted(glob.glob(os.path.join(HERE, "out", f"*-seed*-trace{trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        records.setdefault(rec["workload"], []).append(rec)
    out = {}
    for workload, recs in sorted(records.items()):
        metrics = {}
        for name, first in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"],
                             "spread": (q3 - q1) / median if median else None}
        out[workload] = {
            "runs": len(recs),
            "seeds": sorted(r["seed"] for r in recs),
            "ops_per_run": statistics.median(r["ops"] for r in recs),
            "failed_share": statistics.median(r["failed_share"] for r in recs),
            "wrong": sum(len(r["wrong"]) for r in recs),
            "shares": recs[0]["shares"],
            "metrics": metrics,
        }
    machine = next(iter(records.values()))[0]["machine"] if records else None
    return out, machine


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default=None, help="commit the records were measured at")
    parser.add_argument("--write", default=None, help="baseline file to write")
    args = parser.parse_args()
    baseline = {"commit": args.commit, "machine": None}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        table, machine = summarize(trace)
        baseline[section] = table
        baseline["machine"] = baseline["machine"] or machine
        for workload, row in table.items():
            print(f"{section} {workload}: {row['runs']} runs, ops/run {row['ops_per_run']}, "
                  f"failed_share {row['failed_share']:.4f}")
            for name, m in row["metrics"].items():
                spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
                print(f"  {name:48s} median {m['median']:.6g} {m['unit']}  "
                      f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
