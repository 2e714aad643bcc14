"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 ladderbench/spread.py --workloads apps,large,sweep --seeds 0-9 [--trace-seed N] [--out FILE] [--label TEXT]

Runs run.py once per (workload, seed) with BENCHMARK.json's
run_seconds, then prints for each end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound. --trace-seed adds one traced run per
workload. --out stores every result line, the summaries and the
machine's core count as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarize(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--label", default="", help="what was measured, e.g. the source commit")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"label": args.label, "run_seconds": seconds, "cpu_count": os.cpu_count(), "workloads": {}}
    for w in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_once(w, seed, seconds, 0)
            r["seed"] = seed
            runs.append(r)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"{vals} ({r['wall_s']:.1f} s)", flush=True)
        summary = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name] = s
            flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {w} {name:12s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f} bound {bound} -> {flag}", flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace_seed is not None:
            entry["traced"] = run_once(w, args.trace_seed, seconds, 1)
            entry["traced"]["seed"] = args.trace_seed
            print(f"  {w} traced seed {args.trace_seed}: correct={entry['traced']['correct']} "
                  f"({entry['traced']['wall_s']:.1f} s)", flush=True)
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
