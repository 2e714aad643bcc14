"""ladderbus benchmark: one workload run, metrics on the last stdout line.

    python3 ladderbench/run.py --workload apps|large|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/ladderbus next to this
directory); the package is imported from that tree only. Workloads are
defined in workloads.json. Every metric is printed to stderr with its
name and unit, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with no instrumentation: setup_s is the median of several process
launches (launch until ladderbus.cli with numpy and scipy is imported),
flow_s the median wall time of the passes over the instance list.
--trace 1 reports the per-layer metrics: one untraced pass and one
traced pass, each in a fresh process, and their difference as the
tracing overhead.

Outputs of every pass are checked by check.py outside the timed
region; an instance fails on a nonzero exit or a rejected output.
The checker's own fault-injection self-test runs on every run.

Everything the run writes stays under .ladderbench/ in the checkout:
the instance files and run directories (removed at exit), a digest of
each instance's state files per workload and seed (compared with the
next run's), and the traced worker's spans and counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUP_PROBES = 4  # extra launches that only import; the workload process adds one more
DEADLINE_S = 170.0
# what a missing file or a changed format raises in the checker: the instance fails
UNREADABLE = (OSError, ValueError, KeyError, TypeError, IndexError)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# processes


class Launcher:
    """Starts worker processes, times launch-to-ready, and stops them all."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.setup_s: list[float] = []
        self._live: list[subprocess.Popen] = []

    def run(self, args: list[str]) -> None:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self._live.append(proc)
        line = proc.stdout.readline()
        ready = time.perf_counter()
        if line.strip() != "ready":
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            raise BenchError(f"worker exited before importing ladderbus (code {proc.returncode})")
        self.setup_s.append(ready - t0)
        try:
            proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the run deadline") from None
        self._live.remove(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker failed with code {proc.returncode}")

    def stop_all(self) -> None:
        for proc in self._live:
            proc.kill()
            proc.wait()
        self._live.clear()


# ---------------------------------------------------------------------------
# checking and digests


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class Outcome:
    """Checked results of one worker's passes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[dict[str, str]] = []  # per pass: instance id -> digest
        self.scenarios = 0  # from the first pass
        self.control_bits = 0
        self.greedy_cost = 0
        self.final_cost = 0
        self.selftest_failures: list[str] | None = None


def check_worker(result: dict, manifest: dict, selftest: bool) -> Outcome:
    """Check every pass; with selftest, also run the checker's fault injection
    on the first accepted output."""
    out = Outcome()
    accepted: dict[str, set[str]] = {}
    for k, p in enumerate(result["passes"]):
        digests: dict[str, str] = {}
        if manifest["mode"] == "sweep":
            _check_sweep_pass(p["instances"][0], manifest, out, digests, k == 0, selftest)
        else:
            for inst, spec in zip(p["instances"], manifest["instances"]):
                _check_run_instance(inst, spec, manifest, out, digests, accepted, k == 0, selftest)
        out.digests.append(digests)
    return out


def _check_run_instance(inst, spec, manifest, out, digests, accepted, first, selftest) -> None:
    out.attempted += 1
    if inst["code"] != 0:
        out.failures.append(f"{inst['id']}: exit {inst['code']}: {inst['log'].strip()[-300:]}")
        return
    rundir = Path(inst["rundir"])
    digest = digest_dir(rundir)
    digests[inst["id"]] = digest
    if not first and digest in accepted.get(inst["id"], ()):
        return  # byte-identical to outputs already checked
    graph_in = json.loads(Path(spec["graph"]).read_text())
    try:
        docs = check.load_run_docs(rundir)
        problems = check.check_run_docs(docs, graph_in, manifest["frames"])
    except UNREADABLE as exc:
        problems = [f"unreadable output: {exc!r}"]
    if problems:
        out.failures.append(f"{inst['id']}: {problems[0]}")
        return
    accepted.setdefault(inst["id"], set()).add(digest)
    if first:
        out.scenarios += len(docs["scenarios.json"]["scenarios"])
        out.control_bits += docs["controllers.json"]["memory_bits"]
        out.greedy_cost += docs["placement.json"]["greedy_cost"]
        out.final_cost += docs["placement.json"]["final_cost"]
        if selftest and out.selftest_failures is None:
            out.selftest_failures = check.self_test(docs, graph_in, manifest["frames"])


def _check_sweep_pass(inst, manifest, out, digests, first, selftest) -> None:
    ids = [check.sweep_instance_id(n, d, s) for n in manifest["sizes"]
           for d in manifest["densities"] for s in manifest["seeds"]]
    out.attempted += len(ids)
    if inst["code"] != 0:
        out.failures.extend(f"{i}: sweep exit {inst['code']}" for i in ids)
        return
    try:
        rows = json.loads((Path(inst["rundir"]) / "sweep.json").read_text())
        checked = check.check_sweep_rows(rows, manifest)
    except UNREADABLE as exc:
        out.failures.extend(f"{i}: unreadable output: {exc!r}" for i in ids)
        return
    for iid, problems in checked.items():
        if problems:
            out.failures.append(f"{iid}: {problems[0]}")
    for r in rows:
        iid = check.sweep_instance_id(r["n"], r["density"], r["seed"])
        h = hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
        digests[iid] = hashlib.sha256((digests.get(iid, "") + h).encode()).hexdigest()
    if first:
        out.scenarios = sum(r["scenarios"] for r in rows)
        out.control_bits = sum(r["ctrl_bits"] for r in rows)
        if selftest:
            out.selftest_failures = check.self_test_sweep(rows, manifest)


def digest_mismatches(record_path: Path, outcomes: list[Outcome]) -> int:
    """Instances whose digests differ across the passes of this run and the
    record left by the previous run of the same workload and seed."""
    seen: dict[str, set[str]] = {}
    if record_path.exists():
        for iid, d in json.loads(record_path.read_text()).items():
            seen.setdefault(iid, set()).add(d)
    for o in outcomes:
        for digests in o.digests:
            for iid, d in digests.items():
                seen.setdefault(iid, set()).add(d)
    first = outcomes[0].digests[0] if outcomes[0].digests else {}
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    return sum(1 for ds in seen.values() if len(ds) > 1)


# ---------------------------------------------------------------------------
# metrics


def per_layer_metrics(traced: dict, traced_outcome: Outcome, untraced_flow_s: float,
                      pass_dir: Path, stage_metrics: list[str]) -> dict:
    total, selft, top = tracing.span_totals(traced["spans"])
    c = Counter(traced["counts"])
    flow = traced["passes"][0]["seconds"]
    sim_s = selft["sim.run"]
    pairs = c["grouping.conflict_pairs"]
    due = c["sim.deliveries_due"]
    gcost = traced_outcome.greedy_cost
    m = {
        "appgraph.parse_s": total["appgraph.parse"],
        "appgraph.parse_calls": c["appgraph.parse_calls"],
        "placement.greedy_s": total["placement.greedy"],
        "placement.anneal_s": total["placement.anneal"],
        "placement.anneal_iters": c["placement.anneal_iters"],
        "placement.cost_gain": 1.0 - traced_outcome.final_cost / gcost if gcost else 0.0,
        "routing.extract_s": total["routing.extract"],
        "routing.paths": c["routing.paths"],
        "grouping.conflict_s": total["grouping.conflict"],
        "grouping.conflict_calls": c["grouping.conflict_calls"],
        "grouping.conflict_edges": c["grouping.conflict_edges"],
        "grouping.conflict_density": c["grouping.conflict_edges"] / pairs if pairs else 0.0,
        "grouping.conflict_rss_rise_mb": c["grouping.conflict_rss_rise_mb"],
        "grouping.maxclique_s": selft["grouping.maxclique"],
        "grouping.clique_calls": c["grouping.clique_calls"],
        "grouping.clique_fallbacks": c["grouping.clique_fallbacks"],
        "grouping.greedy_s": selft["grouping.greedy"],
        "grouping.switch_vector_s": total["grouping.switch_vector"],
        "grouping.validate_s": total["grouping.validate"],
        "grouping.scenarios_greedy": c["grouping.scenarios_greedy"],
        "grouping.scenarios_maxclique": c["grouping.scenarios_maxclique"],
        "grouping.lower_bound": c["grouping.lower_bound"],
        "grouping.gap": traced_outcome.scenarios - c["grouping.lower_bound"],
        "controlgen.encode_s": total["controlgen.encode"],
        "controlgen.format_s": total["controlgen.format"],
        "controlgen.parse_s": total["controlgen.parse"],
        "controlgen.decode_s": total["controlgen.decode"],
        "controlgen.memory_bits": c["controlgen.memory_bits"],
        "sim.run_s": sim_s,
        "sim.steps": c["sim.steps"],
        "sim.steps_per_s": c["sim.steps"] / sim_s if sim_s else 0.0,
        "sim.collisions": c["sim.collisions"],
        "sim.delivered_frac": c["sim.delivered"] / due if due else 0.0,
        "topology.switch_lookups": c["topology.switch_lookups"],
        "costmodel.calibrate_s": total["costmodel.calibrate"],
        "costmodel.report_s": total["costmodel.report"],
        "costmodel.sweep_instance_s": total["costmodel.sweep_instance"],
        "cli.state_io_s": sum(v for k, v in selft.items() if k.startswith("cli.stage.")),
        "cli.state_bytes": sum(f.stat().st_size for f in pass_dir.rglob("*") if f.is_file()),
        "trace.overhead_s": flow - untraced_flow_s,
        "trace.uncovered_s": flow - top,
    }
    for name in stage_metrics:
        m[name] = total[name[:-2]]  # "cli.stage.group_s" -> span "cli.stage.group"
    return m


def quartile_line(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q[0]:.4g} q3={q[2]:.4g}"


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ladderbus" / "cli.py").is_file():
        print(f"error: no ladderbus source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = workloads.load_spec()
    if args.workload not in spec:
        print(f"error: unknown workload {args.workload!r} (choose from {sorted(spec)})", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    os.chdir(ROOT)
    base = Path(".ladderbench")
    work = base / f"run-{args.workload}-s{args.seed}"  # stable: config.json records input paths
    shutil.rmtree(work, ignore_errors=True)
    launcher = Launcher(time.monotonic() + DEADLINE_S)
    try:
        manifest = workloads.write_inputs(args.workload, spec[args.workload], args.seed, work / "inputs")
        (work / "manifest.json").write_text(json.dumps(manifest))
        for _ in range(SETUP_PROBES):
            launcher.run(["--probe"])

        def workload_process(name: str, extra: list[str]) -> dict:
            out = work / f"{name}.json"
            launcher.run(["--manifest", str(work / "manifest.json"), "--workdir", str(work / name),
                          "--out", str(out), "--seconds", str(args.seconds), *extra])
            res = json.loads(out.read_text())
            if Path(res["ladderbus_file"]).resolve() != (ROOT / "src/ladderbus/cli.py").resolve():
                raise BenchError(f"imported ladderbus from {res['ladderbus_file']}, not this checkout")
            return res

        one_pass = ["--one-pass"] if args.trace else []
        untraced = workload_process("untraced", one_pass)
        outcomes = [check_worker(untraced, manifest, selftest=True)]
        traced = None
        if args.trace:
            traced = workload_process("traced", ["--one-pass", "--trace"])
            outcomes.append(check_worker(traced, manifest, selftest=False))

        attempted = sum(o.attempted for o in outcomes)
        failures = [f for o in outcomes for f in o.failures]
        selftest = outcomes[0].selftest_failures
        if selftest is None:
            selftest = ["no accepted instance to run the checker's self-test on"]
        mismatches = digest_mismatches(base / "digests" / f"{args.workload}-s{args.seed}.json",
                                       outcomes)
        pass_s = [p["seconds"] for p in untraced["passes"]]
        e2e = {
            "setup_s": statistics.median(launcher.setup_s),
            "flow_s": statistics.median(pass_s),
            "peak_rss_mb": untraced["peak_rss_mb"],
            "scenarios": outcomes[0].scenarios,
            "control_bits": outcomes[0].control_bits,
        }
        report = dict(e2e)
        e2e_names = [m["name"] for m in bench["end_to_end"]]
        names = e2e_names
        if traced is not None:
            stage_metrics = [m["name"] for m in bench["per_layer"] if m["name"].startswith("cli.stage.")]
            layer = per_layer_metrics(traced, outcomes[1], e2e["flow_s"], work / "traced" / "pass0",
                                      stage_metrics)
            layer["determinism.digest_mismatches"] = mismatches
            layer["failed_frac"] = len(failures) / attempted
            report.update(layer)
            names = [m["name"] for m in bench["per_layer"]]
            # the spans of the traced pass stay for inspection after the run
            shutil.copy(work / "traced.json", base / f"trace-{args.workload}-s{args.seed}.json")
        missing = [n for n in names if n not in report]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")

        err = sys.stderr
        walls = " ".join(f"{p['seconds']:.3f}" for p in untraced["passes"])
        cpus = " ".join(f"{p['cpu_s']:.3f}" for p in untraced["passes"])
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: untraced passes "
              f"{walls} s (cpu {cpus} s), setup samples {quartile_line(launcher.setup_s)}", file=err)
        for name in dict.fromkeys(e2e_names + names):
            print(f"  {name:34s} {report[name]:>16.6g} {units[name]}", file=err)
        print(f"  attempted {attempted}, failed {len(failures)} "
              f"(failed_frac {len(failures) / attempted:.4g}), digest mismatches {mismatches}",
              file=err)
        if traced is not None and traced["missing_hooks"]:
            print(f"  trace hooks not found (metrics read 0): {', '.join(traced['missing_hooks'])}",
                  file=err)
        for f in failures[:10]:
            print(f"  FAILED {f}", file=err)
        print("  checker self-test: " + ("; ".join(selftest) if selftest else
              "injected faults rejected"), file=err)

        result = {
            "correct": not failures and not selftest,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {n: {"value": report[n], "unit": units[n]} for n in names},
        }
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.stop_all()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
