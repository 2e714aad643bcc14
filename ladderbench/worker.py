"""One workload process: import the package, signal ready, run passes.

Started by run.py from the checkout root. It prints exactly one line,
``ready``, on stdout once ``ladderbus.cli`` (and with it numpy and
scipy) is imported; run.py times process launch to that line as set-up.
With --probe it exits there. Otherwise it runs the manifest's instance
list through ``ladderbus.cli.main`` as a closed loop of passes and
writes timings, exit codes and (when traced) spans to --out.

    python3 ladderbench/worker.py --probe
    python3 ladderbench/worker.py --manifest M --workdir D --out R --seconds S [--trace] [--one-pass]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main with its console output captured, so stdout stays ours."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails this instance; the loop goes on
            code = -1
            buf.write(traceback.format_exc())
    return code, buf.getvalue()[-2000:]


def run_pass(cli, manifest: dict, pass_dir: Path, tracer) -> list[dict]:
    results = []
    if manifest["mode"] == "sweep":
        rundir = pass_dir / "sweep"
        argv = ["sweep", "--rundir", str(rundir),
                "--sizes", ",".join(map(str, manifest["sizes"])),
                "--densities", ",".join(map(str, manifest["densities"])),
                "--seeds", ",".join(map(str, manifest["seeds"])),
                "--algorithms", ",".join(manifest["algorithms"])]
        t0 = time.perf_counter()
        code, log = _run_cli(cli, argv)
        results.append({"id": "sweep", "rundir": str(rundir), "code": code, "log": log,
                        "seconds": time.perf_counter() - t0})
        return results
    for inst in manifest["instances"]:
        rundir = pass_dir / inst["id"]
        if tracer is not None:
            tracer.instance = inst["id"]
        t0 = time.perf_counter()
        code, log = _run_cli(cli, ["run", "--config", inst["config"], "--rundir", str(rundir)])
        results.append({"id": inst["id"], "rundir": str(rundir), "code": code, "log": log,
                        "seconds": time.perf_counter() - t0})
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--manifest")
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--one-pass", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from ladderbus import cli

    print("ready", flush=True)
    if args.probe:
        return 0

    manifest = json.loads(Path(args.manifest).read_text())
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        missing_hooks = tracing.install(tracer)

    passes = []
    start = time.perf_counter()
    while True:
        pass_dir = Path(args.workdir) / f"pass{len(passes)}"
        t0, c0 = time.perf_counter(), time.process_time()
        instances = run_pass(cli, manifest, pass_dir, tracer)
        seconds = time.perf_counter() - t0
        passes.append({"seconds": seconds, "cpu_s": time.process_time() - c0,
                       "instances": instances})
        # closed loop: start another pass only if it should end within --seconds
        if args.one_pass or time.perf_counter() - start + seconds > args.seconds:
            break

    out = {
        "ladderbus_file": cli.__file__,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
        out["missing_hooks"] = missing_hooks
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
