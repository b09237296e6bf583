#!/usr/bin/env python3
"""End-to-end benchmark of ``seedsmith run`` over synthetic fixture worlds.

    python3 pipebench/run.py --workload news-pages --seed 1 --seconds 20 --trace 0

Run it from the root of a seedsmith checkout; the program is taken from
the checkout's ``src/`` and the independent recompute from
``tools/regen_golden.py``. One invocation:

1. makes the workload's world from the seed (``worlds.py``), outside
   every timed span;
2. runs the program once and compares all 16 table CSVs with the
   recompute, then checks the bundle's properties (``checks.py``);
3. for ``--seconds`` seconds, runs whole rounds, each a fresh
   ``seedsmith run`` process (plus, on ``threads``, the deep-chain
   probe). Every bundle must be byte-identical to the checked one and
   hold the same properties;
4. prints every metric with its unit, then one JSON line with the result.

With ``--trace 0`` the result holds the end-to-end metrics:

- ``run_s``: wall time from spawning the process to its exit with the
  bundle written;
- ``peak_rss_mb``: peak resident set of the process;
- ``setup_s``: time from spawning the process until ``seedsmith.cli`` is
  imported.

Each is the median of the runs. On a shared machine the same run takes
from 1.4 to 2.5 s as neighbours slow the core down, in phases that last
from seconds to whole invocations. So the timed rounds run on one core,
and a fixed calibration (``calibrate.py``) runs on that core just before
and after each run: both times are scaled to a core on which the
calibration takes ``calibrate.REFERENCE_S`` (see pipebench/README.md).
The unscaled medians are in the details line. Traced runs are not
confined to one core.

With ``--trace 1`` the
rounds alternate traced and untraced runs, and the result holds the
per-layer metrics of ``spans.py``, medians over the traced runs, plus the
tracing overhead (traced minus untraced ``cli.main`` time).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole invocation, generation and checks included

WORKLOADS = {
    "news-pages": {"jobs": 1, "probe": False},
    "many-topics": {"jobs": 1, "probe": False},
    "threads": {"jobs": 2, "probe": True},
}
THREAD_REPLY_LIMIT = 5000  # above the largest generated thread


def _unit(name: str) -> str:
    """Metric names end in their unit: _s, _mb, _ratio or _per_page; others count."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_per_page")):
        return "ratio"
    return "count"


@dataclass
class _Child:
    proc: subprocess.Popen
    started: float
    timer: threading.Timer
    report: Path
    log: Path


@dataclass
class Run:
    code: int | None
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    report: dict
    log: Path
    scale: float = 1.0  # calibrate.REFERENCE_S over the calibration's time


class Bench:
    def __init__(self, checkout: Path, work: Path, args):
        self.checkout = checkout
        self.work = work
        self.args = args
        self.started = time.monotonic()
        self.spawned = 0
        self.running: _Child | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(checkout / "src"), os.environ.get("PYTHONPATH")))
        )

    def start(self, seedsmith_args: list[str], trace: bool = False) -> _Child:
        """Start one program process (``launch.py``), killed at the deadline."""
        self.spawned += 1
        report = self.work / "reports" / f"{self.spawned}.json"
        log = self.work / "logs" / f"{self.spawned}.log"
        cmd = [sys.executable, str(HERE / "launch.py"), str(report),
               "1" if trace else "0", *seedsmith_args]
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        with log.open("wb") as out:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.checkout, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        self.running = _Child(proc, started, timer, report, log)
        return self.running

    def finish(self, child: _Child) -> Run:
        """Wait for the process; wall time, peak RSS and CPU come from wait4."""
        try:
            _pid, status, usage = os.wait4(child.proc.pid, 0)
        finally:
            child.timer.cancel()
        self.running = None
        wall = time.monotonic() - child.started
        child.proc.returncode = os.waitstatus_to_exitcode(status)
        report = json.loads(child.report.read_text()) if child.report.is_file() else {}
        imported = report.get("imported_at")
        return Run(
            code=child.proc.returncode,
            wall_s=wall,
            setup_s=imported - child.started if imported is not None else None,
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            report=report,
            log=child.log,
        )

    def stop(self) -> None:
        """Kill the program process still running, if any, and wait for it."""
        if self.running is not None:
            self.running.timer.cancel()
            self.running.proc.kill()
            self.running.proc.wait()
            self.running = None

    def spawn(self, seedsmith_args: list[str], trace: bool = False) -> Run:
        return self.finish(self.start(seedsmith_args, trace))

    def pipeline_args(self, world, out: Path) -> list[str]:
        spec = WORKLOADS[self.args.workload]
        argv = ["run", "--corpus", str(world.corpus), "--fixtures", str(world.fixtures),
                "--refs", str(world.refs), "--out", str(out), "--jobs", str(spec["jobs"])]
        if world.replies is not None:
            argv += ["--replies", str(world.replies), "--reply-limit", str(THREAD_REPLY_LIMIT)]
        return argv

    def run(self):
        import calibrate
        import checks
        import worlds

        args = self.args
        for sub in ("reports", "logs", "out"):
            (self.work / sub).mkdir(parents=True)
        world = worlds.make_world(args.workload, args.seed, self.work / "world")
        probe = (worlds.make_probe_chain(self.work / "probe")
                 if WORKLOADS[args.workload]["probe"] else None)
        problems: list[str] = []

        # The checked run is not timed, so the recompute runs beside it.
        out = self.work / "out" / "checked"
        child = self.start(self.pipeline_args(world, out))
        start = time.monotonic()
        expected = checks.recomputed_tables(self.checkout, world)
        recompute_s = time.monotonic() - start
        first = self.finish(child)
        if first.code != 0:
            raise SystemExit(f"error: the checked run exited {first.code}; see its log:\n"
                             + first.log.read_text(errors="replace")[-3000:])
        problems += checks.table_mismatches(out, expected)
        problems += checks.property_problems(out, world)
        reference = checks.bundle_digest(out)
        shutil.rmtree(out)

        # The timed runs and the calibration share one core from here on;
        # the program's processes inherit the affinity. Traced runs keep
        # every core, so that cli.cpu_s can show work spread over them.
        if not args.trace:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        untraced: list[Run] = []
        traced: list[Run] = []
        calibrations: list[float] = []
        attempted = failed = 0
        timed_from = time.monotonic()
        rounds = 0
        before = calibrate.measure()
        while (time.monotonic() - timed_from < args.seconds
               or (args.trace and not (traced and untraced))):
            trace_now = args.trace and rounds % 2 == 0
            out = self.work / "out" / str(rounds)
            run = self.spawn(self.pipeline_args(world, out), trace=trace_now)
            after = calibrate.measure()
            calibrations += [before, after]
            run.scale = calibrate.REFERENCE_S / ((before + after) / 2)
            before = after
            attempted += 1
            if run.code != 0:
                failed += 1
                print(f"run {rounds} exited {run.code}:\n"
                      + run.log.read_text(errors="replace")[-2000:], file=sys.stderr)
            else:
                if checks.bundle_digest(out) != reference:
                    problems.append(f"run {rounds}: bundle differs from the checked run's")
                problems += checks.property_problems(out, world)
                (traced if trace_now else untraced).append(run)
            shutil.rmtree(out, ignore_errors=True)
            if probe is not None:
                attempted += 1
                out = self.work / "out" / f"probe-{rounds}"
                probe_run = self.spawn(["run", "--corpus", str(probe.corpus),
                                        "--fixtures", str(probe.fixtures), "--out", str(out)])
                if probe_run.code != 0:
                    failed += 1
                else:
                    problems += checks.probe_problems(out)
                shutil.rmtree(out, ignore_errors=True)
                before = calibrate.measure()
            rounds += 1

        if not untraced or (args.trace and not traced):
            raise SystemExit("error: no timed run succeeded")
        if args.trace:
            metrics = self.layer_metrics(traced, untraced)
        else:
            metrics = {
                "run_s": statistics.median(r.wall_s * r.scale for r in untraced),
                "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
                "setup_s": statistics.median(r.setup_s * r.scale for r in untraced),
            }
        from seedsmith import textkernel

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "kernel": textkernel.IMPLEMENTATION,
            "cpus": os.cpu_count(),
            "world": {"posts": world.posts, "topics": world.topics, "html_pages": world.html_pages},
            "recompute_s": recompute_s,
            "rounds": rounds,
            "calibration_s": statistics.median(calibrations),
            "unscaled_run_s": statistics.median(r.wall_s for r in untraced),
            "unscaled_setup_s": statistics.median(r.setup_s for r in untraced),
            "untraced_runs": [[r.wall_s, r.rss_mb, r.setup_s, r.scale] for r in untraced],
            "traced_runs": len(traced),
            "absent_layers": sorted({a for r in traced for a in r.report.get("absent", [])}),
            "problems": problems,
        }
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}, info

    def layer_metrics(self, traced: list[Run], untraced: list[Run]) -> dict:
        import spans

        per_run = []
        for run in traced:
            values = spans.layer_metrics(run.report["spans"])
            values["cli.pipeline_s"] = run.report["pipeline_s"]
            values["cli.cpu_s"] = run.cpu_s
            per_run.append(values)
        metrics = {name: statistics.median(v[name] for v in per_run) for name in per_run[0]}
        metrics["cli.trace_overhead_s"] = metrics["cli.pipeline_s"] - statistics.median(
            r.report["pipeline_s"] for r in untraced
        )
        return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Path.cwd()
    missing = [p for p in ("src/seedsmith/cli.py", "tools/regen_golden.py")
               if not (checkout / p).is_file()]
    if missing:
        print(f"error: run from the root of a seedsmith checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    work = checkout / ".pipebench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    # A SIGTERM unwinds through the finally below like an error does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(checkout, work, args)
    try:
        result, info = bench.run()
    finally:
        bench.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation's directory is still there
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    for name, value in result["metrics"].items():
        print(f"{name:32} {value:14.6f} {_unit(name)}")
    print(f"{'attempted':32} {result['attempted']:>14}")
    print(f"{'failed':32} {result['failed']:>14}")
    result["metrics"] = {name: {"value": value, "unit": _unit(name)}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
