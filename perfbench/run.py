"""End-to-end benchmark: produce, explore and serve the Grid'5000 trace.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload explore --seed 3 --seconds 24 --trace 0

Every run walks the whole pipeline, one process per stage:
``produce`` simulates the Section 5.2 run and writes the trace,
``explore`` drives a standalone analysis session over the stored file,
``serve`` replays a storm from two analysts through the server.  The
three processes stay up for the whole run and take turns: cycles of one
``explore`` round, one ``serve`` round and one ``produce`` pass repeat
until the ``explore`` and ``serve`` rounds have taken ``--seconds``, so
every end-to-end metric pools samples from every stretch of the run.
The workload names the stage whose set-up time and peak memory are the
run's ``setup_s`` and ``peak_rss_mb``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
stage once plain and once with wrappers around its layers, and prints
the per-layer metrics.  Output checks count towards ``failed``.  The
last line of standard output is one JSON object; the line before it
holds the output digests of this seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES = ("produce", "explore", "serve")
#: Workloads: the stage whose set-up time and peak memory a run reports.
WORKLOADS = ("explore", "serve")
#: Extra set-ups of the workload's stage in each cycle, on top of one
#: per round.
SETUPS = 1
#: All stages together must finish within this many seconds.
DEADLINE_S = 170.0

#: end-to-end metric -> (stage measuring it, unit); ``None`` is the
#: workload's own stage.
E2E = {
    "setup_s": (None, "s"),
    "produce_s": ("produce", "s"),
    "scrub_mean_ms": ("explore", "ms"),
    "scrub_p90_ms": ("explore", "ms"),
    "regroup_mean_ms": ("explore", "ms"),
    "detail_mean_ms": ("explore", "ms"),
    "svg_mean_ms": ("explore", "ms"),
    "rtt_mean_ms": ("serve", "ms"),
    "rtt_p90_ms": ("serve", "ms"),
    "capacity_rps": ("serve", "req/s"),
    "peak_rss_mb": (None, "MB"),
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "_growing")):
        return "ratio"
    return "count"


def drive(workload: str, seconds: float,
          do: Callable[[str, str], float]) -> None:
    """Issue the untraced schedule: ``do(stage, command)`` carries out
    one command in one stage and returns the seconds it took.

    The host's speed drifts by tens of percent from one ten-second
    stretch to the next, so the stages take short turns: every metric
    then pools samples from the whole run rather than one stretch.
    """
    do("produce", "round")  # writes the files the other stages read
    spent = 0.0
    while True:
        do(workload, f"setup {SETUPS}")
        spent += do("explore", "round") + do("serve", "round")
        do("produce", "round")
        if spent >= seconds:
            break


def environment() -> dict[str, str]:
    """The stage processes' environment."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)  # the program's own spans stay off
    env["PYTHONPATH"] = str(ROOT / "src")
    # The explore stage's payload and SVG bytes differ between string
    # hash seeds, so digests are only comparable under a fixed one.
    env["PYTHONHASHSEED"] = "0"
    return env


def stage_command(stage: str, seed: int, trace: bool, workdir: Path) -> list[str]:
    return [
        sys.executable, str(HERE / "stage.py"), stage,
        "--workdir", str(workdir), "--seed", str(seed),
        "--trace", "1" if trace else "0",
    ]


def run_traced(seed: int, workdir: Path) -> dict[str, dict]:
    """Each stage once, traced, in order; return each stage's result."""
    deadline = time.monotonic() + DEADLINE_S
    results: dict[str, dict] = {}
    for stage in STAGES:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no time left for stage {stage}")
        proc = subprocess.run(
            stage_command(stage, seed, True, workdir), env=environment(),
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            sys.stderr.write(f"[{stage}] {line}\n")
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"stage {stage} exited with {proc.returncode}")
        results[stage] = json.loads(lines[-1])
    return results


def run_untraced(workload: str, seed: int, seconds: float,
                 workdir: Path) -> dict[str, dict]:
    """Start the three stage processes, drive the schedule through them
    and return each stage's result.  Every process is stopped and
    waited for on the way out; past the deadline they are killed."""
    procs: dict[str, subprocess.Popen] = {}

    def kill_all() -> None:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()

    watchdog = threading.Timer(DEADLINE_S, kill_all)
    watchdog.start()
    try:
        for stage in STAGES:
            procs[stage] = subprocess.Popen(
                stage_command(stage, seed, False, workdir), env=environment(),
                cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )

        def ask(stage: str, command: str) -> str:
            proc = procs[stage]
            proc.stdin.write(command + "\n")
            proc.stdin.flush()
            for line in proc.stdout:
                if line.startswith("@"):
                    return line
                sys.stderr.write(f"[{stage}] {line}")
            raise RuntimeError(
                f"stage {stage} ended during {command!r} "
                f"(exit code {proc.wait()})"
            )

        def do(stage: str, command: str) -> float:
            began = time.perf_counter()
            ask(stage, command)
            return time.perf_counter() - began

        drive(workload, seconds, do)
        results: dict[str, dict] = {}
        for stage in STAGES:
            reply = ask(stage, "finish")
            if not reply.startswith("@result "):
                raise RuntimeError(f"stage {stage} answered {reply!r}")
            results[stage] = json.loads(reply[len("@result "):])
        return results
    except (BrokenPipeError, ValueError) as error:
        raise RuntimeError(f"lost a stage process: {error}") from error
    finally:
        watchdog.cancel()
        for proc in procs.values():
            if proc.stdin:
                try:
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
        for proc in procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def report(workload: str, results: dict[str, dict], trace: bool) -> dict:
    """The contract's result object for one run."""
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics: dict[str, dict] = {}
    if trace:
        for stage in STAGES:
            for name, value in sorted(results[stage]["layers"].items()):
                metrics[f"{stage}.{name}"] = {
                    "value": value, "unit": layer_unit(name)
                }
        metrics["error_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    else:
        own = results[workload]
        for name, (stage, unit) in E2E.items():
            if stage is None:
                value = own[name]
            else:
                value = results[stage]["metrics"][name]
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the ``finally`` blocks, which stop the
    # stage processes and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    workdir = ROOT / ".perfbench_work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            results = run_traced(args.seed, workdir)
        else:
            results = run_untraced(
                args.workload, args.seed, args.seconds, workdir
            )
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    for stage in STAGES:
        if "rounds" in results[stage]:
            print(f"[{stage}] {results[stage]['rounds']} rounds", file=sys.stderr)
        for problem in results[stage]["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    result = report(args.workload, results, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print("digests " + json.dumps(
        {stage: results[stage]["digests"] for stage in STAGES}, sort_keys=True
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
