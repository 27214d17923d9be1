"""Run one stage of the benchmark in a process of its own.

``run.py`` starts the processes, so each stage's peak memory and the
program's process-wide counters are its own.

Untraced (``--trace 0``), the process takes commands, one a line, on
standard input, and answers each on standard output::

    python3 perfbench/stage.py explore --workdir DIR --seed 3 --trace 0

``setup N`` runs N extra set-ups, ``round`` one round; both answer
``@ok``.  ``finish`` answers ``@result`` and one JSON object: the
pooled samples' metrics, then the output checks.  Every round must give
the same output digests.  ``run.py`` interleaves the rounds of the three
stage processes, each waiting idle for its next command while another
runs.

Traced (``--trace 1``): a warm-up set-up, a plain round, and a round
with the stage's wrappers installed; the last line of standard output
is the result object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from common import p50, peak_rss_mb
from spans import Tracer

#: stage name -> class implementing it, in the stage's module
STAGES = {"produce": "Produce", "explore": "Explore", "serve": "Serve"}


def span_metrics(tracer: Tracer, targets, self_timed) -> dict[str, float]:
    """``<span>_s`` and ``<span>_calls`` for every wrapped callable, and
    ``<span>_self_s`` for the spans listed in *self_timed*."""
    summary = tracer.summary()
    out: dict[str, float] = {}
    for name in dict.fromkeys(target.name for target in targets):
        row = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}_s"] = row["total_s"]
        out[f"{name}_calls"] = float(row["calls"])
        if name in self_timed:
            out[f"{name}_self_s"] = row["self_s"]
    return out


def compare_digests(records: list[dict]) -> dict:
    """Summed operation counts; every record must carry the digests of
    the first, each comparison counting as one operation."""
    digests = records[0]["digests"]
    mismatched = [i for i, r in enumerate(records) if r["digests"] != digests]
    return {
        "digests": digests,
        "attempted": sum(r["attempted"] for r in records) + len(records) - 1,
        "failed": sum(r["failed"] for r in records) + len(mismatched),
        "problems": sum((r.get("problems", []) for r in records), [])
        + [f"round {i} digests differ from the first" for i in mismatched],
    }


def add_checks(stage, result: dict) -> dict:
    """Run the stage's output checks and count them into *result*."""
    checked, mismatched, found = stage.check()
    result["attempted"] += checked
    result["failed"] += mismatched
    result["problems"] += found
    return result


class Runner:
    """One stage under the untraced schedule: set-ups and rounds on
    command, then the pooled result."""

    def __init__(self, name: str, workdir: Path, seed: int) -> None:
        module = importlib.import_module(name)
        self.name = name
        self.stage = getattr(module, STAGES[name])(workdir, seed)
        self.setup_s: list[float] = []
        self.rounds: list[dict] = []

    def setup(self, count: int) -> None:
        self.setup_s.extend(self.stage.setup_once() for _ in range(count))

    def round(self) -> None:
        record = self.stage.round()
        self.rounds.append(record)
        self.setup_s.append(record["setup_s"])
        if hasattr(self.stage, "finish"):
            self.stage.finish()

    def result(self) -> dict:
        samples: dict[str, list[float]] = {}
        for r in self.rounds:
            for key, values in r["samples"].items():
                samples.setdefault(key, []).extend(values)
        result = compare_digests(self.rounds)
        result.update(
            stage=self.name,
            rounds=len(self.rounds),
            metrics=self.stage.summarize(samples),
            samples={key: len(v) for key, v in samples.items()},
            setup_s=p50(self.setup_s),
            setup_samples=len(self.setup_s),
            peak_rss_mb=peak_rss_mb(),
        )
        return add_checks(self.stage, result)

    def command(self, line: str) -> dict | None:
        """Carry out one command line; the result object for ``finish``."""
        word, *args = line.split()
        if word == "setup":
            self.setup(int(args[0]))
        elif word == "round":
            self.round()
        elif word == "finish":
            return self.result()
        else:
            raise ValueError(f"unknown command {line!r}")
        return None


def run_traced(name: str, workdir: Path, seed: int) -> dict:
    """A warm-up set-up, a plain round and a traced round of one stage."""
    module = importlib.import_module(name)
    stage = getattr(module, STAGES[name])(workdir, seed)
    stage.setup_once()  # warm-up, so neither round pays first-use costs
    plain = stage.round()
    with Tracer(module.TARGETS) as tracer:
        traced = stage.round()
    if hasattr(stage, "finish"):
        stage.finish()
    result = add_checks(stage, compare_digests([plain, traced]))
    result["stage"] = name
    layers = span_metrics(tracer, module.TARGETS, module.SELF_TIMED)
    layers.update(stage.layers(tracer, plain, traced))
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    result["layers"] = layers
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=sorted(STAGES))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        result = run_traced(args.stage, args.workdir, args.seed)
        print(json.dumps(result, sort_keys=True))
        return 0
    runner = Runner(args.stage, args.workdir, args.seed)
    for line in sys.stdin:
        result = runner.command(line)
        if result is not None:
            print("@result " + json.dumps(result, sort_keys=True), flush=True)
            return 0
        print("@ok", flush=True)
    return 1  # standard input closed before ``finish``


if __name__ == "__main__":
    raise SystemExit(main())
