"""Stage ``produce``: simulate the Section 5.2 run and store its trace.

One pass is the paper's pipeline up to the trace file: the two
master-worker applications of :func:`repro.apps.paper_workload` run on
the full Grid'5000 inventory (2170 hosts) under a
:class:`~repro.simulation.UsageMonitor`, the monitor builds the trace
(4423 entities) and :func:`repro.trace.store.write_store` writes it as
an ``.rtrace`` file.  After the first pass the text form that the
``serve`` stage parses is written too, outside the timing.

The seed shuffles the order in which the 2168 workers are deployed.
That changes which worker a master serves first among equals, hence
the whole schedule and trace, while the simulated work stays within a
few percent.  (Choosing the master sites by seed instead moved one pass
between 3.5 s and 7.6 s, a spread no regression bound could absorb.)
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from repro.apps import masterworker, workload
from repro.platform import grid5000
from repro.simulation import monitors
from repro.trace import store as store_mod
from repro.trace import writer

from common import mean, sha256
from spans import Target

#: Tasks per worker of the CPU-bound application (the network-bound one
#: gets a quarter).  2.0 reproduces Fig. 8/9 but takes over a minute; a
#: pass at 0.25 takes about 2 s, so a run can afford one per cycle.
TASKS_PER_WORKER = 0.25

TARGETS = [
    Target("repro.apps.masterworker", "run_master_worker", "sim.run"),
    Target("repro.simulation.engine:Simulator", "run", "sim.engine",
           keep_self=True),
    Target("repro.simulation.monitors:UsageMonitor", "build_trace",
           "trace.build"),
    Target("repro.trace.store", "write_store", "store.write"),
]
#: Spans whose self time is reported (the others have no wrapped children).
SELF_TIMED = {"sim.run"}


class Produce:
    """Produce passes for one seed, writing into *workdir*."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.store_path = workdir / "grid.rtrace"
        self.text_path = workdir / "grid.trace"
        self.seed = seed
        self._last_trace = None
        self._inventory = 0

    def _setup(self):
        platform = grid5000.grid5000_platform()
        apps = workload.paper_workload(
            platform, tasks_per_worker=TASKS_PER_WORKER
        )
        masters = {app.master for app in apps}
        workers = [h.name for h in platform.hosts if h.name not in masters]
        random.Random(self.seed).shuffle(workers)
        return platform, apps, workers

    def setup_once(self) -> float:
        began = time.perf_counter()
        self._setup()
        return time.perf_counter() - began

    def round(self) -> dict:
        began = time.perf_counter()
        platform, apps, workers = self._setup()
        setup_s = time.perf_counter() - began
        start = time.perf_counter()
        monitor = monitors.UsageMonitor(platform)
        masterworker.run_master_worker(
            platform, apps, workers=workers, monitor=monitor
        )
        trace = monitor.build_trace()
        store_mod.write_store(trace, self.store_path)
        produce_s = time.perf_counter() - start
        wall_s = time.perf_counter() - began
        self._last_trace = trace
        self._inventory = sum(
            len(group) for group in (platform.hosts, platform.links, platform.routers)
        )
        return {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "samples": {"produce_s": [produce_s]},
            "digests": {"rtrace": sha256(self.store_path.read_bytes())},
            "attempted": 1,
            "failed": 0,
        }

    def finish(self) -> None:
        """Write the text form of the trace (the ``serve`` input), once:
        every pass of a seed builds the same trace."""
        if not self.text_path.exists():
            writer.write_trace(self._last_trace, self.text_path)

    @staticmethod
    def summarize(samples: dict[str, list[float]]) -> dict[str, float]:
        return {"produce_s": mean(samples["produce_s"])}

    def check(self) -> tuple[int, int, list[str]]:
        """Reopen the store (header and CRC checks), expect one entity
        per host, link and router of the inventory (4423 for Grid'5000),
        and compare every stored signal with the trace the monitor built."""
        problems: list[str] = []
        stored = store_mod.open_store(self.store_path).open_trace()
        if len(stored) != self._inventory:
            problems.append(
                f"store holds {len(stored)} entities, want {self._inventory}"
            )
        attempted, failed = 1 + len(problems), len(problems)
        for entity in self._last_trace:
            got = stored.entity(entity.name).metrics
            for metric, signal in entity.metrics.items():
                attempted += 1
                if got[metric] != signal:
                    failed += 1
                    if len(problems) < 5:
                        problems.append(
                            f"stored {entity.name}/{metric} differs from the built trace"
                        )
        return attempted, failed, problems

    def layers(self, tracer, plain: dict, traced: dict) -> dict[str, float]:
        sims = list(tracer.instances.get("sim.engine", {}).values())
        counts = {
            key: float(sum(sim.stats[key] for sim in sims))
            for key in ("events", "turns", "settles")
        }
        engine_s = tracer.total("sim.engine")
        return {
            "sim.events": counts["events"],
            "sim.turns": counts["turns"],
            "sim.settles": counts["settles"],
            "sim.events_per_s": counts["events"] / engine_s if engine_s else 0.0,
            "store.bytes": float(self.store_path.stat().st_size),
        }
