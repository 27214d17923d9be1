"""Stage ``serve``: two analysts through the multi-session server.

An in-process :class:`~repro.server.ReproServer` with the default
:class:`~repro.server.ServerConfig` (two layout steps per view, a
4096-entry shared result cache) serves the resident trace parsed from
the text form.  Two WebSocket connections on this process's event loop
replay the same :func:`~repro.server.make_storm` storm, so about half
of the lookups are cross-session cache hits.  The storm gets no
group/ungroup targets, so its every eighth move is a depth flip.  With
toggle targets, how long a storm stays at partial or near-full detail
depends on its seed: with the whole grid as a target some storms reach
4035 units at 0.2 s a view, and with sites as targets the closed-loop
capacity ranged from 95 to 231 requests per second over five seeds.

* Phase ``open``: an open loop at ``OPEN_RATE`` requests per second
  over both connections, interleaved, regardless of replies.  Each
  request is timed from when it was due, so a stall also charges the
  requests queued behind it.
* Phase ``closed``: both connections send back to back, each waiting
  for its reply; completed requests per second give the capacity.

Seeds are memoised and the signal banks are resident here, so
seeding and mmap changes should leave this stage unchanged.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

from repro.server import ReproServer, ServerConfig, WsClient, make_storm
from repro.server.load import replay_storm_local
from repro.server.protocol import canonical_json
from repro.trace import reader

from common import LAYOUT_SEED, SETTLE_STEPS, Digest, mean, p50, p90, sha256
from explore import SESSION_TARGETS, session_layers
from spans import Target

#: Offered rate of the open phase, both connections together.  Closed
#: loop capacity on a 2-vCPU x86 box is about 180 requests per second.
OPEN_RATE = 30.0
#: Storm moves per connection in each phase.
OPEN_MOVES = 40
CLOSED_MOVES = 75
CONNECTIONS = 2

TARGETS = [
    Target("repro.trace.reader", "read_trace", "reader.parse"),
    Target("repro.server.state:SharedServerState", "handle_frame",
           "server.handle_frame"),
    Target("repro.server.state", "view_payload", "protocol.payload"),
    Target("repro.server.app", "canonical_json", "protocol.json", tally=len),
] + SESSION_TARGETS
SELF_TIMED = {"agg.view", "server.handle_frame"}


class Serve:
    """Serve rounds for one seed over the text trace in *workdir*."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.text_path = workdir / "grid.trace"
        self.seed = seed
        self.storm: list[dict] = []
        #: per-move payload digests of the first round
        self._stream: list[str] = []

    async def _setup(self):
        trace = reader.read_trace(self.text_path)
        server = ReproServer(trace, ServerConfig())
        await server.start()
        clients = [
            await WsClient.connect(server.config.host, server.port)
            for _ in range(CONNECTIONS)
        ]
        for client in clients:
            hello = await client.request("hello")
            if not hello.get("ok"):
                raise RuntimeError(f"hello refused: {hello!r}")
        if not self.storm:
            self.storm = make_storm(
                trace.span(),
                moves=OPEN_MOVES + CLOSED_MOVES,
                seed=self.seed,
            )
        return server, clients

    @staticmethod
    async def _teardown(server, clients) -> None:
        for client in clients:
            await client.request("bye")
            await client.close()
        for _ in range(1000):  # let the server's handlers finish
            if not server.state.sessions:
                break
            await asyncio.sleep(0.001)
        await server.aclose()

    def setup_once(self) -> float:
        async def once() -> float:
            began = time.perf_counter()
            server, clients = await self._setup()
            setup_s = time.perf_counter() - began
            await self._teardown(server, clients)
            return setup_s

        return asyncio.run(once())

    def round(self) -> dict:
        return asyncio.run(self._round())

    async def _round(self) -> dict:
        began = time.perf_counter()
        server, clients = await self._setup()
        setup_s = time.perf_counter() - began
        open_moves = self.storm[:OPEN_MOVES]
        closed_moves = self.storm[OPEN_MOVES:]
        # Per connection: due, sent and received times, payload digests.
        due = [[0.0] * OPEN_MOVES for _ in clients]
        sent = [[0.0] * len(self.storm) for _ in clients]
        recv = [[0.0] * len(self.storm) for _ in clients]
        streams: list[list[str]] = [[] for _ in clients]
        failed = [0, 0]  # open, closed

        async def send_open(c: int, client: WsClient) -> None:
            for j, move in enumerate(open_moves):
                # Poll instead of sleeping: the loop never idles, so the
                # time the host takes to wake an idle virtual CPU, which
                # swings with other tenants' load, is not charged to the
                # program.  Server frames are handled between polls.
                while time.perf_counter() < due[c][j]:
                    await asyncio.sleep(0)
                sent[c][j] = time.perf_counter()
                await client.ws.send_text(canonical_json({"id": j, **move}))

        async def receive_open(c: int, client: WsClient) -> None:
            for j in range(OPEN_MOVES):
                reply = await client.recv_json()
                recv[c][j] = time.perf_counter()
                if reply is None or not reply.get("ok") or reply.get("id") != j:
                    failed[0] += 1
                    streams[c].append("")
                else:
                    streams[c].append(sha256(canonical_json(reply["result"])))

        async def closed(c: int, client: WsClient) -> None:
            for j, move in enumerate(closed_moves, start=OPEN_MOVES):
                sent[c][j] = time.perf_counter()
                reply = await client.request(**move)
                recv[c][j] = time.perf_counter()
                if not reply.get("ok"):
                    failed[1] += 1
                    streams[c].append("")
                else:
                    streams[c].append(sha256(canonical_json(reply["result"])))

        start = time.perf_counter() + 0.05
        for c in range(len(clients)):
            for j in range(OPEN_MOVES):
                due[c][j] = start + (CONNECTIONS * j + c) / OPEN_RATE
        tasks = [
            asyncio.create_task(coro)
            for c, client in enumerate(clients)
            for coro in (send_open(c, client), receive_open(c, client))
        ]
        await asyncio.gather(*tasks)
        open_end = time.perf_counter()
        await asyncio.gather(*(closed(c, client) for c, client in enumerate(clients)))
        closed_s = time.perf_counter() - open_end
        storm_window = (sent[0][0], time.perf_counter())
        cache = server.state.cache.snapshot()
        await self._teardown(server, clients)

        schedule_end = start + CONNECTIONS * OPEN_MOVES / OPEN_RATE
        rtt_ms = [
            (recv[c][j] - due[c][j]) * 1e3
            for c in range(len(clients)) for j in range(OPEN_MOVES)
        ]
        waits = [
            sent[c][j] - due[c][j]
            for c in range(len(clients)) for j in range(OPEN_MOVES)
        ]
        last = max(range(len(clients)), key=lambda c: due[c][-1])
        backlog = sum(
            1 for c in range(len(clients)) for j in range(OPEN_MOVES)
            if recv[c][j] > schedule_end
        )
        n_open = len(clients) * OPEN_MOVES
        n_closed = len(clients) * len(closed_moves)
        if not self._stream:
            self._stream = streams[0]
        # Every session, every round, must see the first round's bytes.
        mismatched = sum(
            1 for stream in streams
            for got, want in zip(stream, self._stream) if got != want
        )
        payloads = Digest()
        for item in streams[0]:
            payloads.add(item)
        return {
            "setup_s": setup_s,
            "wall_s": time.perf_counter() - began,
            "samples": {
                "rtt_ms": rtt_ms,
                "closed_requests": [float(n_closed)],
                "closed_s": [closed_s],
            },
            "digests": {"payloads": payloads.hexdigest()},
            "attempted": n_open + n_closed,
            "failed": failed[0] + failed[1] + mismatched,
            "load": {
                "load.open.sent": float(n_open),
                "load.open.succeeded": float(n_open - failed[0]),
                "load.open.failed": float(failed[0]),
                "load.closed.sent": float(n_closed),
                "load.closed.succeeded": float(n_closed - failed[1]),
                "load.closed.failed": float(failed[1]),
                "load.queue_wait_s": sum(waits),
                "load.lateness_s": sent[last][OPEN_MOVES - 1] - due[last][-1],
                "load.lateness_p50_s": p50(waits),
                "load.lateness_max_s": max(waits),
                "load.backlog_end": float(backlog),
                "load.backlog_growing": float(backlog > len(clients)),
            },
            "cache": cache,
            "storm_io": (storm_window, sent, recv),
        }

    @staticmethod
    def summarize(samples: dict[str, list[float]]) -> dict[str, float]:
        return {
            "rtt_mean_ms": mean(samples["rtt_ms"]),
            "rtt_p90_ms": p90(samples["rtt_ms"]),
            # Requests completed over time spent, across all rounds.
            "capacity_rps": sum(samples["closed_requests"])
            / sum(samples["closed_s"]),
        }

    def check(self) -> tuple[int, int, list[str]]:
        """Byte differential: both sessions' payloads must equal an
        isolated local replay of the storm."""
        resident = reader.read_trace(self.text_path)
        oracle = [
            sha256(text)
            for text in replay_storm_local(
                resident, self.storm, seed=LAYOUT_SEED,
                settle_steps=SETTLE_STEPS,
            )
        ]
        failed = sum(1 for got, want in zip(self._stream, oracle) if got != want)
        problems = (
            [f"{failed} of {len(oracle)} server payloads differ from the "
             "local replay"] if failed else []
        )
        return len(oracle), failed, problems

    @staticmethod
    def layers(tracer, plain: dict, traced: dict) -> dict[str, float]:
        (window_start, window_end), sent, recv = traced["storm_io"]
        handled = sum(
            end - start
            for name, start, end, _ in tracer.spans
            if name == "server.handle_frame"
            and window_start <= start <= window_end
        )
        round_trips = sum(
            r - s for sent_c, recv_c in zip(sent, recv)
            for s, r in zip(sent_c, recv_c)
        )
        cache = traced["cache"]
        out = session_layers(tracer)
        out.update(plain["load"])
        out.update({
            "protocol.reply_bytes": tracer.tallies.get("protocol.json", 0.0),
            "server.transport_s": round_trips - handled,
            "cache.lookups": float(cache["lookups"]),
            "cache.hits": float(cache["hits"]),
            "cache.cross_hits": float(cache["cross_hits"]),
            "cache.hit_ratio": (
                cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0
            ),
        })
        return out
