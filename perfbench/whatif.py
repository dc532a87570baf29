"""The ``whatif`` workload: a closed loop against ``trued serve --tcp``.

One client (this process) opens two connections to a server running in
a subprocess.  Each connection loads ``csa16``, a carry-skip adder with
real false paths, and answers one warm ``transition`` and one warm
``floating`` query; those records are the session's pre-edit answers.
Each connection then runs the seed's edit script, one request at a time:
``set_delay`` (+1..3 on a live gate), query, revert the edit, query.
Query kinds alternate between ``transition`` and ``floating``.

A pass starts a fresh server, so every pass sees a cold cone cache; the
server start, loads, warm queries and pool spawn are the pass's set-up
and lie outside its timed section.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

CIRCUIT = "csa16"
CONNECTIONS = 2
CYCLES = 50
KINDS = ("transition", "floating")
#: Requeries per pass recomputed from scratch with ``cold_query``.
COLD_CHECKS = 4
SERVE_ARGS = ["--tcp", "127.0.0.1:0", "--jobs", "2", "--workers", "2"]
BUSY_RETRY_S = 0.005
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

HERE = Path(__file__).resolve().parent


@dataclass
class Edit:
    gate: str
    base: int
    delay: int
    kind: str


def live_gates(circuit) -> List[str]:
    """Gates inside some output's fanin cone: an edit elsewhere changes
    no answer, so it would measure nothing."""
    inputs = set(circuit.inputs)
    return sorted(set(circuit.transitive_fanin(circuit.outputs)) - inputs)


class EditStream:
    """The seed's edit sequence, split into one script per connection
    for each pass.  Gates are dealt from successive shuffles of the live
    gates, so every pass edits nearly every gate once and the work per
    pass hardly depends on the seed."""

    def __init__(self, circuit, seed: int) -> None:
        self.circuit = circuit
        self.rng = random.Random(seed)
        self._gates = live_gates(circuit)
        self._deck: List[str] = []

    def _deal(self) -> str:
        if not self._deck:
            self._deck = list(self._gates)
            self.rng.shuffle(self._deck)
        return self._deck.pop()

    def next_pass(self) -> List[List[Edit]]:
        scripts: List[List[Edit]] = [[] for __ in range(CONNECTIONS)]
        for cycle in range(CYCLES):
            for script in scripts:
                gate = self._deal()
                base = self.circuit.node(gate).delay
                script.append(Edit(gate, base, base + self.rng.randint(1, 3),
                                   KINDS[cycle % 2]))
        return scripts


@dataclass
class Sample:
    """One request: client latency and the server's ``elapsed_ms``."""

    op: str
    latency_ms: float
    handle_ms: float


@dataclass
class WhatifPass:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    samples: List[Sample] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Server-side accounting read before shutdown.
    incremental: Dict[str, int] = field(default_factory=dict)
    server: Dict[str, object] = field(default_factory=dict)
    server_trace: Optional[dict] = None


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _proc_tree(pid: int) -> List[int]:
    """``pid`` and its live descendants (Linux ``/proc``)."""
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    stack.extend(int(child) for child in fh.read().split())
            except OSError:
                pass
    return found


def _cpu_s(pids: List[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pids: List[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024.0


class Server:
    """``trued serve`` in a subprocess, traced or not."""

    def __init__(self, src: Path, out_dir: Path, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        self.trace_path: Optional[Path] = None
        if trace:
            self.trace_path = out_dir / f"server-trace-{os.getpid()}.json"
            if self.trace_path.exists():
                self.trace_path.unlink()
            argv = [sys.executable, str(HERE / "traced_server.py"),
                    str(self.trace_path)]
        else:
            argv = [sys.executable, "-m", "repro"]
        self.proc = subprocess.Popen(
            argv + ["serve"] + SERVE_ARGS,
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        # Drain stderr on a thread, so the server never blocks on a full
        # pipe; the first line announces the bound address.
        self.stderr: List[str] = []
        self.address: Optional[Tuple[str, int]] = None
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._announced.wait(START_TIMEOUT_S) or not self.address:
            self.kill()
            raise RuntimeError(
                "trued serve did not announce its address: "
                + "".join(self.stderr[-20:])
            )

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            if self.address is None and line.startswith("serving on tcp://"):
                host, port = line.strip()[len("serving on tcp://"):].rsplit(
                    ":", 1
                )
                self.address = (host, int(port))
                self._announced.set()
        self._announced.set()

    def pids(self) -> List[int]:
        return _proc_tree(self.proc.pid)

    def wait(self) -> None:
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("trued serve did not stop after shutdown")
        self._reader.join(STOP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(
                f"trued serve exited with {code}: "
                + "".join(self.stderr[-20:])
            )

    def kill(self) -> None:
        for pid in reversed(self.pids()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        self._reader.join(STOP_TIMEOUT_S)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.busy = 0

    async def call(self, request: dict) -> Tuple[dict, float]:
        """Send one request, retrying ``busy`` rejections; returns the
        response and the client latency in ms from the first send."""
        line = (json.dumps(request) + "\n").encode()
        start = time.perf_counter()
        while True:
            self.writer.write(line)
            await self.writer.drain()
            response = json.loads(await self.reader.readline())
            if not response.get("busy"):
                break
            self.busy += 1
            await asyncio.sleep(BUSY_RETRY_S)
        return response, (time.perf_counter() - start) * 1000.0

    def close(self) -> None:
        self.writer.close()


def canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


async def _open_session(address, bench: str):
    reader, writer = await asyncio.open_connection(*address, limit=1 << 24)
    connection = Connection(reader, writer)
    response, __ = await connection.call({"op": "load", "bench": bench})
    if not response.get("ok"):
        raise RuntimeError(f"load failed: {response}")
    before = {}
    for kind in KINDS:
        response, __ = await connection.call({"op": "query", "kind": kind})
        if not response.get("ok"):
            raise RuntimeError(f"warm {kind} query failed: {response}")
        before[kind] = canonical(response["result"]["record"])
    return connection, before


async def _run_script(connection: Connection, before: Dict[str, str],
                      script: List[Edit], out: WhatifPass,
                      requeries: List[Tuple[Edit, str]]) -> None:
    """Run one connection's cycles; ``requeries`` gets one (edit,
    record) per requery, in script order."""
    for edit in script:
        for op, delay in (("requery", edit.delay), ("revert", edit.base)):
            busy = connection.busy
            response, latency = await connection.call({
                "op": "edit",
                "edits": [{"op": "set_delay", "name": edit.gate,
                           "delay": delay}],
            })
            out.attempted += 1
            out.samples.append(Sample("edit", latency,
                                      response.get("elapsed_ms", 0.0)))
            if not response.get("ok") or connection.busy != busy:
                out.failures.append(f"edit {edit}: {response}")
            busy = connection.busy
            response, latency = await connection.call(
                {"op": "query", "kind": edit.kind}
            )
            out.attempted += 1
            out.samples.append(Sample(op, latency,
                                      response.get("elapsed_ms", 0.0)))
            if not response.get("ok") or connection.busy != busy:
                out.failures.append(f"{op} {edit}: {response}")
                continue
            record = canonical(response["result"]["record"])
            if op == "requery":
                requeries.append((edit, record))
            elif record != before[edit.kind]:
                out.failures.append(f"revert {edit}: record differs")


async def _stats(connection: Connection, op: str) -> dict:
    response, __ = await connection.call({"op": op})
    if not response.get("ok"):
        raise RuntimeError(f"{op} failed: {response}")
    return response["result"]


def _sum_counters(stats: List[dict]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for item in stats:
        for name, value in item["counters"].items():
            total[name] = total.get(name, 0) + value
    return total


def _server_delta(before: dict, after: dict) -> Dict[str, int]:
    """Timed-section change of the server's admission, coalescing and
    pool accounting."""
    delta = {
        name: after[name] - before[name]
        for name in ("requests", "busy_rejections", "coalesce_hits",
                     "coalesce_leaders")
    }
    for name in ("rounds", "restarts", "degraded_rounds"):
        delta["pool." + name] = (
            after["pool"][name] - before["pool"][name]
        )
    return delta


async def _pass(server: Server, bench: str, scripts, out: WhatifPass,
                requeries) -> None:
    setup0 = time.perf_counter()
    sessions = await asyncio.gather(*(
        _open_session(server.address, bench) for __ in scripts
    ))
    out.setup_s += time.perf_counter() - setup0
    pids = server.pids()
    before = _sum_counters(await asyncio.gather(*(
        _stats(connection, "stats") for connection, __ in sessions
    )))
    server_before = await _stats(sessions[0][0], "server_stats")
    cpu0 = _cpu_s(pids) + time.process_time()
    wall0 = time.perf_counter()
    await asyncio.gather(*(
        _run_script(connection, warm, script, out, done)
        for (connection, warm), script, done in zip(
            sessions, scripts, requeries
        )
    ))
    out.wall_s = time.perf_counter() - wall0
    out.cpu_s = _cpu_s(pids) + time.process_time() - cpu0
    after = _sum_counters(await asyncio.gather(*(
        _stats(connection, "stats") for connection, __ in sessions
    )))
    out.incremental = {
        name: after[name] - before.get(name, 0) for name in after
    }
    out.server = _server_delta(
        server_before, await _stats(sessions[0][0], "server_stats")
    )
    out.peak_rss_mb = _peak_rss_mb(server.pids())
    await sessions[0][0].call({"op": "shutdown"})
    for connection, __ in sessions:
        connection.close()


def setup_whatif(seed: int):
    from repro.circuits import build_circuit
    from repro.network import dumps_bench, loads_bench

    bench = dumps_bench(build_circuit(CIRCUIT))
    # The netlist exactly as the server parses it (name included), for
    # the edit script and the from-scratch answer checks.
    circuit = loads_bench(bench)
    return bench, EditStream(circuit, seed)


def run_whatif(prepared, src: Path, out_dir: Path,
               trace: bool = False) -> WhatifPass:
    """One pass: fresh server, set-up, timed section, answer checks."""
    bench, stream = prepared
    scripts = stream.next_pass()
    out = WhatifPass(0.0, 0.0, 0.0, 0.0)
    # One list per connection, so the sample checked below does not
    # depend on how the two connections interleave.
    requeries: List[List[Tuple[Edit, str]]] = [[] for __ in scripts]
    setup0 = time.perf_counter()
    server = Server(src, out_dir, trace)
    out.setup_s = time.perf_counter() - setup0
    try:
        asyncio.run(_pass(server, bench, scripts, out, requeries))
        server.wait()
    except BaseException:
        server.kill()
        raise
    out.peak_rss_mb += _peak_rss_mb([os.getpid()])
    if server.trace_path is not None:
        out.server_trace = json.loads(server.trace_path.read_text())
        server.trace_path.unlink()
    _check_requeries(stream, [r for done in requeries for r in done], out)
    return out


def _check_requeries(stream: EditStream, requeries,
                     out: WhatifPass) -> None:
    """Recompute a seeded sample of requeries from scratch."""
    from repro.incremental import cold_query

    for edit, record in stream.rng.sample(
        requeries, min(COLD_CHECKS, len(requeries))
    ):
        edited = stream.circuit.copy()
        edited.set_delay(edit.gate, edit.delay)
        cold = cold_query(edited, edit.kind)
        if canonical(cold.record) != record:
            out.failures.append(f"requery {edit}: differs from cold_query")
