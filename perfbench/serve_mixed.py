"""The ``serve_mixed`` workload: closed-loop HTTP traffic on ``repro serve``.

The server runs as its own process with default settings and the hot
set ``hilbert@2x256;z@2x256;gray@2x256``.  Set-up creates one dynamic
session per client: 20 000 seeded points on a 2D side-256 Hilbert
universe.  Then two closed-loop keep-alive clients with zero think
time send a seeded mix for ``--seconds``:

* ~50% hot ``POST /sweep``: one cached cell out of hilbert/z/gray on
  2D side 64, 128 or 256 (each cell is requested once before timing);
* cold ``POST /sweep`` of a never-seen ``random:seed=<n>`` on 2D side
  256, sent at a fixed 20 per second (~10% of the mix);
* ~40% ``POST /dynamic/step``: 64 insert/delete/move ops (a third of
  each) against the client's own session.

Checks: every response is a 200; every sweep record has
``davg >= lower_bound``; every response for one hot cell is identical,
and every served cell equals an in-process :class:`repro.engine.Sweep`
of it; every step reports the population the client expects; each
session's last step is sent with ``verify: true`` and must return
``parity: true``.
"""

from __future__ import annotations

import http.client
import json
import random
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    ROOT,
    Outcome,
    child_env,
    cpu_s,
    peak_rss_mib,
    process_cpu_s,
)

HOT_SET = "hilbert@2x256;z@2x256;gray@2x256"
HOT_CURVES = ("hilbert", "z", "gray")
HOT_SIDES = (64, 128, 256)
COLD_SIDE = 256
METRICS = ("davg", "dmax", "lower_bound", "davg_ratio", "lambdas", "nn_mean")
SESSION_SIDE = 256
SESSION_POINTS = 20_000
OPS_PER_STEP = 64
#: Shares of hot sweeps and cold sweeps (the rest are steps).  Cold
#: sweeps are sent on a timer at COLD_PER_S (about COLD_SHARE of the
#: measured rate), not drawn per request: every never-seen cell stays
#: cached in the server, so a fixed count per run keeps the memory
#: they hold independent of how fast the run went.
HOT_SHARE, COLD_SHARE = 0.5, 0.1
COLD_PER_S = 20.0
CLIENTS = 2
#: Set-ups per run; the one that used the least CPU is reported.
SETUPS = 5
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 120.0


def _sweep_body(curve: str, side: int) -> dict:
    return {"universes": [[2, side]], "curves": [curve], "metrics": list(METRICS)}


class Server:
    """One ``repro serve`` process (optionally the traced wrapper)."""

    def __init__(self, env: Dict[str, str], log: Path, spans: Optional[Path]):
        if spans is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [
                sys.executable,
                str(BENCH_DIR / "serve_traced.py"),
                "--spans-out",
                str(spans),
            ]
        argv += ["--port", "0", "--hot-set", HOT_SET]
        self.spans = spans
        self._log = open(log, "a")
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=1.0):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    return int(line.strip().rsplit(":", 1)[1])
        finally:
            selector.close()
        self.stop()
        raise RuntimeError("server did not start listening")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _request(
    conn: http.client.HTTPConnection, method: str, path: str, body=None
) -> Tuple[int, dict]:
    data = None if body is None else json.dumps(body)
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, data, headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class Client:
    """One closed-loop client with its own session and connection."""

    def __init__(self, index: int, seed: int, port: int) -> None:
        self.index = index
        self.session = f"client{index}"
        self.create_seed = seed * 10 + index
        self.rng = random.Random(seed * 1000 + index)
        self.port = port
        self.conn = self._connect()
        self.alive: List[int] = list(range(SESSION_POINTS))
        self.slot: Dict[int, int] = {pid: pid for pid in self.alive}
        self.next_id = SESSION_POINTS
        self.session_ok = True
        self.cold_counter = 0
        self.cold_due = 0.0
        self.seed = seed
        self.latency: Dict[str, List[float]] = {"hot": [], "cold": [], "step": []}
        #: perf_counter of every completed timed request.
        self.done_at: List[float] = []
        self.failures: Dict[str, int] = {}
        self.problems: List[str] = []
        #: Served sweep records: (curve, side) -> list of record dicts.
        self.hot_bodies: Dict[Tuple[str, int], list] = {}
        self.cold_bodies: Dict[str, list] = {}
        self.attempted = 0

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )

    def close(self) -> None:
        self.conn.close()

    def fail(self, kind: str, message: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.problems) < 10:
            self.problems.append(f"{kind}: {message}")

    def call(self, path: str, body: dict) -> Optional[dict]:
        """POST ``body``; the payload of a 200, else ``None`` (counted)."""
        self.attempted += 1
        try:
            status, payload = _request(self.conn, "POST", path, body)
        except socket.timeout:
            self.fail("timeout", path)
            self.conn.close()
            self.conn = self._connect()
            return None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.fail("connection_error", f"{path}: {exc!r}")
            self.conn.close()
            self.conn = self._connect()
            return None
        if status != 200:
            self.fail(f"http_{status}", f"{path}: {payload.get('error')}")
            return None
        return payload

    # -- request kinds ---------------------------------------------------
    def create_session(self) -> None:
        payload = self.call(
            "/dynamic/step",
            {
                "session": self.session,
                "create": {
                    "d": 2,
                    "side": SESSION_SIDE,
                    "curve": "hilbert",
                    "seed_points": SESSION_POINTS,
                    "seed": self.create_seed,
                },
            },
        )
        if payload is None or payload["metrics"]["n_points"] != SESSION_POINTS:
            raise RuntimeError(f"session {self.session} was not created")

    def sweep(self, curve: str, side: int, store: dict, key) -> bool:
        payload = self.call("/sweep", _sweep_body(curve, side))
        if payload is None:
            return False
        records = payload["records"]
        if len(records) != 1 or records[0]["spec"] != curve:
            self.fail("wrong_output", f"{curve}@2x{side}: {len(records)} records")
            return False
        store.setdefault(key, []).append(records[0])
        return True

    def step(self, verify: bool = False) -> bool:
        if not self.session_ok:
            return False
        side, rng = SESSION_SIDE, self.rng
        moves, doomed, inserted = [], set(), 0
        for _ in range(OPS_PER_STEP):
            roll = rng.random()
            if roll < 1 / 3:
                moves.append(
                    {"op": "insert", "coords": [rng.randrange(side), rng.randrange(side)]}
                )
                inserted += 1
                continue
            # Targets must be alive before the batch: the server checks
            # every id against the pre-batch population.
            pid = self.alive[rng.randrange(len(self.alive))]
            while pid in doomed:
                pid = self.alive[rng.randrange(len(self.alive))]
            if roll < 2 / 3:
                doomed.add(pid)
                moves.append({"op": "delete", "id": pid})
            else:
                moves.append(
                    {
                        "op": "move",
                        "id": pid,
                        "coords": [rng.randrange(side), rng.randrange(side)],
                    }
                )
        body = {"session": self.session, "moves": moves}
        if verify:
            body["verify"] = True
        payload = self.call("/dynamic/step", body)
        if payload is None:
            # The server may or may not have applied the batch: the
            # client can no longer predict ids, so it stops stepping.
            self.session_ok = False
            return False
        for pid in doomed:
            last = self.alive.pop()
            if last != pid:
                where = self.slot[pid]
                self.alive[where] = last
                self.slot[last] = where
            del self.slot[pid]
        for pid in range(self.next_id, self.next_id + inserted):
            self.slot[pid] = len(self.alive)
            self.alive.append(pid)
        self.next_id += inserted
        if payload["metrics"]["n_points"] != len(self.alive):
            self.fail(
                "wrong_output",
                f"step n_points {payload['metrics']['n_points']} != "
                f"{len(self.alive)}",
            )
            self.session_ok = False
            return False
        if verify and payload.get("parity") is not True:
            self.fail("wrong_output", f"{self.session}: parity {payload.get('parity')}")
            return False
        return True

    def next_cold_spec(self) -> str:
        """A curve no client has sent before: unique per seed, client
        and request."""
        self.cold_counter += 1
        base = (self.seed * 100 + self.index) * 100_000
        return f"random:seed={base + self.cold_counter}"

    def loop(self, deadline: float) -> None:
        rng = random.Random(self.rng.random())
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            if start >= self.cold_due:
                self.cold_due += CLIENTS / COLD_PER_S
                spec = self.next_cold_spec()
                ok = self.sweep(spec, COLD_SIDE, self.cold_bodies, spec)
                kind = "cold"
            elif rng.random() * (1.0 - COLD_SHARE) < HOT_SHARE:
                curve = HOT_CURVES[rng.randrange(len(HOT_CURVES))]
                side = HOT_SIDES[rng.randrange(len(HOT_SIDES))]
                ok = self.sweep(curve, side, self.hot_bodies, (curve, side))
                kind = "hot"
            elif self.session_ok:
                ok = self.step()
                kind = "step"
            else:
                continue
            if ok:
                end = time.perf_counter()
                self.latency[kind].append(end - start)
                self.done_at.append(end)


def _setup(env, run_dir, seed, spans=None) -> Tuple[Server, List[Client], float]:
    start = time.perf_counter()
    server = Server(env, run_dir.path / "server.log", spans)
    try:
        clients = [Client(i, seed, server.port) for i in range(CLIENTS)]
        for client in clients:
            client.create_session()
    except BaseException:
        server.stop()
        raise
    return server, clients, time.perf_counter() - start


def _stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        status, payload = _request(conn, "GET", "/stats")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return payload


def _phase(server: Server, clients: List[Client], seconds: float):
    """Warm the hot cells, run the timed loop, then the verify steps."""
    for curve in HOT_CURVES:
        for side in HOT_SIDES:
            clients[0].sweep(curve, side, {}, None)
    for client in clients:
        client.latency = {k: [] for k in client.latency}
        client.done_at = []
    before = _stats(server.port)
    cpu = process_cpu_s(server.proc.pid)
    lo = time.perf_counter_ns()
    start = time.perf_counter()
    for client in clients:
        client.cold_due = start
    deadline = start + seconds
    threads = [
        threading.Thread(target=client.loop, args=(deadline,), daemon=True)
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
    hi = time.perf_counter_ns()
    cpu = process_cpu_s(server.proc.pid) - cpu
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client did not finish")
    after = _stats(server.port)
    for client in clients:
        if client.session_ok:
            client.step(verify=True)
        else:
            client.fail("wrong_output", f"{client.session}: no verify step")
        client.close()
    return lo, hi, before, after, cpu


def _check_sweeps(clients: List[Client], out: Outcome) -> int:
    """Served records vs an in-process Sweep; the cold cells checked."""
    from repro import Universe
    from repro.engine.sweep import Sweep
    from repro.serve.schemas import CellRecord

    hot: Dict[Tuple[str, int], list] = {}
    cold: Dict[str, list] = {}
    for client in clients:
        for key, bodies in client.hot_bodies.items():
            hot.setdefault(key, []).extend(bodies)
        cold.update(client.cold_bodies)

    def expected(universes, curves) -> Dict[Tuple[str, int], dict]:
        result = Sweep(
            universes=[Universe(d=2, side=s) for s in universes],
            curves=list(curves),
            metrics=METRICS,
            reports=False,
        ).run()
        return {
            (r.spec, r.side): json.loads(json.dumps(CellRecord.from_record(r).to_dict()))
            for r in result.records
        }

    want = expected(HOT_SIDES, HOT_CURVES)
    if cold:
        want.update(expected((COLD_SIDE,), sorted(cold)))
    served = [((c, s), b) for (c, s), bodies in hot.items() for b in bodies]
    served += [((spec, COLD_SIDE), b) for spec, bodies in cold.items() for b in bodies]
    for key, body in served:
        values = body["values"]
        if not values["davg"] >= values["lower_bound"]:
            out.fail("wrong_output", f"{key}: davg below the lower bound")
        if body != want.get(key):
            out.fail("wrong_output", f"{key}: response differs from Sweep")
    return len(cold)


def _collect(clients: List[Client], out: Outcome) -> Dict[str, List[float]]:
    latency: Dict[str, List[float]] = {"hot": [], "cold": [], "step": []}
    for client in clients:
        out.attempted += client.attempted
        for kind, count in client.failures.items():
            out.failures[kind] = out.failures.get(kind, 0) + count
        out.problems.extend(client.problems)
        for kind, values in client.latency.items():
            latency[kind].extend(values)
    return latency


def _cache_delta(before: dict, after: dict) -> Dict[str, float]:
    def total(payload, key):
        value = payload["cache"][key]
        return sum(value.values()) if isinstance(value, dict) else value

    out = {}
    for key in ("computes", "hits", "mmap", "shared", "derived", "evictions"):
        out[f"engine.context.{key}"] = total(after, key) - total(before, key)
    out["serve.service.rejected"] = (
        after["counters"]["rejected"] - before["counters"]["rejected"]
    )
    return out


def run_serve_workload(seed: int, seconds: float, trace: bool, run_dir) -> Outcome:
    out = Outcome()
    env = child_env(run_dir.tmp)

    if not trace:
        setups: List[float] = []
        setup_cpu: List[float] = []
        server = None
        for _ in range(SETUPS):
            if server is not None:
                for client in clients:
                    client.close()
                server.stop()
            cpu = cpu_s()
            server, clients, elapsed = _setup(env, run_dir, seed)
            setups.append(elapsed)
            setup_cpu.append(cpu_s() - cpu + process_cpu_s(server.proc.pid))
        try:
            lo, hi, before, after, server_cpu = _phase(server, clients, seconds)
        finally:
            server.stop()
        # Read before the in-process reference Sweep of _check_sweeps,
        # whose memory is not the workload's.
        peak = peak_rss_mib()
        out.backends = dict(after["cache"]["backends"])
        latency = _collect(clients, out)
        cold_cells = _check_sweeps(clients, out)
        wall = (hi - lo) / 1e9
        requests = sum(len(v) for v in latency.values())
        out.metrics = {
            "setup_s": min(setup_cpu),
            "peak_rss_mib": peak,
            "ok_ratio": 1.0 - out.failed / max(out.attempted, 1),
            "cpu_ms_per_op": 1e3 * server_cpu / max(requests, 1),
        }
        out.report.update(
            setup_wall_s=setups,
            setup_cpu_s=setup_cpu,
            server_cpu_s=server_cpu,
            latency=latency,
            wall_s=wall,
            requests={k: len(v) for k, v in latency.items()},
            cold_cells=cold_cells,
            server_counters=after["counters"],
        )
        return out

    # -- traced run: an untraced server, then the traced wrapper ---------
    from layers import layer_metrics

    server, clients, _ = _setup(env, run_dir, seed)
    try:
        lo, hi, _, _, _ = _phase(server, clients, seconds / 2)
    finally:
        server.stop()
    plain_rate = sum(len(v) for c in clients for v in c.latency.values()) / (
        (hi - lo) / 1e9
    )
    _collect(clients, out)
    _check_sweeps(clients, out)

    spans = run_dir.path / "spans.json"
    server, clients, _ = _setup(env, run_dir, seed, spans)
    try:
        lo, hi, before, after, _ = _phase(server, clients, seconds / 2)
        Path(str(spans) + ".window").write_text(json.dumps({"lo": lo, "hi": hi}))
    finally:
        server.stop()
    out.backends = dict(after["cache"]["backends"])
    latency = _collect(clients, out)
    _check_sweeps(clients, out)
    summary = json.loads(spans.read_text())
    requests = sum(len(v) for v in latency.values())
    cache = {
        key: value / max(requests, 1)
        for key, value in _cache_delta(before, after).items()
    }
    metrics = layer_metrics(summary, requests, cache)
    traced_rate = requests / ((hi - lo) / 1e9)
    client_total = sum(sum(v) for v in latency.values())
    dispatch_total = summary["total_s"].get("serve.app.dispatch", 0.0)
    metrics["trace.overhead_ratio"] = plain_rate / traced_rate - 1.0
    metrics["trace.self_sum_ratio"] = (
        dispatch_total / client_total if client_total else 0.0
    )
    metrics["trace.unattributed_ratio"] = (
        summary["self_s"].get("serve.app.dispatch", 0.0) / dispatch_total
        if dispatch_total
        else 0.0
    )
    out.metrics = metrics
    out.report.update(
        untraced_req_per_s=plain_rate,
        traced_req_per_s=traced_rate,
        queue_wait_samples=len(
            summary["samples"].get("serve.batching.queue_wait_ms", [])
        ),
    )
    return out
