"""The ``service_jobs`` workload: a closed-loop load generator over HTTP.

The server runs in its own process, started as ``python -m repro serve``
with its defaults (warm worker pool, job workers) plus a bearer token;
only shared-memory scenario packs are off (see ``Server``).  This process is the load generator:
``CLIENTS`` threads, one keep-alive connection each, and each sends its
next spec only after the previous job's artifact arrived.  A job is
``POST /v1/jobs``, the SSE stream to the terminal event, and
``GET .../artifacts/results.csv``; its latency runs from the submit to
the downloaded artifact.

Specs come as a seeded stream drawn from a pool of 8.  Half the jobs
resubmit a pool spec unchanged, so every scenario is a shared-cache
read; the other half move the whole rho range by a seeded offset, so
every scenario is solved and written to the cache.  Nothing from ``repro`` is
imported while the load runs; the output check imports it afterwards.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
from library import linspace

CLIENTS = 2
TOKEN = "perfbench-token"
AUTH = {"Authorization": f"Bearer {TOKEN}"}
SAMPLE_ROWS = 1
# The load pauses this many times to time the host-speed reference.
SEGMENTS = 6
TERMINAL = ("succeeded", "failed")


def spec_pool(seed: int, configs: list[str]) -> list[dict]:
    """Eight specs: four two-speed grids and four general-schedule sweeps.

    The seed moves each rho range within a narrow band; which
    configurations a spec uses is fixed, so the work per job, and with it
    the figures, do not depend on the seed.
    """
    rng = random.Random(f"pool {seed}")
    pool = []
    for i in range(4):
        start = rng.uniform(1.9, 2.1)
        pool.append({
            "name": f"two-speed-{i}",
            "grid": {"configs": configs[2 * i: 2 * i + 2], "rhos": linspace(start, start + 2.0, 24)},
            "analyses": ["frontier"],
        })
    for i in range(4):
        start = rng.uniform(3.0, 3.2)
        pool.append({
            "name": f"geometric-weibull-{i}",
            "grid": {
                "configs": [configs[i]],
                "rhos": linspace(start, start + 2.5, 48),
                "schedules": ["geom:0.4,1.5,1"],
                "error_models": ["weibull:shape=0.7,mtbf=3e5"],
            },
            "analyses": ["frontier"],
        })
    return pool


def _shifted(spec: dict, offset: float) -> dict:
    grid = dict(spec["grid"], rhos=[r + offset for r in spec["grid"]["rhos"]])
    return dict(spec, grid=grid)


class Server:
    """One ``repro serve`` process (and its pool workers)."""

    def __init__(self, root: Path, env: dict, trace_file: Path | None = None):
        flags = ["--host", "127.0.0.1", "--port", "0", "--token", TOKEN]
        if trace_file is None:
            self.cmd = [sys.executable, "-m", "repro", "serve", *flags]
        else:
            launcher = Path(__file__).with_name("serve_traced.py")
            self.cmd = [sys.executable, str(launcher), str(trace_file), *flags]
        self.root = root
        # Scenario packs travel pickled, not through shared memory: with
        # shared memory on, a few jobs in a thousand fail with
        # FileNotFoundError (a pack's segment is gone mid-plan), a
        # different few each run, so two runs of the same code disagree.
        self.env = dict(env, PYTHONUNBUFFERED="1", REPRO_DISABLE_SHM="1")
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._lines: queue.Queue = queue.Queue()
        self.output: list[str] = []

    def _drain(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line)
            self._lines.put(line)

    def start(self, timeout: float = 60.0) -> float:
        """Boot and wait until ``/healthz`` is ok; returns the seconds taken."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        threading.Thread(target=self._drain, daemon=True).start()
        deadline = t0 + timeout
        while not self.port:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("server printed no listening line") from None
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])
        while time.perf_counter() < deadline:
            try:
                status, body = request(self.connect(), "GET", "/healthz")
                if status == 200 and json.loads(body)["status"] == "ok":
                    return time.perf_counter() - t0
            except OSError:
                pass
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("server never became healthy:\n" + "".join(self.output[-20:]))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def send_signal(self, signum: int) -> None:
        assert self.proc is not None
        self.proc.send_signal(signum)

    def peak_rss_mb(self) -> float:
        """Sum of peak resident memory of the server and its descendants."""
        assert self.proc is not None
        parents: dict[int, int] = {}
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    stat = (entry / "stat").read_text()
                except OSError:
                    continue
                parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(child for child, parent in parents.items() if parent == pid)
        total_kb = 0
        for pid in tree:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT for a graceful drain, then kill the process group if needed."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def request(conn, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
    payload = None if body is None else json.dumps(body).encode()
    headers = dict(AUTH)
    if payload is not None:
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=payload, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


def run_job(server: Server, conn, spec: dict) -> dict:
    """Submit, follow SSE to the terminal event, download the CSV."""
    job: dict = {"error": None}
    t0 = time.perf_counter()
    status, body = request(conn, "POST", "/v1/jobs", spec)
    if status != 202:
        job["error"] = f"http_{status}: POST /v1/jobs"
        return job
    job_id = json.loads(body)["id"]
    stream = server.connect()
    try:
        stream.request("GET", f"/v1/jobs/{job_id}/events", headers=AUTH)
        resp = stream.getresponse()
        if resp.status != 200:
            job["error"] = f"http_{resp.status}: events"
            return job
        event = state = None
        job["artifact_bytes"] = 0
        while state is None:
            line = resp.readline()
            if not line:
                job["error"] = "sse_closed: stream ended before a terminal state"
                return job
            text = line.decode().rstrip("\n")
            if text.startswith("event:"):
                event = text[6:].strip()
            elif text.startswith("data:"):
                data = json.loads(text[5:])
                if event == "result":
                    job["result"] = data
                    job["scenarios"] = data["scenarios"]
                elif event == "artifact":
                    job["artifact_bytes"] += data["size"]
                elif event == "state" and data["state"] in TERMINAL:
                    state = data["state"]
                    if state != "succeeded":
                        # The job document's error reads "<ExceptionType>: <message>".
                        job["error"] = data.get("error") or "job_failed: no error given"
                        return job
    finally:
        stream.close()
    status, body = request(conn, "GET", f"/v1/jobs/{job_id}/artifacts/results.csv")
    job["latency_s"] = time.perf_counter() - t0
    if status != 200:
        job["error"] = f"missing_artifact: http_{status}"
        return job
    job["csv"] = body.decode()
    return job


def _stream(pool: list[dict], rng: random.Random):
    """Seeded (spec, kind) stream: every pool spec once cached and once
    fresh per shuffled round, so the mix does not drift with the seed."""
    deck = [(spec, kind) for spec in pool for kind in ("cached", "fresh")]
    while True:
        rng.shuffle(deck)
        for spec, kind in deck:
            if kind == "fresh":
                spec = _shifted(spec, rng.uniform(1e-7, 1e-4))
            yield spec, kind


def _client(server: Server, stream, deadline: float, jobs: list, first: dict[str, dict]) -> None:
    conn = server.connect()
    while time.perf_counter() < deadline:
        spec, kind = next(stream)
        try:
            job = run_job(server, conn, spec)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            job = {"error": f"{type(exc).__name__}: {exc}"}
            conn.close()
            conn = server.connect()
        job.update(kind=kind, rhos=spec["grid"]["rhos"], done=time.perf_counter())
        if kind == "cached" and "csv" in job and spec["name"] in first:
            # An exact re-submission must reproduce the first run's rows.
            job["same_as"] = first[spec["name"]]["csv"]
        jobs.append(job)
    conn.close()


def stats(server: Server) -> dict:
    status, body = request(server.connect(), "GET", "/v1/stats")
    return json.loads(body) if status == 200 else {}


def measure(server: Server, seed: int, seconds: float, traced: bool = False) -> dict:
    """Warm the cache with the pool, then run the closed loop for ``seconds``.

    The window is cut into ``SEGMENTS`` equal parts.  Before each, the
    load pauses and the host-speed reference is timed with the server
    idle (``refs``); each job carries its segment's (``ref_s``).  The
    warm-up jobs are returned as ``first``: outside the count, but
    checked, and the re-submissions of their specs are held to their rows.
    """
    conn = server.connect()
    status, body = request(conn, "GET", "/v1/configs")
    configs = [c["name"] for c in json.loads(body)["configs"]]
    pool = spec_pool(seed, configs)
    first = {}
    for spec in pool:
        job = run_job(server, conn, spec)
        if not job["error"]:
            first[spec["name"]] = dict(job, kind="first", rhos=spec["grid"]["rhos"])
    conn.close()
    if traced:
        server.send_signal(signal.SIGUSR1)
        time.sleep(0.2)
    before = stats(server)
    streams = [_stream(pool, random.Random(f"client {seed} {i}")) for i in range(CLIENTS)]
    jobs: list[dict] = []
    refs = []
    for _ in range(SEGMENTS):
        # Every client has finished its last job: the server is idle.
        ref_s = hostspeed.reference_s()
        refs.append(ref_s)
        segment: list[dict] = []
        deadline = time.perf_counter() + seconds / SEGMENTS
        threads = [
            threading.Thread(target=_client, args=(server, stream, deadline, segment, first), daemon=True)
            for stream in streams
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Jobs still running at the deadline finish but are not counted.
        jobs += [dict(j, ref_s=ref_s) for j in segment if j["done"] <= deadline]
    after = stats(server)
    return {
        "jobs": jobs,
        "first": list(first.values()),
        "refs": refs,
        "stats_before": before,
        "stats_after": after,
    }
