"""Launch, probe and stop the served deployment (``server.py``)."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Set

from harness import http_get

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pss_mb(pid: int) -> float:
    """Proportional set size of one process, from ``smaps_rollup``."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss line for pid {pid}")


@contextmanager
def pinned(pids: List[int], cpus: Set[int]):
    """Run every thread of ``pids`` on ``cpus`` inside the block."""
    old = {}
    for pid in pids:
        for tid in map(int, os.listdir(f"/proc/{pid}/task")):
            try:
                old[tid] = os.sched_getaffinity(tid)
                os.sched_setaffinity(tid, cpus)
            except ProcessLookupError:  # the thread ended meanwhile
                pass
    try:
        yield
    finally:
        for tid, previous in old.items():
            try:
                os.sched_setaffinity(tid, previous)
            except ProcessLookupError:
                pass


def _group_alive(proc: subprocess.Popen) -> bool:
    proc.poll()  # reap the leader so a zombie does not count as alive
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return False
    return True


class Deployment:
    """One running ``server.py`` process tree and its control channel."""

    def __init__(
        self,
        shards: Dict[str, str],
        work_dir: Path,
        trace: bool = False,
        route_delay_ms: float = 0.0,
    ) -> None:
        self.shards = shards
        self.work_dir = work_dir
        self.trace = trace
        self.route_delay_ms = route_delay_ms
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.info: Dict = {}

    def start(self, timeout_s: float = 90.0) -> float:
        """Launch and wait for ``/healthz`` 200; returns the set-up seconds."""
        cmd = [sys.executable, str(HERE / "server.py"),
               "--trace", str(int(self.trace))]
        if self.route_delay_ms:
            cmd += ["--route-delay-ms", str(self.route_delay_ms)]
        for city, path in sorted(self.shards.items()):
            cmd += ["--shard", f"{city}={path}"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        log = open(self.work_dir / "server.log", "ab")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            env=env, cwd=str(ROOT), start_new_session=True, text=True,
        )
        log.close()
        self.info = self._read_line(timeout_s)
        self.port = self.info["port"]
        while True:
            status, _body = asyncio.run(
                http_get("127.0.0.1", self.port, "/healthz")
            )
            if status == 200:
                break
            if time.monotonic() - started > timeout_s:
                raise RuntimeError("deployment never reported healthy")
            time.sleep(0.01)
        return time.monotonic() - started

    def _read_line(self, timeout_s: float) -> Dict:
        result: List[str] = []
        reader = threading.Thread(
            target=lambda: result.append(self.proc.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout_s)
        if not result or not result[0]:
            raise RuntimeError(
                "server gave no reply; see "
                f"{self.work_dir / 'server.log'}"
            )
        return json.loads(result[0])

    def command(self, timeout_s: float = 120.0, **payload) -> Dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self._read_line(timeout_s)

    def pids(self) -> Dict[str, int]:
        """The front end's and each worker's process id."""
        return {"frontend": self.info["pid"], **self.info["worker_pids"]}

    def pss_mb(self) -> Dict[str, float]:
        """PSS of the front end and of each worker (shared pages split)."""
        return {name: pss_mb(pid) for name, pid in self.pids().items()}

    def metrics(self) -> Dict:
        status, body = asyncio.run(http_get("127.0.0.1", self.port, "/metrics"))
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        return json.loads(body)

    def stop(self) -> None:
        """Stop the server and every process in its group; wait for all."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        try:
            if proc.poll() is None:
                proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                proc.stdin.flush()
                proc.wait(10.0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        # The server, its shard workers and multiprocessing's helper
        # share one process group: wait until none of them is left.
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if not _group_alive(proc):
                break
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + 5.0
            while _group_alive(proc) and time.monotonic() < deadline:
                time.sleep(0.02)
        proc.wait(5.0)
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
