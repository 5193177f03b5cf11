"""Start, stop and inspect the server process under test.

The server is the real ``python -m repro serve`` in its own process,
with its WAL on disk, built from the checkout's ``src/``.  The traced
run starts :mod:`perfbench.traced_server` instead, which wraps public
functions and then runs the very same ``serve`` command.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.serve import wire

from .loadgen import Connection, LoadError
from .workloads import TABLE_SEED, Spec, json_frame

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_SERVER = Path(__file__).resolve().parent / "traced_server.py"

#: Seconds a server may take to print its READY line (a bulk recovery
#: unpickles a ~26 MB snapshot and replays the WAL tail first).
READY_TIMEOUT_S = 120.0

#: The CPUs the benchmark may use.  With two or more, the server gets
#: the last one and the generator the rest: left to the scheduler, the
#: placement changed from run to run and with it the wake-up cost of
#: every request.
CPUS = sorted(os.sched_getaffinity(0))


def pin_generator() -> None:
    """Keep the load generator off the server's CPU."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, CPUS[:-1])


def _pin_server() -> None:
    # Runs in the child between fork and exec.
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, CPUS[-1:])


#: Every server this process started and has not reaped yet.
_LIVE: List["ServerProcess"] = []


def kill_all() -> None:
    """``kill -9`` and reap every server still running."""
    while _LIVE:
        _LIVE[-1].kill()


class ServerProcess:
    """One ``repro serve`` process: spawn, READY, kill or shut down."""

    def __init__(
        self,
        spec: Spec,
        wal_dir: Path,
        log_path: Path,
        spans_out: Optional[Path] = None,
    ) -> None:
        args: List[str] = [
            "serve", "--port", "0",
            "--nodes", str(spec.nodes),
            "--capacity", str(spec.capacity),
            "--seed", str(TABLE_SEED),
            "--wal-dir", str(wal_dir),
        ]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(TRACED_SERVER),
                       "--spans-out", str(spans_out), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = "0"
        self.spans_out = spans_out
        self.log_path = log_path
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=env,
            stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=_pin_server,
        )
        _LIVE.append(self)
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.startswith(b"READY"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                self.kill()
                raise LoadError("server did not print READY in time")
            line = self.proc.stdout.readline()
            if not line:
                self.kill()
                raise LoadError(
                    f"server exited before READY (see {self.log_path})"
                )
        fields = dict(
            part.split("=", 1) for part in line.decode().split()[1:]
        )
        return int(fields["port"])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        """VmHWM of the live server, in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise LoadError("no VmHWM in /proc status")

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._close_pipes()

    def shutdown(self, timeout: float = 60.0) -> int:
        """Graceful stop by ``SIGTERM``; returns the exit code.

        Callers close every connection first and the signal replaces a
        ``shutdown`` request: a connection still open when the server
        drains has its handler cancelled mid-read, which logs a
        ``CancelledError`` traceback.
        """
        time.sleep(0.1)  # let the server see the connections' EOFs
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self._close_pipes()
        return code

    def dump_spans(self, timeout: float = 60.0) -> dict:
        """Ask the traced launcher for its spans (SIGUSR1) and load them."""
        assert self.spans_out is not None
        if self.spans_out.exists():
            self.spans_out.unlink()
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.spans_out.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise LoadError("traced server wrote no span dump")
            time.sleep(0.05)
        with open(self.spans_out) as handle:
            return json.load(handle)

    def _close_pipes(self) -> None:
        if self in _LIVE:
            _LIVE.remove(self)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def request_json(conn: Connection, request: dict) -> dict:
    """One JSON-envelope op over a binary connection."""
    payload = conn.roundtrip(json_frame(wire.WireEncoder(), request))
    dec = wire.WireDecoder(payload)
    if dec.u8() != wire.STATUS_OK:
        raise LoadError(f"{request['op']} failed: {wire.decode_error(dec)}")
    response = json.loads(dec.string())
    if not response.get("ok"):
        raise LoadError(f"{request['op']} failed: {response}")
    return response


def prometheus_values(text: str) -> dict:
    """``name -> value`` for the plain samples of a metrics scrape."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values
