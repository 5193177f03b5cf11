"""The load generator: binary protocol v3 over at most two sockets.

One process, one thread, a ``selectors`` loop.  Frames are encoded
before any clock starts (see :mod:`perfbench.workloads`); here they are
only written and their responses read back, so the generator's own cost
per request is a socket write, a socket read and a clock read.

- :func:`closed_loop` -- each connection sends its next request only
  after the previous one is acked, in lockstep rounds over both
  connections;
- :func:`open_loop` -- requests go out at their scheduled due times
  whatever is outstanding (pipelined on the connection), and each is
  timed from when it was *due*, so a stall also charges the requests
  queued behind it.  How late the generator itself ran is recorded as
  ``send - due``.

Responses are kept as raw payload bytes; decoding and the output checks
happen after the phase, off the clock.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence

from repro.serve import wire

from .workloads import PING_FRAME, Request

#: A response slower than this fails its request and aborts the phase.
REQUEST_TIMEOUT_S = 60.0


class LoadError(RuntimeError):
    """The server went away or stopped answering."""


@dataclass
class Outcome:
    """Timing and response of one sent request."""

    request: Request
    due: float
    send: float
    recv: float = 0.0
    payload: bytes = b""

    @property
    def ok(self) -> bool:
        return bool(self.payload) and self.payload[0] == wire.STATUS_OK

    @property
    def latency(self) -> float:
        return self.recv - self.due


class Connection:
    """One negotiated binary connection with a FIFO of in-flight sends."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(wire.HELLO)
        line = b""
        while not line.endswith(b"\n"):
            chunk = sock.recv(64)
            if not chunk:
                raise LoadError("server closed during the hello")
            line += chunk
        if line != wire.HELLO_ACK:
            raise LoadError(f"binary protocol refused: {line!r}")
        sock.setblocking(False)
        self.sock = sock
        self.inflight: Deque[Outcome] = deque()
        self._rbuf = bytearray()
        self._wbuf = bytearray()
        self.bytes_sent = 0
        self.bytes_received = 0

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    # -- non-blocking io --------------------------------------------------

    def send(self, outcome: Outcome) -> None:
        frame = outcome.request.frame
        self.inflight.append(outcome)
        self.bytes_sent += len(frame)
        if self._wbuf:
            self._wbuf += frame
            return
        try:
            sent = self.sock.send(frame)
        except BlockingIOError:
            sent = 0
        if sent < len(frame):
            self._wbuf += frame[sent:]

    @property
    def wants_write(self) -> bool:
        return bool(self._wbuf)

    def flush(self) -> None:
        if not self._wbuf:
            return
        try:
            sent = self.sock.send(self._wbuf)
        except BlockingIOError:
            return
        del self._wbuf[:sent]

    def receive(self) -> List[Outcome]:
        """Read what is available; return the requests it completed."""
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not chunk:
            raise LoadError("server closed the connection")
        now = time.perf_counter()
        self.bytes_received += len(chunk)
        buf = self._rbuf
        buf += chunk
        done: List[Outcome] = []
        while len(buf) >= 4:
            length = wire.split_header(bytes(buf[:4]))
            if len(buf) < 4 + length:
                break
            outcome = self.inflight.popleft()
            outcome.recv = now
            outcome.payload = bytes(buf[4:4 + length])
            del buf[:4 + length]
            done.append(outcome)
        return done

    # -- blocking round trip (set-up, control ops) -----------------------

    def roundtrip(self, frame: bytes) -> bytes:
        """Send one frame, wait for its response payload."""
        return sequential(self, [Request("ctl", frame, 0)])[0].payload


def _select_loop(
    conns: Sequence[Connection],
    sel: selectors.BaseSelector,
    timeout: float,
) -> List[Outcome]:
    for index, conn in enumerate(conns):
        events = selectors.EVENT_READ
        if conn.wants_write:
            events |= selectors.EVENT_WRITE
        sel.modify(conn.sock, events, index)
    done: List[Outcome] = []
    for key, events in sel.select(timeout):
        conn = conns[key.data]
        if events & selectors.EVENT_WRITE:
            conn.flush()
        if events & selectors.EVENT_READ:
            done.extend(conn.receive())
    return done


def _selector(conns: Sequence[Connection]) -> selectors.BaseSelector:
    sel = selectors.DefaultSelector()
    for index, conn in enumerate(conns):
        sel.register(conn.sock, selectors.EVENT_READ, index)
    return sel


def _await_acks(
    conns: Sequence[Connection], sel: selectors.BaseSelector
) -> None:
    deadline = time.perf_counter() + REQUEST_TIMEOUT_S
    while any(conn.inflight for conn in conns):
        if _select_loop(conns, sel, 0.05):
            deadline = time.perf_counter() + REQUEST_TIMEOUT_S
        elif time.perf_counter() > deadline:
            raise LoadError("no response within timeout")


def sequential(conn: Connection, requests: Sequence[Request]) -> List[Outcome]:
    """One connection, each request sent once the previous one is acked."""
    sel = _selector([conn])
    results: List[Outcome] = []
    try:
        for request in requests:
            now = time.perf_counter()
            outcome = Outcome(request, now, now)
            results.append(outcome)
            conn.send(outcome)
            _await_acks([conn], sel)
    finally:
        sel.close()
    return results


def closed_loop(
    conns: Sequence[Connection],
    queues: Sequence[Sequence[Request]],
    seconds: float,
) -> List[Outcome]:
    """Closed loop in lockstep rounds until ``seconds`` have passed.

    Each round sends the next request of every connection's queue
    (wrapping around) and ends when all of them are acked.  Left to run
    free, two closed-loop connections settle into one of two stable
    modes -- their requests sharing one commit window or alternating --
    and throughput differed by 1.4x between runs depending on which
    mode the first requests fell into.
    """
    sel = _selector(conns)
    results: List[Outcome] = []
    cursor = 0
    stop_at = time.perf_counter() + seconds
    try:
        while time.perf_counter() < stop_at:
            for conn, queue in zip(conns, queues):
                request = queue[cursor % len(queue)]
                now = time.perf_counter()
                outcome = Outcome(request, now, now)
                results.append(outcome)
                conn.send(outcome)
            cursor += 1
            _await_acks(conns, sel)
    finally:
        sel.close()
    return results


def open_loop(
    conns: Sequence[Connection], requests: Sequence[Request]
) -> List[Outcome]:
    """Send each request at its due time; time it from that due time."""
    sel = _selector(conns)
    results: List[Outcome] = []
    start = time.perf_counter()
    n = len(requests)
    i = 0
    last_progress = start
    try:
        while i < n or any(conn.inflight for conn in conns):
            now = time.perf_counter()
            while i < n and start + requests[i].due <= now:
                request = requests[i]
                outcome = Outcome(request, start + request.due, now)
                results.append(outcome)
                conns[request.conn].send(outcome)
                i += 1
                now = time.perf_counter()
            timeout = 0.05
            if i < n:
                timeout = min(timeout, max(0.0, start + requests[i].due - now))
            if _select_loop(conns, sel, timeout):
                last_progress = time.perf_counter()
            elif (
                any(conn.inflight for conn in conns)
                and time.perf_counter() - last_progress > REQUEST_TIMEOUT_S
            ):
                raise LoadError("open loop: no response within timeout")
    finally:
        sel.close()
    return results


def ping_rtts(conn: Connection, count: int, rate: float) -> List[float]:
    """Round trips of ``ping`` sent open loop at ``rate`` per second.

    The ping op touches no runtime state: its round trip is the socket,
    event-loop and framing cost, including waking an idle server, which
    is what an open-loop request pays too.
    """
    requests = [Request("ping", PING_FRAME, 0, due=k / rate)
                for k in range(count)]
    return [o.recv - o.send for o in open_loop([conn], requests)]
