"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.serve import wire  # noqa: E402

from perfbench import loadgen, run  # noqa: E402
from perfbench.serverproc import (  # noqa: E402
    ServerProcess,
    kill_all,
    request_json,
)
from perfbench.workloads import (  # noqa: E402
    DOC,
    TINY_SPECS,
    Request,
    build_inputs,
    expected_matches,
)


@pytest.fixture
def work(tmp_path):
    yield tmp_path
    kill_all()


def _frames(inputs):
    frames = list(inputs.setup_frames)
    frames += [r.frame for queue in inputs.closed for r in queue]
    frames += [r.frame for r in inputs.open_loop]
    frames += [r.frame for r in inputs.probe]
    return frames, [r.due for r in inputs.open_loop]


@pytest.mark.parametrize("name", sorted(TINY_SPECS))
def test_tiny_run_passes_every_check(name, work):
    m = run.measure(TINY_SPECS[name], seed=3, seconds=1.5, work=work,
                    setups=1, recoveries=1, traced=False)
    assert m["failed"] == 0, m["failures"]
    assert m["latencies"] and m["sub_latencies"]
    metrics = run.end_to_end(m)
    assert set(metrics) == set(run.declared_units(trace=False))
    assert all(value > 0 for value in metrics.values()), metrics
    assert metrics["ok_frac"] == 1.0


def test_tiny_traced_run_reconciles_layers(work):
    spec = TINY_SPECS["feed"]
    (work / "plain").mkdir()
    (work / "traced").mkdir()
    plain = run.measure(spec, 4, 1.5, work / "plain", 1, 1, traced=False)
    traced = run.measure(spec, 4, 1.5, work / "traced", 1, 1, traced=True)
    values, rows = run.per_layer(plain, traced)
    assert set(values) == set(run.declared_units(trace=True))
    assert values["matching.matches_per_doc"] > 0
    assert values["core.pipeline.execute_us_per_doc"] > 0
    assert values["serve.wire.decode_us_per_doc"] > 0
    # The rows, unexplained included, add up to the traced mean.
    total = rows[-1][1]
    assert sum(ms for _row, ms, _share in rows[:-1]) == pytest.approx(total)


def test_same_seed_same_frames_other_seed_other_frames():
    spec = TINY_SPECS["churn"]
    a, due_a = _frames(build_inputs(spec, 5, 1.0))
    b, due_b = _frames(build_inputs(spec, 5, 1.0))
    c, due_c = _frames(build_inputs(spec, 6, 1.0))
    assert a == b and due_a == due_b
    assert a != c and due_a != due_c


def _plan_payload(matched):
    enc = wire.WireEncoder()
    enc.u8(wire.STATUS_OK)
    wire.encode_plan_summary(enc, sorted(matched), 1, 1)
    return bytes(enc.buf)


def test_oracle_rejects_a_planted_wrong_match():
    inputs = build_inputs(TINY_SPECS["feed"], 7, 1.0)
    request = next(r for r in inputs.open_loop if r.kind == DOC)
    expected = expected_matches(inputs, inputs.docs[request.docs[0]])
    assert expected
    good = loadgen.Outcome(request, 0.0, 0.0, 0.001, _plan_payload(expected))
    checker = run.Checker(inputs)
    checker.check([good])
    assert checker.failed == 0
    unrelated = next(p.filter_id for p in inputs.filters
                     if p.filter_id not in expected)
    for wrong in (expected | {unrelated}, set(list(expected)[1:])):
        bad = loadgen.Outcome(request, 0.0, 0.0, 0.001, _plan_payload(wrong))
        checker = run.Checker(inputs)
        checker.check([bad])
        assert checker.failed == 1


class StallingServer:
    """A fake binary-protocol server that stalls before its first answer.

    It answers requests strictly in order, like the real server does on
    one connection, so a stall holds back everything queued behind it.
    """

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            buf = b""
            while not buf.endswith(b"\n"):
                buf += conn.recv(64)
            conn.sendall(wire.HELLO_ACK)
            first = True
            buf = b""
            while True:
                while len(buf) < 4 or len(buf) < 4 + wire.split_header(
                        buf[:4]):
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                buf = buf[4 + wire.split_header(buf[:4]):]
                if first:
                    time.sleep(self.stall)
                    first = False
                conn.sendall(wire.pack_length(1) + bytes([wire.STATUS_OK]))

    def close(self) -> None:
        self.listener.close()


def test_stall_shows_in_open_loop_latency_timed_from_due():
    server = StallingServer(stall=0.3)
    conn = loadgen.Connection(server.port)
    try:
        requests = [Request(DOC, wire.pack_length(1) + b"\x01", 0,
                            due=0.01 * i) for i in range(20)]
        outcomes = loadgen.open_loop([conn], requests)
    finally:
        conn.close()
        server.close()
    assert [o.request for o in outcomes] == requests
    # Sent on schedule, not held back by the stalled first answer ...
    assert max(o.send - o.due for o in outcomes) < 0.1
    # ... so every request due during the stall waited for it, counted
    # from its due time: the one due at 0.1 s still waits ~0.2 s.
    assert outcomes[10].latency > 0.15
    assert sum(o.latency for o in outcomes) / len(outcomes) > 0.1


def test_shutdown_after_closing_connections_logs_no_traceback(work):
    spec = TINY_SPECS["feed"]
    inputs = build_inputs(spec, 8, 0.5)
    server = ServerProcess(spec, work / "wal", work / "server.log")
    conns = [loadgen.Connection(server.port) for _ in range(2)]
    for frame in inputs.setup_frames:
        conns[0].roundtrip(frame)
    request_json(conns[0], {"op": "finalize"})
    loadgen.closed_loop(conns, inputs.closed, 0.3)
    for conn in conns:
        conn.close()
    assert server.shutdown() == 0
    log = (work / "server.log").read_text()
    assert "CancelledError" not in log and "Traceback" not in log
