#!/usr/bin/env python3
"""Out-of-process benchmark of ``python -m repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload feed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # feed, bulk, churn

One run of a workload:

1. builds every input and pre-encodes every frame: the workload's fixed
   subscription table, and documents, arrival times and the churn
   schedule drawn from ``--seed``;
2. sets the server up ``SETUPS`` times (spawn -> subscribe the table ->
   finalize -> checkpoint, all acked) and keeps the last one;
3. a closed-loop phase on two connections, then a checkpoint, then a
   seeded-Poisson open-loop phase at the workload's fixed rate (each
   request timed from when it was due), then a paced subscription probe
   on the workloads without subscription traffic of their own;
4. ``kill -9`` and ``RECOVERIES`` reboots on the same WAL, each timed
   until the server answers ``ping``;
5. checks every acked document's matches against the benchmark's own
   any-term oracle and the recovered state against the pre-kill state.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1`` (which adds a traced run and
prints the layer table).  A failed check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"perfbench: no repro sources under {ROOT / 'src'}",
          file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.serve import wire  # noqa: E402

from perfbench import host, layers, loadgen  # noqa: E402
from perfbench.serverproc import (  # noqa: E402
    ServerProcess,
    kill_all,
    pin_generator,
    prometheus_values,
    request_json,
)
from perfbench.workloads import (  # noqa: E402
    CHECKPOINT,
    DOC,
    PING_FRAME,
    SPECS,
    SUB,
    UNSUB,
    build_inputs,
    expected_matches,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Reboots after ``kill -9`` per run; ``recovery_s`` is their median.
RECOVERIES = 2
#: Share of ``--seconds`` spent in the closed-loop phase.
CLOSED_SHARE = 0.3
#: ``ingest_per_s`` is the median rate over this many equal windows of
#: the closed loop, so a short burst of host noise moves one window.
RATE_WINDOWS = 8
#: Closed-loop warm-up before the measured closed loop, seconds.
WARMUP_S = 0.5
PING_SAMPLES = 100
PING_RATE = 200.0
WORK_DIR = ROOT / ".perfbench_work"


class CheckFailed(Exception):
    pass


def _median(values):
    return statistics.median(values) if values else 0.0


def _decode_plans(request, payload: bytes):
    dec = wire.WireDecoder(payload)
    dec.u8()
    if len(request.docs) == 1:
        return [wire.decode_plan_summary(dec)]
    return wire.decode_plans(dec)


class Checker:
    """Output checks, run after the phases (off the clock)."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.static = inputs.static_ids
        self.pool_terms = {p.filter_id: p.terms for p in inputs.pool}
        self.expected = {}
        #: Server-side seconds of each open-loop checkpoint.
        self.checkpoint_seconds = []
        self.failures = []
        self.failed = 0

    def _expect(self, index: int):
        cached = self.expected.get(index)
        if cached is None:
            cached = expected_matches(self.inputs, self.inputs.docs[index])
            self.expected[index] = cached
        return cached

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def check(self, outcomes, churned=False) -> list:
        """Validate ``outcomes``; returns the decoded plans of documents."""
        plans_out = []
        for outcome in outcomes:
            request = outcome.request
            if not outcome.ok:
                dec = wire.WireDecoder(outcome.payload)
                dec.u8()
                self.fail(f"{request.kind} refused: {wire.decode_error(dec)}")
                continue
            if request.kind == DOC:
                plans = _decode_plans(request, outcome.payload)
                if len(plans) != len(request.docs):
                    self.fail("plan count mismatch")
                    continue
                ok = True
                for index, plan in zip(request.docs, plans):
                    doc = self.inputs.docs[index]
                    matched = set(plan["matched"])
                    static = matched & self.static
                    if static != self._expect(index):
                        ok = False
                    extra = matched - static
                    if extra and not churned:
                        ok = False
                    for filter_id in extra:
                        terms = self.pool_terms.get(filter_id)
                        if terms is None or not (terms & doc.terms):
                            ok = False
                    plans_out.append(plan)
                if not ok:
                    self.fail(f"wrong matches for {doc.doc_id}")
            elif request.kind == SUB:
                dec = wire.WireDecoder(outcome.payload)
                dec.u8()
                ids = [dec.string() for _ in range(dec.varint())]
                if ids != [request.filter_id]:
                    self.fail(f"subscribe answered {ids}")
            elif request.kind in (UNSUB, CHECKPOINT):
                dec = wire.WireDecoder(outcome.payload)
                dec.u8()
                response = json.loads(dec.string())
                if not response.get("ok"):
                    self.fail(f"{request.kind} failed: {response}")
                elif request.kind == CHECKPOINT:
                    self.checkpoint_seconds.append(response["seconds"])
        return plans_out


def _setup(spec, inputs, work: Path, index: int, spans_out=None):
    """One set-up: spawn, subscribe, finalize, checkpoint; all acked."""
    wal = work / f"wal{index}"
    server = ServerProcess(spec, wal, work / "server.log", spans_out)
    conn = loadgen.Connection(server.port)
    subscribed = 0
    for frame in inputs.setup_frames:
        payload = conn.roundtrip(frame)
        dec = wire.WireDecoder(payload)
        if dec.u8() != wire.STATUS_OK:
            raise CheckFailed(f"setup subscribe refused: "
                              f"{wire.decode_error(dec)}")
        subscribed += dec.varint()
    request_json(conn, {"op": "finalize"})
    snapshot = request_json(conn, {"op": "checkpoint"})
    elapsed = time.perf_counter() - server.started
    if subscribed != len(inputs.filters):
        raise CheckFailed(f"setup subscribed {subscribed} of "
                          f"{len(inputs.filters)} filters")
    return server, conn, wal, elapsed, snapshot["bytes"]


def _wal_counters(conn) -> tuple:
    values = prometheus_values(request_json(conn, {"op": "metrics"})["metrics"])
    fsyncs = values.get("repro_serve_wal_fsyncs", 0.0)
    records = values.get("repro_serve_wal_records_per_fsync", 0.0) * fsyncs
    return fsyncs, records


def measure(spec, seed: int, seconds: float, work: Path, setups: int,
            recoveries: int, traced: bool) -> dict:
    """One full run of a workload; returns raw figures and checks."""
    closed_s = seconds * CLOSED_SHARE
    open_s = seconds - closed_s
    inputs = build_inputs(spec, seed, open_s)
    checker = Checker(inputs)
    steal_before = host.cpu_times()
    fsync_us = host.fsync_probe_us(work)

    setup_times = []
    spans_out = work / "spans.json" if traced else None
    for i in range(setups):
        last = i == setups - 1
        server, conn, wal, elapsed, snapshot_bytes = _setup(
            spec, inputs, work, i, spans_out if last else None)
        setup_times.append(elapsed)
        if not last:
            conn.close()
            server.kill()
            shutil.rmtree(wal, ignore_errors=True)

    conns = [conn, loadgen.Connection(server.port)]
    ping_rtt = _median(loadgen.ping_rtts(conns[0], PING_SAMPLES, PING_RATE))
    loadgen.closed_loop(conns, inputs.closed, WARMUP_S)
    closed = loadgen.closed_loop(conns, inputs.closed, closed_s)
    request_json(conns[0], {"op": "checkpoint"})
    fsyncs0, records0 = _wal_counters(conns[0])
    bytes0 = [(c.bytes_sent, c.bytes_received) for c in conns]
    opened = loadgen.open_loop(conns, inputs.open_loop)
    open_window = (opened[0].send, max(o.recv for o in opened))
    bytes1 = [(c.bytes_sent, c.bytes_received) for c in conns]
    fsyncs1, records1 = _wal_counters(conns[0])
    probe = loadgen.open_loop(conns[:1], inputs.probe)
    stats = request_json(conns[0], {"op": "stats"})["stats"]
    peak_rss = server.peak_rss_mb()
    dump = server.dump_spans() if traced else None
    for c in conns:
        c.close()
    server.kill()

    # Acked documents, counted before any check: recovery must hold them.
    acked_docs = sum(
        len(o.request.docs) for o in (*closed, *opened)
        if o.request.kind == DOC and o.ok)

    recovery_times = []
    recovery_internal = []
    replayed = []
    for i in range(recoveries):
        boot = ServerProcess(spec, wal, work / "server.log")
        conn = loadgen.Connection(boot.port)
        conn.roundtrip(PING_FRAME)
        recovery_times.append(time.perf_counter() - boot.started)
        after = request_json(conn, {"op": "stats"})["stats"]
        values = prometheus_values(
            request_json(conn, {"op": "metrics"})["metrics"])
        recovery_internal.append(
            values.get("repro_serve_recovery_seconds", 0.0))
        replayed.append(values.get("repro_serve_recovery_replayed_records",
                                   0.0))
        conn.close()
        if after["active_filters"] != stats["active_filters"]:
            checker.fail(f"recovered active_filters "
                         f"{after['active_filters']} != "
                         f"{stats['active_filters']} before the kill")
        if after["documents_published"] < acked_docs:
            checker.fail(f"recovered documents_published "
                         f"{after['documents_published']} < "
                         f"{acked_docs} acked")
        if i == recoveries - 1:
            code = boot.shutdown()
            if code != 0:
                checker.fail(f"graceful shutdown exited {code}")
        else:
            boot.kill()
    log = (work / "server.log").read_text(errors="replace")
    if "Traceback" in log:
        print(log[log.index("Traceback"):][-3000:], file=sys.stderr)
        tail = [line for line in log.splitlines() if line.strip()][-1]
        checker.fail(f"server logged a traceback: {tail}")
    steal = host.steal_frac(steal_before, host.cpu_times())

    # Output checks, off the clock.
    churned = bool(spec.churn_every)
    checker.check(closed)
    open_plans = checker.check(opened, churned=churned)
    checker.check(probe)

    outcomes = [*closed, *opened, *probe]
    open_docs = [o for o in opened if o.request.kind == DOC]
    changes = opened if churned else probe
    sub_lat = [o.latency for o in changes if o.request.kind in (SUB, UNSUB)]
    lat = [o.latency for o in open_docs]
    n_open_docs = sum(len(o.request.docs) for o in open_docs) or 1
    static = checker.static
    return {
        "inputs": inputs,
        "attempted": len(outcomes),
        "failed": checker.failed,
        "failures": checker.failures,
        "checkpoint_seconds": checker.checkpoint_seconds,
        "setup_s": _median(setup_times),
        "setup_times": setup_times,
        "window_rates": window_rates(closed),
        "latency_mean": windowed_mean(open_docs, spec.latency_windows),
        "latencies": lat,
        "sub_latencies": sub_lat,
        "recovery_s": _median(recovery_times),
        "recovery_internal_s": _median(recovery_internal),
        "replayed_records": _median(replayed),
        "peak_rss_mb": peak_rss,
        "snapshot_bytes": snapshot_bytes,
        "steal_frac": steal,
        "fsync_probe_us": fsync_us,
        "lag": [o.send - o.due for o in opened],
        "ping_rtt": ping_rtt,
        "open_docs": open_docs,
        "open_window": open_window,
        "setup_end": min(o.send for o in closed),
        "fsyncs_per_doc": (fsyncs1 - fsyncs0) / n_open_docs,
        "records_per_fsync": (records1 - records0)
        / max(1.0, fsyncs1 - fsyncs0),
        "req_bytes_per_doc": sum(b[0] - a[0] for a, b in zip(bytes0, bytes1))
        / n_open_docs,
        "resp_bytes_per_doc": sum(b[1] - a[1] for a, b in zip(bytes0, bytes1))
        / n_open_docs,
        "matches_per_doc": statistics.fmean(
            [len(static.intersection(p["matched"])) for p in open_plans]
            or [0]),
        "fanout_per_doc": statistics.fmean(
            [p["fanout"] for p in open_plans] or [0]),
        "posting_entries_per_doc": statistics.fmean(
            [p["posting_entries"] for p in open_plans] or [0]),
        "dump": dump,
    }


def window_rates(outcomes, windows: int = RATE_WINDOWS) -> list:
    """Documents acked per second in each of ``windows`` equal windows.

    A request's documents are spread over its send..ack interval, so a
    window holding a few large ``bulk`` requests is not quantized.
    """
    start = min(o.send for o in outcomes)
    width = (max(o.recv for o in outcomes) - start) / windows
    done = [0.0] * windows
    for o in outcomes:
        if not o.ok:
            continue
        per_second = len(o.request.docs) / (o.recv - o.send)
        for slot in range(windows):
            lo = max(o.send, start + slot * width)
            hi = min(o.recv, start + (slot + 1) * width)
            if hi > lo:
                done[slot] += per_second * (hi - lo)
    return [count / width for count in done]


def windowed_mean(outcomes, windows: int) -> float:
    """Median over equal slices of the schedule of the mean latency.

    With one window this is the plain mean.  A pause of the server -- a
    CPython full collection, a checkpoint, a burst of CPU steal --
    delays every request that arrives meanwhile; on ``feed`` one 0.1 s
    pause moves the plain mean by half, but only one slice's mean.
    """
    size = len(outcomes) / windows
    means = [
        statistics.fmean(o.latency for o in
                         outcomes[round(k * size):round((k + 1) * size)])
        for k in range(windows)
    ]
    return statistics.median(means)


def end_to_end(m: dict) -> dict:
    return {
        "setup_s": m["setup_s"],
        "ingest_per_s": statistics.median(m["window_rates"]),
        "latency_mean_ms": 1e3 * m["latency_mean"],
        "latency_p50_ms": 1e3 * statistics.median(m["latencies"]),
        "sub_latency_p50_ms": 1e3 * statistics.median(m["sub_latencies"]),
        "recovery_s": m["recovery_s"],
        "peak_rss_mb": m["peak_rss_mb"],
        "ok_frac": 1.0 - m["failed"] / m["attempted"],
    }


def diagnostics(name: str, m: dict) -> None:
    lat = m["latencies"]
    tails = ", ".join(
        f"p{label} {1e3 * layers.percentile(lat, q):.2f} ms "
        f"(n={len(lat)}, {sum(1 for v in lat if v > layers.percentile(lat, q))}"
        f" beyond)"
        for label, q in (("90", 0.90), ("99", 0.99), ("999", 0.999)))
    print(f"[{name}] diagnostics only, not compared: {tails}")
    print(f"[{name}] host: steal_frac {m['steal_frac']:.4f}, fsync probe "
          f"{m['fsync_probe_us']:.0f} us, loadgen lag p99 "
          f"{1e3 * layers.percentile(m['lag'], 0.99):.3f} ms; set-ups "
          + ", ".join(f"{t:.2f}" for t in m["setup_times"]) + " s")
    if m["checkpoint_seconds"]:
        print(f"[{name}] open-loop checkpoints took "
              + ", ".join(f"{t:.3f}" for t in m["checkpoint_seconds"])
              + " s in the server")
    print(f"[{name}] closed-loop docs/s per window: "
          + ", ".join(f"{r:.0f}" for r in m["window_rates"]))
    for failure in m["failures"]:
        print(f"[{name}] CHECK FAILED: {failure}")


def per_layer(plain: dict, traced: dict) -> dict:
    index = layers.SpanIndex(traced["dump"])
    pieces = layers.split_requests(
        index, traced["open_docs"], traced["inputs"])
    values = layers.layer_metrics(
        index, pieces, traced["open_window"], traced["setup_end"])
    traced_mean = statistics.fmean(traced["latencies"])
    unexplained = statistics.fmean(
        [p["unexplained"] for p in pieces] or [0.0])
    values.update({
        "serve.journal.snapshot_mb": traced["snapshot_bytes"] / 1e6,
        "serve.journal.replayed_records": traced["replayed_records"],
        "serve.journal.recovery_internal_s": traced["recovery_internal_s"],
        "cluster.storage.records_per_fsync": traced["records_per_fsync"],
        "cluster.storage.fsyncs_per_doc": traced["fsyncs_per_doc"],
        "core.pipeline.fanout_per_doc": traced["fanout_per_doc"],
        "matching.posting_entries_per_doc":
            traced["posting_entries_per_doc"],
        "matching.matches_per_doc": traced["matches_per_doc"],
        "loadgen.lag_p99_ms": 1e3 * layers.percentile(traced["lag"], 0.99),
        "loadgen.req_bytes_per_doc": traced["req_bytes_per_doc"],
        "loadgen.resp_bytes_per_doc": traced["resp_bytes_per_doc"],
        "loadgen.ping_rtt_ms": 1e3 * traced["ping_rtt"],
        "host.steal_frac": traced["steal_frac"],
        "host.fsync_probe_us": traced["fsync_probe_us"],
        "trace.unexplained_frac": unexplained / traced_mean,
        # Same estimator as latency_mean_ms on both runs.
        "trace.overhead_frac":
            traced["latency_mean"] / plain["latency_mean"] - 1.0,
    })
    return values, layers.table(pieces)


def declared_units(trace: bool) -> dict:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares."""
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    group = declared["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def run_one(name: str, seed: int, seconds: float, trace: bool):
    spec = SPECS[name]
    work = WORK_DIR / f"{name}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        if not trace:
            m = measure(spec, seed, seconds, work, SETUPS, RECOVERIES,
                        traced=False)
            diagnostics(name, m)
            values = end_to_end(m)
            attempted, failed = m["attempted"], m["failed"]
        else:
            # An untraced and a traced run of the same inputs: the
            # difference of their latency means is the tracing overhead.
            (work / "plain").mkdir()
            (work / "traced").mkdir()
            plain = measure(spec, seed, seconds, work / "plain", 1, 1,
                            traced=False)
            traced = measure(spec, seed, seconds, work / "traced", 1, 1,
                             traced=True)
            diagnostics(name, traced)
            values, rows = per_layer(plain, traced)
            print(f"[{name}] mean self time per open-loop document request "
                  f"of the traced run (untraced latency_mean_ms "
                  f"{1e3 * plain['latency_mean']:.3f}):")
            for row, ms, share in rows:
                print(f"[{name}]   {row:<28s} {ms:9.3f} ms  {share:6.1%}")
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
        units = declared_units(trace)
        if set(values) != set(units):
            raise CheckFailed(f"metrics {sorted(set(values) ^ set(units))} "
                              "differ from BENCHMARK.json")
        metrics = {key: (values[key], unit) for key, unit in units.items()}
        for key, (value, unit) in metrics.items():
            print(f"[{name}] {key} = {value:.6g} {unit}")
        return attempted, failed, metrics
    finally:
        kill_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPECS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_generator()
    names = list(SPECS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            a, f, values = run_one(name, args.seed, args.seconds,
                                   bool(args.trace))
        except (loadgen.LoadError, CheckFailed, OSError) as error:
            print(f"perfbench: {name} aborted: {error}", file=sys.stderr)
            return 1
        attempted += a
        failed += f
        for key, (value, unit) in values.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
