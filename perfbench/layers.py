"""Per-layer split of the open-loop document latency.

Input: the traced server's span dump (see :mod:`perfbench.traced_server`)
and the load generator's own timings.  Every open-loop document request
is cut into consecutive, non-overlapping pieces; a layer's share is the
mean of its piece over requests, so the rows add up to the traced
``latency_mean_ms`` and whatever no span covers is ``unexplained``.

Pieces of one request, in order:

- ``loadgen.lag``            due -> sent (the generator ran late)
- ``transport.in``           sent -> its first document's decode starts:
  the socket, waking the server, and waiting while the single event-loop
  thread is busy with other requests
- ``serve.wire.decode``      ``wire.decode_document`` of its documents
- ``serve.runtime.queue_wait``  ``ServiceRuntime.ingest`` entered -> its
  first micro-batch starts, plus gaps between its batches
- ``serve.journal.log``      its batches' ``JournaledSystem.publish_batch``
  self time (record encode, ``WalWriter.append``)
- ``core.pipeline.<stage>``  its batches' pipeline stage spans (the
  program's own tracer), ``other`` the rest of ``publish_batch``
- ``cluster.storage.commit`` the ``end_commit_window`` (fsync) after it
- ``serve.runtime.ack_wait`` the rest until ``ingest`` returns (later
  batches of the window, waking the awaiting coroutine)
- ``serve.wire.encode_plan`` ``wire.encode_plan_summary`` of its plans
- ``transport.out``          last plan encoded -> response read: the
  socket write and waking the generator

Both processes read ``time.perf_counter`` (``CLOCK_MONOTONIC``), so the
generator's and the server's timestamps share one timebase.  What is
left -- the short hops between the spans of one request -- is
``unexplained``.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List, Sequence

STAGES = ("observe", "ingest", "route", "execute", "account")

#: ``<u64 lsn, u32 length, u32 crc>`` framing of one WAL record.
WAL_HEADER_BYTES = 16

ROWS = (
    "loadgen.lag",
    "transport.in",
    "serve.wire.decode",
    "serve.runtime.queue_wait",
    "serve.journal.log",
    *(f"core.pipeline.{stage}" for stage in STAGES),
    "core.pipeline.other",
    "cluster.storage.commit",
    "serve.runtime.ack_wait",
    "serve.wire.encode_plan",
    "transport.out",
)


class _Interval:
    __slots__ = ("start", "end", "size", "key")

    def __init__(self, start, end, size=0, key=None):
        self.start = start
        self.end = end
        self.size = size
        self.key = key

    @property
    def dur(self) -> float:
        return self.end - self.start


def _sorted(items: List[_Interval]) -> List[_Interval]:
    items.sort(key=lambda iv: iv.start)
    return items


def _inside(items: List[_Interval], starts: List[float], outer) -> List:
    """Intervals of ``items`` (sorted) lying within ``outer``."""
    out = []
    i = bisect.bisect_left(starts, outer.start)
    while i < len(items) and items[i].start <= outer.end:
        if items[i].end <= outer.end:
            out.append(items[i])
        i += 1
    return out


class SpanIndex:
    """The span dump, indexed for per-request lookups."""

    def __init__(self, dump: dict) -> None:
        self.decode: Dict[str, _Interval] = {}
        self.ingest: Dict[str, _Interval] = {}
        #: ingest key -> encode spans that followed it.
        self.encode: Dict[str, List[_Interval]] = {}
        self.batches: List[_Interval] = []
        self.batch_of: Dict[str, _Interval] = {}
        self.pipeline: List[_Interval] = []
        self.appends: List[_Interval] = []
        self.commits: List[_Interval] = []
        self.subscribes: List[_Interval] = []
        self.checkpoints: List[_Interval] = []
        self.encodes: List[_Interval] = []
        claim: List[_Interval] = []
        owed = 0
        for name, key, start, end, size in dump["spans"]:
            span = _Interval(start, end, size, key)
            if name == "wire.decode":
                self.decode[key] = span
            elif name == "wire.encode_plan":
                self.encodes.append(span)
                if owed:
                    claim.append(span)
                    owed -= 1
            elif name == "runtime.ingest":
                self.ingest[key] = span
                # The plan encodes run right after ingest returns, with
                # no await in between: the next ``size`` encode spans
                # belong to this request.
                claim = self.encode[key] = []
                owed = size
            elif name == "journal.publish_batch":
                self.batches.append(span)
                for doc_id in key:
                    self.batch_of[doc_id] = span
            elif name == "pipeline.publish_batch":
                self.pipeline.append(span)
            elif name == "storage.append":
                self.appends.append(span)
            elif name == "journal.end_commit":
                self.commits.append(span)
            elif name == "journal.subscribe":
                self.subscribes.append(span)
            elif name == "journal.checkpoint":
                self.checkpoints.append(span)
        for table in (self.batches, self.pipeline, self.appends,
                      self.commits):
            _sorted(table)
        self.stages = {stage: [] for stage in STAGES}
        for name, start, end in dump["stages"]:
            self.stages[name].append(_Interval(start, end))
        for items in self.stages.values():
            _sorted(items)
        self._starts = {
            "pipeline": [iv.start for iv in self.pipeline],
            "appends": [iv.start for iv in self.appends],
            "commits": [iv.start for iv in self.commits],
            **{s: [iv.start for iv in self.stages[s]] for s in STAGES},
        }
        self._batch_cache: Dict[int, dict] = {}


    def batch_parts(self, batch: _Interval) -> dict:
        """Self-time split of one journal batch (memoized)."""
        cached = self._batch_cache.get(id(batch))
        if cached is not None:
            return cached
        parts = {f"core.pipeline.{s}": 0.0 for s in STAGES}
        pipeline = _inside(self.pipeline, self._starts["pipeline"], batch)
        pipe_total = sum(p.dur for p in pipeline)
        staged = 0.0
        for p in pipeline:
            for stage in STAGES:
                spent = sum(s.dur for s in _inside(
                    self.stages[stage], self._starts[stage], p))
                parts[f"core.pipeline.{stage}"] += spent
                staged += spent
        parts["core.pipeline.other"] = max(0.0, pipe_total - staged)
        parts["serve.journal.log"] = max(0.0, batch.dur - pipe_total)
        parts["_pipeline"] = pipe_total
        parts["_append_bytes"] = sum(
            a.size for a in _inside(self.appends, self._starts["appends"],
                                    batch))
        self._batch_cache[id(batch)] = parts
        return parts

    def commit_after(self, when: float):
        i = bisect.bisect_left(self._starts["commits"], when)
        return self.commits[i] if i < len(self.commits) else None


def split_requests(index: SpanIndex, outcomes: Sequence,
                   inputs) -> List[Dict[str, float]]:
    """Per-request pieces (seconds) for the open-loop documents."""
    rows = []
    for outcome in outcomes:
        request = outcome.request
        doc_ids = [inputs.docs[i].doc_id for i in request.docs]
        ingest = index.ingest.get(doc_ids[0])
        batches = []
        for doc_id in doc_ids:
            batch = index.batch_of.get(doc_id)
            if batch is not None and batch not in batches:
                batches.append(batch)
        decodes = [index.decode[d] for d in doc_ids if d in index.decode]
        encodes = index.encode.get(doc_ids[0])
        if ingest is None or not batches or not decodes or not encodes:
            continue
        batches.sort(key=lambda b: b.start)
        piece = dict.fromkeys(ROWS, 0.0)
        piece["loadgen.lag"] = outcome.send - outcome.due
        piece["transport.in"] = (
            min(d.start for d in decodes) - outcome.send)
        piece["serve.wire.decode"] = sum(d.dur for d in decodes)
        wait = batches[0].start - ingest.start
        for prev, nxt in zip(batches, batches[1:]):
            wait += nxt.start - prev.end
        piece["serve.runtime.queue_wait"] = max(0.0, wait)
        for batch in batches:
            for name, value in index.batch_parts(batch).items():
                if not name.startswith("_"):
                    piece[name] += value
        last = batches[-1].end
        commit = index.commit_after(last)
        fsync = 0.0
        if commit is not None and commit.end <= ingest.end:
            fsync = commit.dur
        piece["cluster.storage.commit"] = fsync
        piece["serve.runtime.ack_wait"] = max(
            0.0, ingest.end - last - fsync)
        piece["serve.wire.encode_plan"] = sum(e.dur for e in encodes)
        piece["transport.out"] = (
            outcome.recv - max(e.end for e in encodes))
        piece["latency"] = outcome.latency
        piece["unexplained"] = piece["latency"] - sum(
            piece[row] for row in ROWS)
        rows.append(piece)
    return rows


def in_window(items: List[_Interval], start: float, end: float):
    return [iv for iv in items if start <= iv.start and iv.end <= end]


def layer_metrics(index: SpanIndex, pieces: List[Dict[str, float]],
                  window: tuple, setup_end: float) -> Dict[str, float]:
    """Per-document layer costs over the open-loop window."""
    start, end = window
    batches = in_window(index.batches, start, end)
    docs = sum(b.size for b in batches) or 1
    parts = [index.batch_parts(b) for b in batches]
    stage_sum = {
        s: sum(p[f"core.pipeline.{s}"] for p in parts) for s in STAGES}
    decodes = [iv for iv in index.decode.values()
               if start <= iv.start <= end]
    encodes = in_window(index.encodes, start, end)
    commits = [c for c in in_window(index.commits, start, end) if c.size]
    setup_subs = [s for s in index.subscribes if s.end <= setup_end]
    queue = [p["serve.runtime.queue_wait"] for p in pieces] or [0.0]
    metrics = {
        "serve.wire.decode_us_per_doc":
            1e6 * sum(d.dur for d in decodes) / max(1, len(decodes)),
        "serve.wire.encode_plan_us_per_doc":
            1e6 * sum(e.dur for e in encodes) / max(1, len(encodes)),
        "serve.runtime.queue_wait_ms": 1e3 * statistics.fmean(queue),
        "serve.runtime.queue_wait_p90_ms":
            1e3 * percentile(queue, 0.90),
        "serve.runtime.ack_wait_ms": 1e3 * statistics.fmean(
            [p["serve.runtime.ack_wait"] for p in pieces] or [0.0]),
        "serve.runtime.batch_docs": docs / max(1, len(batches)),
        "serve.journal.log_us_per_doc":
            1e6 * sum(p["serve.journal.log"] for p in parts) / docs,
        "serve.journal.subscribe_us_per_filter":
            1e6 * sum(s.dur for s in setup_subs)
            / max(1, sum(s.size for s in setup_subs)),
        "serve.journal.checkpoint_ms": 1e3 * statistics.fmean(
            [c.dur for c in index.checkpoints] or [0.0]),
        "cluster.storage.commit_us":
            1e6 * statistics.fmean([c.dur for c in commits] or [0.0]),
        "cluster.storage.wal_bytes_per_doc":
            sum(p["_append_bytes"] for p in parts) / docs
            + WAL_HEADER_BYTES * len(batches) / docs,
        "core.pipeline.publish_us_per_doc":
            1e6 * sum(p["_pipeline"] for p in parts) / docs,
    }
    for stage in STAGES:
        metrics[f"core.pipeline.{stage}_us_per_doc"] = (
            1e6 * stage_sum[stage] / docs)
    return metrics


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def table(pieces: List[Dict[str, float]]) -> List[tuple]:
    """``(row, mean ms, share)`` rows plus unexplained and the total."""
    if not pieces:
        return []
    total = statistics.fmean(p["latency"] for p in pieces)
    out = []
    for row in (*ROWS, "unexplained"):
        mean = statistics.fmean(p[row] for p in pieces)
        out.append((row, 1e3 * mean, mean / total if total else 0.0))
    out.append(("latency_mean (traced)", 1e3 * total, 1.0))
    return out
