"""Traced launcher: ``python -m repro serve`` with boundary spans.

Run as ``python perfbench/traced_server.py --spans-out PATH serve ...``.
Before handing over to the stock ``serve`` command it

- wraps public calls at each layer boundary with a timer that records
  ``(name, key, start, end, size)`` -- ``key`` is the first document id
  the call carries, the request id of the load generator;
- installs a :class:`repro.obs.Tracer` as the default tracer, so the
  served system records its own pipeline stage spans.

Nothing is added to ``src/``.  Spans stay in memory; ``SIGUSR1`` writes
them to ``PATH`` as one JSON object (temp file + rename).  Timestamps
are ``time.perf_counter`` values, the same monotonic clock the load
generator reads, so both sides line up.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import __main__ as cli  # noqa: E402
from repro.baselines.base import DisseminationSystem  # noqa: E402
from repro.cluster.storage import WalWriter  # noqa: E402
from repro.obs import Tracer, set_default_tracer  # noqa: E402
from repro.serve import wire  # noqa: E402
from repro.serve.journal import JournaledSystem  # noqa: E402
from repro.serve.runtime import ServiceRuntime  # noqa: E402

#: Pipeline stage spans of the program's own tracer that are dumped.
STAGES = ("observe", "ingest", "route", "execute", "account")

SPANS: list = []
clock = time.perf_counter


def wrap_sync(owner, attr: str, name: str, key=None, size=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = clock()
        result = original(*args, **kwargs)
        SPANS.append((
            name,
            key(args, result) if key else None,
            start,
            clock(),
            size(args, result) if size else 0,
        ))
        return result

    setattr(owner, attr, wrapper)


def wrap_async(owner, attr: str, name: str, key, size):
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        start = clock()
        result = await original(*args, **kwargs)
        SPANS.append((name, key(args, result), start, clock(),
                      size(args, result)))
        return result

    setattr(owner, attr, wrapper)


def install() -> Tracer:
    wrap_sync(wire, "decode_document", "wire.decode",
              key=lambda a, r: r.doc_id)
    wrap_sync(wire, "encode_plan_summary", "wire.encode_plan",
              size=lambda a, r: len(a[1]))
    wrap_async(ServiceRuntime, "ingest", "runtime.ingest",
               key=lambda a, r: a[1].doc_id, size=lambda a, r: 1)
    wrap_async(ServiceRuntime, "ingest_batch", "runtime.ingest",
               key=lambda a, r: a[1][0].doc_id,
               size=lambda a, r: len(a[1]))
    wrap_sync(JournaledSystem, "publish_batch", "journal.publish_batch",
              key=lambda a, r: [d.doc_id for d in a[1]],
              size=lambda a, r: len(a[1]))
    wrap_sync(JournaledSystem, "subscribe", "journal.subscribe",
              size=lambda a, r: len(r))
    wrap_sync(JournaledSystem, "unregister", "journal.unregister")
    wrap_sync(JournaledSystem, "checkpoint", "journal.checkpoint",
              size=lambda a, r: r["bytes"])
    wrap_sync(JournaledSystem, "begin_commit_window", "journal.begin_commit")
    wrap_sync(JournaledSystem, "end_commit_window", "journal.end_commit",
              size=lambda a, r: r)
    wrap_sync(WalWriter, "append", "storage.append",
              size=lambda a, r: len(a[1]))
    wrap_sync(DisseminationSystem, "publish_batch", "pipeline.publish_batch",
              size=lambda a, r: len(a[1]))
    tracer = Tracer()
    set_default_tracer(tracer)
    return tracer


def dump(tracer: Tracer, path: Path) -> None:
    stages = [
        (span.name, span.start, span.end)
        for span in tracer.spans
        if span.name in STAGES
    ]
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump({"spans": SPANS, "stages": stages}, handle)
    os.replace(tmp, path)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: traced_server.py --spans-out PATH serve [...]",
              file=sys.stderr)
        return 2
    out = Path(argv[1])
    tracer = install()
    signal.signal(signal.SIGUSR1, lambda _n, _f: dump(tracer, out))
    return cli.main(argv[2:])


if __name__ == "__main__":
    sys.exit(main())
