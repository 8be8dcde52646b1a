"""The query-serving layer: lock-free snapshots, an epoch-invalidated
estimate cache, and a long-lived asyncio HTTP/JSON server.

Everything before this package was batch-shaped — ingest to completion,
then query.  Production means readers querying *while* streams keep
flowing.  The pieces:

:class:`SnapshotStore`
    Wraps a live mergeable sketch.  All mutations (``update_batch``,
    round merges) run under a writer lock and advance a monotonically
    increasing **merge epoch**; :meth:`SnapshotStore.snapshot` publishes a
    frozen structural clone (an empty sibling with the live sketch merged
    in, bit-identical to it) that readers query without ever taking the
    lock.

:class:`EpochLRUCache`
    A small LRU keyed by ``(epoch, query)``; the whole cache invalidates
    the moment a newer epoch is seen, so a cached answer can never
    outlive the state that produced it.

:class:`QueryEngine`
    Snapshot + cache + capability detection (point queries, heavy
    hitters, aggregate g-SUM) behind one object the server and tests
    share.  With a refresh interval it publishes on its own thread, off
    the request path, and computes the aggregate once per snapshot.

:class:`SketchServer` / :func:`run_load`
    A dependency-free asyncio HTTP/1.1 server exposing ``/estimate``,
    ``/frequency/<item>``, ``/heavy-hitters``, ``/health``, ``/stats``;
    and the load harness that drives thousands of concurrent keep-alive
    clients into the ``S6_SERVE`` bench table.
"""

from repro.serve.cache import EpochLRUCache
from repro.serve.engine import QueryEngine
from repro.serve.load import LoadReport, fetch_json, run_load
from repro.serve.server import SketchServer
from repro.serve.snapshot import SketchSnapshot, SnapshotStore

__all__ = [
    "EpochLRUCache",
    "LoadReport",
    "QueryEngine",
    "SketchServer",
    "SketchSnapshot",
    "SnapshotStore",
    "fetch_json",
    "run_load",
]
