"""Distributed coordinator/worker ingestion over the state wire format.

N workers ingest disjoint stream partitions into sibling sketches and ship
their serialized states (:meth:`~repro.sketch.base.MergeableSketch.to_state`
JSON or binary frames) to a merging coordinator — over a file drop-box or
a TCP socket.  Because every sketch's merge is exact, the coordinator
ends bit-identical to single-machine ingestion; the transports only
decide *how* states travel, never *what* the answer is.

One protocol carries every job: the **round protocol**
(:class:`~repro.distributed.coordinator.RoundCoordinator`,
:func:`~repro.distributed.worker.run_worker_rounds`).  Persistent
sessions carry round-tagged delta frames up and candidate broadcasts
down.  A 1-pass job (:func:`distributed_ingest`, ``repro worker`` /
``repro coordinate`` without ``--passes 2``) is a one-round session:
round 1 merges every worker's state, as one frame or as streaming
deltas.  The paper's full two-pass G-sum algorithm
(:func:`distributed_two_pass`, ``--passes 2``) adds a second round: the
merged first-pass candidate cover is broadcast back, and round 2 merges
the exact second-pass tabulations, bit-identical to single-machine
:meth:`~repro.core.gsum.GSumEstimator.run`.

Entry points: :func:`distributed_ingest` / :func:`distributed_two_pass`
(single-call local drivers), ``repro worker`` / ``repro coordinate``
(multi-machine CLI), and the building blocks
(:mod:`~repro.distributed.wire`, :mod:`~repro.distributed.transport`,
:mod:`~repro.distributed.worker`, :mod:`~repro.distributed.coordinator`).
Architecture and wire-format documentation: ``docs/ARCHITECTURE.md``.
"""

from repro.distributed.coordinator import RoundCoordinator
from repro.distributed.driver import distributed_ingest, distributed_two_pass
from repro.distributed.specs import build_sketch
from repro.distributed.transport import (
    FileTransport,
    FileWorkerSession,
    RoundTracker,
    SocketHub,
    SocketSession,
    TransportTimeout,
    WorkerFailure,
)
from repro.distributed.wire import (
    delta_message,
    delta_skipped_message,
    error_message,
    recv_frame,
    round_begin_message,
    round_end_message,
    send_frame,
)
from repro.distributed.worker import (
    partition_bounds,
    run_worker_rounds,
    ship_round,
    worker_slice,
)

__all__ = [
    "FileTransport",
    "FileWorkerSession",
    "RoundCoordinator",
    "RoundTracker",
    "SocketHub",
    "SocketSession",
    "TransportTimeout",
    "WorkerFailure",
    "build_sketch",
    "delta_message",
    "delta_skipped_message",
    "distributed_ingest",
    "distributed_two_pass",
    "error_message",
    "partition_bounds",
    "recv_frame",
    "round_begin_message",
    "round_end_message",
    "run_worker_rounds",
    "send_frame",
    "ship_round",
    "worker_slice",
]
