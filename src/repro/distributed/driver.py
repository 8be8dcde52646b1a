"""Single-call drivers: distributed ingestion on one machine.

Both drivers run the **round protocol** with all participants hosted
locally (threads or processes): partition the stream, hand each worker a
sibling sketch and a session, and let a
:class:`~repro.distributed.coordinator.RoundCoordinator` collect and
merge.  :func:`distributed_ingest` is a one-round session — every worker
ships its partition's state and the coordinator merges it.
:func:`distributed_two_pass` runs two rounds: round 1 merges first-pass
states (optionally as streaming delta frames), the coordinator broadcasts
the merged candidate export, and round 2 merges the candidate-restricted
second passes — bit-identical to single-machine
:meth:`~repro.core.gsum.GSumEstimator.run`.  The states cross an actual
file system or TCP socket either way, so this exercises exactly the
machinery a real multi-machine deployment uses; only the scheduling is
local.  These are the integration surfaces the equality tests drive.

For genuinely separate machines, run ``repro worker`` on each shard host
and ``repro coordinate`` on the collector (see :mod:`repro.cli`) — those
commands are thin wrappers over the same worker/coordinator modules.
"""

from __future__ import annotations

import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Iterable

from repro.distributed.coordinator import RoundCoordinator
from repro.distributed.transport import (
    FileTransport,
    FileWorkerSession,
    SocketHub,
    SocketSession,
)
from repro.distributed.worker import run_worker_rounds, worker_slice
from repro.sketch.codec import STATE_CODEC
from repro.streams.batching import DEFAULT_CHUNK
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.streams.sharding import as_columnar, supports_sharding

TRANSPORTS = ("file", "socket")
WORKER_MODES = ("thread", "process")


def _validate_common(structure, workers: int, transport: str, mode: str) -> None:
    if transport not in TRANSPORTS:
        raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    if mode not in WORKER_MODES:
        raise ValueError(f"mode must be one of {WORKER_MODES}, got {mode!r}")
    if workers < 1:
        raise ValueError("workers must be positive")
    if not supports_sharding(structure):
        raise TypeError(
            f"{type(structure).__name__} does not implement the "
            "mergeable-sketch protocol required for distributed ingestion"
        )


def distributed_ingest(
    structure,
    stream: "TurnstileStream | Iterable[StreamUpdate]",
    workers: int = 2,
    transport: str = "file",
    mode: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    rendezvous: str | None = None,
    timeout: float = 120.0,
):
    """Ingest ``stream`` into ``structure`` through ``workers`` distributed
    workers over a real transport, as a one-round session of the round
    protocol; the merged state is bit-identical to sequential ingestion.
    Returns ``structure``.

    Parameters
    ----------
    structure:
        Any mergeable sketch with a batch path (same requirement as
        :func:`repro.streams.sharding.ingest_sharded`).  Its existing state
        is kept: the stream's contribution is added on top.
    workers:
        Worker count; each gets one contiguous stream partition.
    transport:
        ``"file"`` (drop-box directory; ``rendezvous`` names it, default a
        fresh temp dir) or ``"socket"`` (TCP on 127.0.0.1, ephemeral
        port).
    mode:
        ``"thread"`` hosts workers on a thread pool; ``"process"`` on a
        process pool (siblings must pickle — see
        :mod:`repro.functions.registry` for estimators).
    """
    _validate_common(structure, workers, transport, mode)
    return _run_session(
        structure, stream, workers, transport, mode, chunk_size,
        delta_every=0, passes=1, rendezvous=rendezvous, timeout=timeout,
    )


def _pickled_sibling(sibling) -> bytes:
    """A process worker's sibling, pickled in the parent rather than in
    the pool's feeder thread: a sketch that cannot pickle then fails here,
    at once and with advice, instead of leaving the coordinator to wait out
    its round timeout for workers that never started."""
    try:
        return pickle.dumps(sibling)
    except pickle.PicklingError as exc:
        raise TypeError(
            f"{type(sibling).__name__} cannot cross a process boundary "
            f"({exc}); use mode 'thread', or build its GFunction through "
            "repro.functions.registry so it serializes"
        ) from exc


def _spawned_round_worker(args):
    """Module-level so process mode can pickle it: run one round-protocol
    worker end to end.  A process worker's sibling arrives as the bytes of
    :func:`_pickled_sibling`.  Socket sessions cannot cross a process
    boundary, so each worker dials the endpoint itself."""
    (sibling, items, deltas, worker_id, transport, endpoint, chunk_size,
     delta_every, passes, timeout) = args
    if isinstance(sibling, bytes):
        sibling = pickle.loads(sibling)
    if transport == "file":
        session = FileWorkerSession(endpoint)
    else:
        host, port = endpoint
        session = SocketSession(host, port, connect_timeout=timeout)
    try:
        run_worker_rounds(
            sibling, items, deltas, worker_id, session, chunk_size,
            delta_every, passes, timeout,
        )
    finally:
        session.close()
    return worker_id


def _run_session(
    structure, stream, workers, transport, mode, chunk_size, delta_every,
    passes, rendezvous, timeout,
):
    """Host a ``passes``-round session locally: ``workers`` workers (on a
    thread or process pool) ingest their partitions into siblings of
    ``structure`` and ship them through ``transport`` to a
    :class:`~repro.distributed.coordinator.RoundCoordinator` that merges
    into ``structure``.  The channel and temp dir are torn down whatever
    happens.  Returns ``structure``."""
    items, deltas = as_columnar(stream, chunk_size)
    siblings = [structure.spawn_sibling() for _ in range(workers)]
    if mode == "process":
        # Every sibling pickles before the first submit, so a failure
        # leaves no worker running and no channel to tear down.
        siblings = [_pickled_sibling(sibling) for sibling in siblings]
    partitions = [worker_slice(items, deltas, i, workers) for i in range(workers)]

    tempdir = None
    hub = None
    try:
        if transport == "file":
            if rendezvous is None:
                tempdir = tempfile.TemporaryDirectory(prefix="repro-dist-")
                rendezvous = tempdir.name
            channel = FileTransport(rendezvous)
            channel.purge()
            endpoint = rendezvous
        else:
            hub = SocketHub()
            channel = hub
            endpoint = hub.address

        pool_cls = ThreadPoolExecutor if mode == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=workers) as pool:
            jobs = [
                pool.submit(
                    _spawned_round_worker,
                    (sib, part[0], part[1], i, transport, endpoint,
                     chunk_size, delta_every, passes, timeout),
                )
                for i, (sib, part) in enumerate(zip(siblings, partitions))
            ]
            coordinator = RoundCoordinator(structure, channel, workers, timeout)
            if passes == 2:
                coordinator.run_two_pass()
            else:
                coordinator.run_single_pass()
            for job in jobs:
                job.result()  # surface worker exceptions with tracebacks
        return structure
    finally:
        if hub is not None:
            hub.close()
        if tempdir is not None:
            tempdir.cleanup()


def distributed_two_pass(
    structure,
    stream: "TurnstileStream | Iterable[StreamUpdate]",
    workers: int = 2,
    transport: str = "file",
    mode: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    delta_every: int = 0,
    rendezvous: str | None = None,
    timeout: float = 120.0,
    codec: str = STATE_CODEC,
):
    """Run the full coordinated two-pass round protocol locally: round 1
    merges worker first-pass states, the coordinator broadcasts the merged
    candidate export back, round 2 merges the candidate-restricted second
    passes.  The result is bit-identical to single-machine
    :meth:`~repro.core.gsum.GSumEstimator.run` over the same stream.
    Returns ``structure``.

    Parameters beyond :func:`distributed_ingest`:

    delta_every:
        ``0`` ships one state frame per worker per round; ``> 0`` enables
        streaming merges — every ``delta_every`` updates each worker ships
        an incremental delta frame the coordinator merges on arrival
        (periods that leave the sketch untouched ship a ``delta_skipped``
        heartbeat instead of an empty payload).
    codec:
        Must be ``"sparse-binary"``, the one state codec; any other value
        raises ``ValueError``.  Accepted so callers that still name the
        codec keep working.
    """
    if codec != STATE_CODEC:
        raise ValueError(f"codec must be {STATE_CODEC!r}, got {codec!r}")
    _validate_common(structure, workers, transport, mode)
    if getattr(structure, "passes", 2) != 2:
        raise ValueError(
            "distributed_two_pass requires a two-pass structure "
            f"(passes=2); got passes={getattr(structure, 'passes', None)!r}"
        )
    for hook in ("begin_second_pass", "export_candidates", "import_candidates"):
        if not hasattr(structure, hook):
            raise TypeError(
                f"{type(structure).__name__} has no {hook}; the round "
                "protocol needs the two-pass candidate hooks"
            )

    return _run_session(
        structure, stream, workers, transport, mode, chunk_size,
        delta_every=delta_every, passes=2, rendezvous=rendezvous,
        timeout=timeout,
    )
