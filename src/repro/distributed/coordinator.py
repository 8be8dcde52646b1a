"""The coordinator side: collect worker frames round by round, merge, answer.

:class:`RoundCoordinator` drives an explicit state machine over
persistent worker channels.  Round 1 collects every worker's first-pass
state — as one frame or as streaming delta frames merged the moment they
land.  A 1-pass job ends there (:meth:`RoundCoordinator.run_single_pass`).
For two-pass estimation the coordinator then closes pass one
(``begin_second_pass``), **broadcasts the merged candidate export back to
every worker**, and round 2 collects the candidate-restricted second-pass
states (:meth:`RoundCoordinator.run_two_pass`).  ``from_state`` validates
each frame against the coordinator's own compatibility digest
(configuration + randomness lineage + hash fingerprints), so a worker
built from a different spec or seed is rejected *before* anything merges.
Because every merge is exact and the candidate sets are identical on all
machines, the final state is bit-identical to single-machine ingestion
(:meth:`repro.core.gsum.GSumEstimator.run` for two passes).  Per-round
timeouts surface stragglers
(:class:`~repro.distributed.transport.TransportTimeout` names the missing
workers); duplicate or future-round frames are rejected and stale
retransmits are dropped and counted (see
:class:`~repro.distributed.transport.RoundTracker`).
"""

from __future__ import annotations

from typing import List

from repro.distributed.wire import (
    ROUND_FIRST_PASS,
    ROUND_SECOND_PASS,
    round_begin_message,
)

__all__ = ["RoundCoordinator"]


class RoundCoordinator:
    """Round-protocol orchestrator: owns the authoritative sketch and a
    coordinator channel (:class:`~repro.distributed.transport.FileTransport`
    or :class:`~repro.distributed.transport.SocketHub` — anything with
    ``collect_round`` + ``publish_broadcast``), and drives the worker
    fleet through coordinated rounds.

    Parameters
    ----------
    structure:
        The coordinator's sketch; worker frames merge into it in place.
    channel:
        Coordinator-side transport endpoint.
    workers:
        How many workers participate (ids 0..workers-1 by convention).
    timeout:
        Per-round deadline in seconds; a round that misses it raises
        :class:`~repro.distributed.transport.TransportTimeout` naming the
        straggler worker ids.
    store:
        Optional :class:`~repro.serve.snapshot.SnapshotStore` wrapping
        ``structure``.  When given, every round merge (and the
        second-pass transition) runs under the store's writer lock and
        advances its merge epoch, so a query server
        (:mod:`repro.serve`) can serve lock-free snapshot reads *while*
        rounds are merging — readers see either the pre-merge or the
        post-merge epoch, never a torn table.
    """

    def __init__(
        self,
        structure,
        channel,
        workers: int,
        timeout: float = 120.0,
        store=None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if store is not None and store.live is not structure:
            raise ValueError("store must wrap the coordinator's structure")
        self.structure = structure
        self.channel = channel
        self.workers = int(workers)
        self.timeout = float(timeout)
        self.store = store
        self.stale_frames = 0
        self.rounds: List[dict] = []

    def _mutate(self, fn):
        """Apply a state mutation: through the snapshot store (writer lock
        + epoch advance) when one is attached, directly otherwise."""
        if self.store is not None:
            return self.store.mutate(fn)
        return fn(self.structure)

    def _merge_frame(self, message: dict) -> None:
        """Streaming merge hook: fold one delta frame in the moment it
        arrives.  States are linear, so incremental merges in arrival
        order equal one batch merge bit for bit.  The decode runs outside
        any store lock; only the merge itself counts as a mutation (one
        epoch per frame)."""
        sibling = self.structure.from_state(message["state"])
        self._mutate(lambda structure: structure.merge(sibling))

    def run_round(self, round_id: int) -> dict:
        """Collect one round, folding every frame into the structure on
        the collector thread as it lands; returns the round's summary."""
        summary = self.channel.collect_round(
            round_id, self.workers, timeout=self.timeout,
            on_state=self._merge_frame,
        )
        self.stale_frames += summary["stale"]
        self.rounds.append(summary)
        return summary

    def run_single_pass(self):
        """One-round session over the round protocol (streaming deltas
        welcome); returns the merged structure."""
        self.run_round(ROUND_FIRST_PASS)
        return self.structure

    def run_two_pass(self):
        """The full coordinated two-pass protocol:

        1. collect round 1 (worker first-pass states, merged on arrival);
        2. close pass one on the merged state and broadcast the candidate
           export (with this coordinator's compat digest, so non-sibling
           workers refuse it) back to every worker;
        3. collect round 2 (candidate-restricted second-pass states).

        Returns the merged structure — bit-identical to a single machine
        running both passes over the concatenated stream.
        """
        self.run_round(ROUND_FIRST_PASS)
        self._mutate(lambda structure: structure.begin_second_pass())
        self.channel.publish_broadcast(
            round_begin_message(
                ROUND_SECOND_PASS,
                self.structure.compat_digest(),
                self.structure.export_candidates(),
            )
        )
        self.run_round(ROUND_SECOND_PASS)
        return self.structure
