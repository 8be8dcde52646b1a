#!/usr/bin/env python
"""Distributed ingestion: N workers, one coordinator, zero accuracy loss.

Every sketch in the library is mergeable: siblings built from the same
randomness lineage hold identical hash functions, so their states *add*.
This example demonstrates the consequence — a stream split across workers
on different machines (here: different processes/threads talking through a
real drop-box directory and a real TCP socket) merges into exactly the
state single-machine ingestion would have produced.  Not approximately:
bit for bit.

Four escalating demonstrations:

1. ``distributed_ingest()`` over the **file drop-box transport** — a
   one-round session of the round protocol: worker states travel as
   round-1 frame files, atomic-renamed into a rendezvous dir.
2. The same over the **TCP socket transport** — length-prefixed frames
   over one persistent session per worker to an ephemeral local port,
   workers in separate processes.
3. **Thread workers** over the socket transport — four workers ship
   ``sparse-binary`` frames and the coordinator folds each one into its
   sketch as it lands.
4. The **CLI** (``repro worker`` / ``repro coordinate``) run as actual
   subprocesses, the way a real multi-machine deployment would.

Run:  python examples/distributed_ingest.py
"""

import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from repro import GSumEstimator, moment, zipf_stream
from repro.distributed import distributed_ingest
from repro.sketch.base import dumps_state
from repro.sketch.countsketch import CountSketch
from repro.streams.batching import drive
from repro.streams.io import save_stream

N = 4096
SEED = 7


def main() -> None:
    stream = zipf_stream(n=N, total_mass=50_000, skew=1.2, seed=SEED)

    # --- single-machine reference states -------------------------------
    ref_sketch = drive(CountSketch(5, 1024, track=32, seed=SEED), stream)
    ref_est = GSumEstimator(moment(2.0), N, heaviness=0.1, repetitions=2,
                            seed=SEED)
    ref_est.process(stream)

    # --- 1. file drop-box transport ------------------------------------
    print("=== file transport: 4 thread workers, CountSketch ===")
    merged = distributed_ingest(
        CountSketch(5, 1024, track=32, seed=SEED), stream,
        workers=4, transport="file",
    )
    identical = np.array_equal(merged._table, ref_sketch._table)
    print(f"  merged state bit-identical to single-machine: {identical}")
    assert identical

    # --- 2. TCP socket transport, process workers ----------------------
    print("=== socket transport: 2 process workers, GSumEstimator ===")
    est = GSumEstimator(moment(2.0), N, heaviness=0.1, repetitions=2,
                        seed=SEED)
    distributed_ingest(est, stream, workers=2, transport="socket",
                       mode="process")
    print(f"  single-machine estimate: {ref_est.estimate():,.1f}")
    print(f"  distributed estimate:    {est.estimate():,.1f}")
    identical = dumps_state(est.to_state()) == dumps_state(ref_est.to_state())
    print(f"  merged state bit-identical to single-machine: {identical}")
    assert identical

    # --- 3. thread workers over sockets --------------------------------
    print("=== socket transport: 4 thread workers, CountSketch ===")
    merged = distributed_ingest(
        CountSketch(5, 1024, track=32, seed=SEED), stream,
        workers=4, transport="socket",
    )
    identical = np.array_equal(merged._table, ref_sketch._table)
    print(f"  merged state bit-identical to single-machine: {identical}")
    assert identical

    # --- 4. the CLI, as real subprocesses over the drop-box ------------
    print("=== CLI subprocesses: repro worker x2 + repro coordinate ===")
    with tempfile.TemporaryDirectory(prefix="repro-dist-demo-") as tmp:
        stream_path = pathlib.Path(tmp) / "stream.jsonl"
        save_stream(stream, stream_path)
        rendezvous = pathlib.Path(tmp) / "rendezvous"
        sketch_flags = ["--sketch", "countsketch", "--rows", "5",
                       "--buckets", "1024", "--track", "32",
                       "--seed", str(SEED), "--rendezvous", str(rendezvous)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", str(stream_path),
                 "--worker-id", str(i), "--workers", "2", *sketch_flags]
            )
            for i in range(2)
        ]
        for proc in procs:
            assert proc.wait() == 0, "worker subprocess failed"
        subprocess.run(
            [sys.executable, "-m", "repro", "coordinate", "--workers", "2",
             "--verify-stream", str(stream_path), *sketch_flags],
            check=True,
        )
    print("\nall four deployments produced the single-machine state exactly")


if __name__ == "__main__":
    main()
