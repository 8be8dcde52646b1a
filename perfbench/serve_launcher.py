"""Server process of the ``serve-live`` workload.

``python -m perfbench.serve_launcher [--trace-dir DIR] serve <args>`` runs
``repro.cli.main(["serve", ...])``.  An untraced and a traced launch
differ only in the wrappers: with ``--trace-dir`` the tracing wrappers
are installed first and the spans are written to ``DIR`` after
``repro.cli.main`` returns (SIGINT or the end of ``--duration``).
"""

import signal
import sys
from pathlib import Path


def main(argv: list) -> int:
    import repro.cli

    from .tracing import Tracer, install

    # The benchmark stops the server with SIGINT.  A process started in
    # the background by a non-interactive shell inherits SIGINT ignored,
    # and Python then installs no handler, so restore the default one.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if argv[:1] == ["--trace-dir"]:
        tracer = Tracer(Path(argv[1]))
        install(tracer)
        argv = argv[2:]
    try:
        return repro.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
