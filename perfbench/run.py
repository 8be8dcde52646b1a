"""Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a checkout.

The program under test is the ``repro`` package in ``src/``; it is
imported from source, so there is nothing to build.  Without it the
benchmark exits with status 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main

    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(_main())
