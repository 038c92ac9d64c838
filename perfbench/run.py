"""Benchmark of the charbound certification pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

With ``--trace 0`` it warms up with one untimed round, then repeats whole
rounds of the workload's operations for ``--seconds`` of operation time,
times set-up in fresh interpreters along the way, and prints the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
rounds and prints per-layer metrics (per round) with the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  ``--quick`` runs every workload
for a few rounds with all checks, as the benchmark's own test.  See
README.md.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "charbound" / "__init__.py").is_file():
        print(f"error: no charbound sources at {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: on the shared 2-core machine
    # a second OpenBLAS thread makes a 40x80 complex SVD about 7x slower
    # and far noisier.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
