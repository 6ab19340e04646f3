"""Set-up step of the benchmark, run by run.py in a fresh interpreter.

Imports ltcsim from the checkout's ``src`` and makes one workload's inputs
(writing any input files under ``--out``).  Prints one JSON line with the
import time and a digest of the inputs; run.py times the whole process.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import ltcsim  # noqa: F401
    import_s = time.perf_counter() - start
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.out), write=True)
    print(json.dumps({"import_s": import_s, "digest": wl.digest}))


if __name__ == "__main__":
    main()
