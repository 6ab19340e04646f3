"""Record the sup_traj_error values the benchmark's output checks compare with.

Run from the root of a checkout:  python3 bench/record_reference.py
It computes every (field, width, fit seed) the pipeline-sweep workload can
draw and every (fit seed, x0) the cli-files approximate op can draw, and
writes bench/reference.json.  The committed file was recorded at the
commit that introduced the benchmark; re-recording it hides any accuracy
change since then, so do so only when a change to the approximation is
intended and say so.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from ltcsim import approx  # noqa: E402


def main() -> None:
    pipeline = {}
    for name, spec in wl.FIELDS.items():
        fld = wl._field(spec)
        for width in wl.WIDTHS:
            for seed in wl.FIT_SEEDS:
                config = approx.PipelineConfig(n_features=width, seed=seed)
                report = approx.approximate_trajectory(fld, wl.X0, wl.HORIZON, config)
                pipeline[f"{name}/{width}/{seed}"] = report.sup_traj_error
                print(name, width, seed, report.sup_traj_error, flush=True)
    cli = {}
    fld = wl._field(wl.FIELDS["rotation"])
    for seed in wl.FIT_SEEDS:
        for k, x0 in enumerate(wl.CLI_X0_SET):
            config = approx.PipelineConfig(n_features=wl.CLI_WIDTH, seed=seed)
            report = approx.approximate_trajectory(fld, x0, wl.CLI_HORIZON, config)
            cli[f"{seed}/{k}"] = report.sup_traj_error
            print("cli", seed, k, report.sup_traj_error, flush=True)
    doc = {"rtol": wl.SUP_RTOL, "pipeline": pipeline, "cli": cli}
    wl.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
