"""Time, in a fresh interpreter, `import gqms` plus building the objects a workload's tasks share.

Usage: python3 perfbench/setup_probe.py CONFIGS_JSON

CONFIGS_JSON holds [{"name", "config", "lindbladian"}] as written by
run.py.  For each config the probe builds the shared objects through
`gqms.cli.RunContext`, the same lazy builders `run_scenario` uses: for a
bosonic model the space, operators, Kossakowski matrix, adjoint action
and, when `lindbladian` is set (a task evolves a density), the
Lindbladian; for a finite model the model and `build_fd_generators`.
Nothing beyond the standard library is imported before the clock
starts, so numpy and scipy import time counts.  Just before the clock
starts, the probe times the calibration loop (calibration.py).
Prints one JSON line {"setup_s": wall seconds, "scale": calibration factor}.
"""

import json
import sys
import time
from pathlib import Path

import calibration


def build_shared(entry):
    from gqms import cli, finite_dim

    ctx = cli.RunContext(entry["config"])
    if ctx.kind == "finite":
        return ctx.finite_model, finite_dim.build_fd_generators(ctx.finite_model)
    built = [ctx.space, ctx.ops, ctx.kossakowski, ctx.action]
    if entry["lindbladian"]:
        built.append(ctx.lindbladian)
    return built


def main(path):
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    scale = calibration.scale()
    t0 = time.perf_counter()
    import gqms  # noqa: F401  (import time is part of set-up)
    built = [build_shared(entry) for entry in entries]
    elapsed = time.perf_counter() - t0
    del built
    print(json.dumps({"setup_s": elapsed, "scale": scale}))


if __name__ == "__main__":
    main(sys.argv[1])
