"""Rewrite perfbench/reference/<workload>.json from one default-seed pass.

Usage, from the repository root:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each file maps a config name to the output fields of its report.json
(`tasks` and `passed`; see run.OUTPUT_FIELDS).
run.py compares every warm-up pass with these files (the drift report),
so rewrite them only for a change that is meant to alter report.json.
"""

import json
import os
import shutil
import sys

import run


def main(names):
    if not run.prepare():
        raise SystemExit(f"no gqms sources under {run.ROOT / 'src'}")
    import workloads

    run.REFERENCE.mkdir(exist_ok=True)
    for name in names or list(workloads.BUILDERS):
        configs = workloads.build(name, workloads.DEFAULT_SEED)
        outdir = run.OUT / f"reference-{name}-{os.getpid()}"
        try:
            result = run.run_pass(configs, outdir, workloads.expected(configs),
                                  workloads.KNOWN_FAILURES.get(name, set()))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if result["problems"]:
            raise SystemExit(f"{name}: " + "; ".join(result["problems"]))
        reports = {k: run.output_fields(v) for k, v in result["reports"].items()}
        path = run.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(reports, sort_keys=True, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)} ({result['seconds']:.2f} s)")


if __name__ == "__main__":
    main(sys.argv[1:])
