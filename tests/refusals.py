"""Run every case of refusals.json through the `gqms` console script.

Usage: python tests/refusals.py OUTDIR

refusals.json is the one table of refused configs: each case has a
config, the commands to run on it, their exit code and the JSON pointer
and message of the refusal.  Each case's config is written to
OUTDIR/<name>.json; each command must exit with the case's code and print
"<pointer>: <message>" exactly once and no traceback on stderr, and `run`
must leave no OUTDIR/<name>_out behind.  tests/test_cli.py checks the
same table in process.
"""

import json
import subprocess
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("refusals.json")


def load():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def main(outdir):
    outdir = Path(outdir)
    cases, failures = load(), []
    for case in cases:
        config, out = outdir / f"{case['name']}.json", outdir / f"{case['name']}_out"
        config.write_text(json.dumps(case["config"]), encoding="utf-8")
        line = f"{case['pointer']}: {case['message']}"
        for command in case["commands"]:
            argv = ["gqms", command, "--config", str(config)]
            if command == "run":
                argv += ["--output-dir", str(out)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            problems = []
            if proc.returncode != case["exit"]:
                problems.append(f"exit code {proc.returncode}, expected {case['exit']}")
            if proc.stderr.count(line) != 1:
                problems.append(f"stderr names {line!r} {proc.stderr.count(line)} times")
            if "Traceback" in proc.stderr:
                problems.append("stderr holds a traceback")
            if out.exists():
                problems.append(f"{out} was created")
            failures += [f"{case['name']} {command}: {problem}" for problem in problems]
    print("\n".join(failures) or f"{len(cases)} refusal cases checked")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
