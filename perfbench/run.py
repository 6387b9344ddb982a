"""gqms benchmark: time to a verdict end to end, and a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py and listed with their reasons in
BENCHMARK.json.  The load is a closed loop of one client: one process per
workload runs one scenario at a time through `gqms.cli.run_scenario`,
with BLAS threads capped at the number of usable CPUs.

`--trace 0` prints the end-to-end metrics:
  run_s        median time of one pass over the workload's configs (run
               context, tasks, report.json and CSV files), timed after one
               warm-up pass, for about `--seconds` seconds;
  setup_s      median over fresh processes of importing gqms and building
               the objects the tasks share (setup_probe.py);
  peak_rss_mb  peak resident memory of this process (ru_maxrss).
Both times are wall seconds scaled to a reference CPU speed: the
calibration loop in calibration.py is timed just before each pass and in
each set-up process, so the host's changing load cancels.  The plain
wall-clock medians are printed beside them.
It also prints fail_frac, failed tasks over attempted tasks.  fail_frac
is 0 on most workloads, so it is carried by the `attempted`/`failed`
fields of the result line rather than as a bounded metric.

`--trace 1` runs untraced and traced passes in turn and prints the
per-layer metrics of the traced passes (spans.py), with
trace.overhead_s = median traced pass - median untraced pass.  The spans
are written to .perfbench_out/ when the run ends.

Every pass checks the exit code, that report.json exists, and each
task's `passed` flag against the expected verdicts; a mismatch outside
workloads.KNOWN_FAILURES makes `correct` false.  The warm-up pass runs
the default-seed inputs and its `tasks` and `passed` fields are compared
with perfbench/reference/ (the drift report: verdict fields equal,
largest relative float deviation), as information, not a gate.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_MIN_SAMPLES = 5  # fresh processes per run; more while under SETUP_BUDGET_S
SETUP_MAX_SAMPLES = 12
SETUP_BUDGET_S = 4.0
PROBE_TIMEOUT_S = 120
PERCENTILES = (50, 90, 95, 99, 99.9)
SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; Python has no symbolic name for it


def run_pass(configs, outdir, expected, known):
    """Run every config once through cli.run_scenario and check its outputs.

    Returns a dict: seconds (wall time inside run_scenario), attempted,
    failed, problems (unexpected outcomes), output_bytes and reports.
    """
    from gqms import cli

    result = {"seconds": 0.0, "attempted": 0, "failed": 0, "problems": [],
              "output_bytes": 0, "reports": {}}
    for name, config in configs:
        target = outdir / name
        shutil.rmtree(target, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            code, _ = cli.run_scenario(config, target)
            error = None
        except Exception as exc:  # a raising task is a counted failure, not a crash
            traceback.print_exc(file=sys.stderr)
            error = f"raised {type(exc).__name__}: {exc}"
        result["seconds"] += time.perf_counter() - t0
        report_path = target / "report.json"
        if error is None and not report_path.is_file():
            error = "no report.json"
        if error:
            result["attempted"] += len(config["tasks"])
            result["failed"] += len(config["tasks"])
            result["problems"].append(f"{name}: {error}")
            continue
        report = json.loads(report_path.read_text(encoding="utf-8"))
        tasks = report["tasks"]
        if [t["name"] for t in tasks] != [t["name"] for t in config["tasks"]]:
            result["problems"].append(f"{name}: report tasks differ from the config")
        flags = [bool(t["passed"]) for t in tasks]
        for i, task in enumerate(tasks):
            result["attempted"] += 1
            if flags[i] != expected[(name, i)]:
                result["failed"] += 1
                if (name, task["name"]) not in known:
                    result["problems"].append(
                        f"{name}/{task['name']}: passed={flags[i]}, "
                        f"expected {expected[(name, i)]}")
        want_code = 0 if all(flags) else 2
        if code != want_code or report["passed"] != all(flags):
            result["problems"].append(
                f"{name}: exit code {code}, report passed={report['passed']}, "
                f"task flags give exit code {want_code}")
        result["output_bytes"] += sum(p.stat().st_size for p in target.iterdir())
        result["reports"][name] = report
    return result


# The fields of report.json that the program computes; the rest (timestamps,
# library versions, the echoed input config) is not an output to compare.
OUTPUT_FIELDS = ("tasks", "passed")


def output_fields(report):
    return {k: report[k] for k in OUTPUT_FIELDS}


def drift(reports, reference):
    """(verdict fields equal, largest relative float deviation, where) against a reference."""
    state = {"equal": True, "max_rel": 0.0, "where": None, "first_diff": None}

    def differ(path):
        state["equal"] = False
        state["first_diff"] = state["first_diff"] or path

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            if set(a) != set(b):
                differ(path)
            for k in sorted(set(a) & set(b)):
                walk(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                differ(path)
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(a, float) and isinstance(b, float):
            scale = max(abs(a), abs(b))
            rel = abs(a - b) / scale if scale > 0 else 0.0
            if rel > state["max_rel"]:
                state["max_rel"], state["where"] = rel, path
        elif type(a) is not type(b) or a != b:
            differ(path)

    walk({k: output_fields(v) for k, v in reports.items()}, reference, "")
    return state


def percentile_label(n):
    """Highest standard percentile with at least ten samples beyond it, or None."""
    fit = [p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10]
    return max(fit) if fit else None


def percentile(values, p):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]


def measure_setup(configs, run_dir):
    """Set-up samples over several fresh processes: [(wall seconds, calibration scale)]."""
    from workloads import DENSITY_TASKS

    path = run_dir / "setup_configs.json"
    path.write_text(json.dumps([
        {"name": name, "config": config,
         "lindbladian": any(t["name"] in DENSITY_TASKS for t in config["tasks"])}
        for name, config in configs]), encoding="utf-8")
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_MIN_SAMPLES or (
            len(samples) < SETUP_MAX_SAMPLES
            and time.perf_counter() - start < SETUP_BUDGET_S):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(path)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["scale"]))
    return samples


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def llc_mb():
    try:
        size = os.sysconf(SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        return None
    return size / 2 ** 20 if size > 0 else None


def environment(args):
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    return {"git_sha": git_sha(), "src_sha256": src_sha256(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "blas_threads": int(os.environ[BLAS_VARS[0]]),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "llc_mb": llc_mb()}


class Session:
    """Counts tasks and problems over every pass of one benchmark process."""

    def __init__(self, workload, run_dir):
        import workloads  # imports numpy, so only after prepare()

        self.workloads = workloads
        self.workload = workload
        self.run_dir = run_dir
        self.known = workloads.KNOWN_FAILURES.get(workload, set())
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, configs):
        result = run_pass(configs, self.run_dir, self.workloads.expected(configs), self.known)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        return result

    def warm_up(self):
        """One pass on the default-seed inputs, compared with the stored reference."""
        result = self.run(self.workloads.build(self.workload, self.workloads.DEFAULT_SEED))
        reference = REFERENCE / f"{self.workload}.json"
        return drift(result["reports"], json.loads(reference.read_text(encoding="utf-8")))


def untraced(args, session, configs):
    setup = measure_setup(configs, session.run_dir)
    drift_state = session.warm_up()
    wall, scaled = [], []
    start = time.perf_counter()
    while True:
        scale = calibration.scale()
        wall.append(session.run(configs)["seconds"])
        scaled.append(wall[-1] * scale)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(wall) > args.seconds:
            break
    values = {
        "run_s": statistics.median(scaled),
        "setup_s": statistics.median(s * k for s, k in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p = percentile_label(len(scaled))
    print(f"run_s samples: {len(scaled)} passes ({', '.join(f'{t:.4f}' for t in scaled)} s); "
          f"highest percentile with >= 10 samples beyond it: "
          f"{f'p{p:g} = {percentile(scaled, p):.4f} s' if p else 'none'}")
    print(f"run wall s: median {statistics.median(wall):.4f} "
          f"({', '.join(f'{t:.4f}' for t in wall)})")
    print(f"setup_s samples: {', '.join(f'{s * k:.4f}' for s, k in setup)} s; "
          f"wall s: median {statistics.median(s for s, _ in setup):.4f} "
          f"({', '.join(f'{s:.4f}' for s, _ in setup)})")
    return values, drift_state


def traced(args, session, configs, spec):
    import spans

    tracer = spans.Tracer()
    drift_state = session.warm_up()
    plain, timed, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(session.run(configs)["seconds"])
        tracer.pass_id += 1
        tracer.install()
        try:
            result = session.run(configs)
        finally:
            tracer.uninstall()
        timed.append(result["seconds"])
        metrics = spans.pass_metrics(tracer, session.workloads.FOCUS[args.workload])
        metrics["cli.output_bytes"] = result["output_bytes"]
        per_pass.append(metrics)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(timed) > args.seconds:
            break
    names = [m["name"] for m in spec["per_layer"]]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = statistics.median(timed) - statistics.median(plain)
        elif name == "env.llc_mb":
            values[name] = llc_mb() or 0.0
        else:
            values[name] = statistics.median(m[name] for m in per_pass)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "environment": environment(args),
        "untraced_pass_s": plain, "traced_pass_s": timed,
        "per_pass": per_pass, "spans": tracer.dump(start)}), encoding="utf-8")
    print(f"trace: {len(timed)} traced and {len(plain)} untraced passes; "
          f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    return values, drift_state


def prepare():
    """Cap BLAS threads at the usable CPUs and put this checkout's src/ first on the path.

    Runs before numpy is imported; returns False when src/ has no gqms package.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    if not (ROOT / "src" / "gqms" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        print(f"error: no gqms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import gqms
    import workloads

    if Path(gqms.__file__).resolve().parent != ROOT / "src" / "gqms":
        print(f"error: imported gqms from {gqms.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    configs = workloads.build(args.workload, args.seed)
    run_dir = OUT / f"run-{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    session = Session(args.workload, run_dir)
    try:
        if args.trace:
            values, drift_state = traced(args, session, configs, spec)
        else:
            values, drift_state = untraced(args, session, configs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("environment: " + json.dumps(environment(args), sort_keys=True))
    print(f"drift vs reference (seed {workloads.DEFAULT_SEED}): verdict fields equal="
          f"{drift_state['equal']}"
          + (f" (first difference at {drift_state['first_diff']})"
             if not drift_state["equal"] else "")
          + f"; max relative float deviation={drift_state['max_rel']:.3e}"
          + (f" at {drift_state['where']}" if drift_state["where"] else ""))
    for problem in session.problems:
        print(f"problem: {problem}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, unit in units.items():
        print(f"{name:<55} {values[name]:>16.6g} {unit}")
    known = ", ".join(sorted(f"{c}/{t}" for c, t in session.known))
    print(f"{'fail_frac':<55} {session.failed / session.attempted:>16.6g} ratio "
          f"({session.failed} of {session.attempted} tasks"
          + (f"; known baseline failure: {known}" if known else "") + ")")
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
