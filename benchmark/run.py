#!/usr/bin/env python3
"""hmimo benchmark: run one workload and print its metrics as JSON.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Every measurement happens in a fresh child process
(``child.py``).  With ``--trace 0`` the run starts a few set-up-only
children, then one child that repeats whole rounds of the workload until
``--seconds`` have passed, and reports the end-to-end metrics.  With
``--trace 1`` it runs one round untraced and one round traced, in two
children, and reports the per-layer metrics of the traced round.  Either
way every output row is checked against values computed apart from the
program (``checks.py``), outside the timed region.  The last line of
standard output is the result object; the environment record and any
check failures are printed before it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_CHILDREN = 6
CHILD_TIMEOUT_S = 160.0

END_TO_END_UNITS = {"points_per_s": "1/s", "cpu_s_per_point": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class ChildError(RuntimeError):
    pass


def spawn(job, workdir, tag):
    """Run one child to completion; returns (result or None, seconds until READY)."""
    job_path = workdir / f"job-{tag}.json"
    job["result_path"] = str(workdir / f"result-{tag}.json")
    job["patterns_path"] = str(workdir / f"patterns-{tag}.npz")
    job["spans_path"] = str(workdir / f"spans-{tag}.json")
    job_path.write_text(json.dumps(job), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise ChildError(f"workload process ({tag}) exited with {code}")
    if job["mode"] == "setup":
        return None, ready_s
    return json.loads(Path(job["result_path"]).read_text(encoding="utf-8")), ready_s


def make_job(inputs, workdir, seconds):
    """The child's job description; writes the CLI config file into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    job = {"root": str(ROOT), "inputs": inputs, "workdir": str(workdir), "traced": False,
           "mode": "measure", "seconds": seconds, "rounds": None}
    if inputs["kind"] == "cli":
        job["config_path"] = str(workdir / "config.json")
        (workdir / "config.json").write_text(json.dumps(inputs["cli"]["config"]), encoding="utf-8")
    return job


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def check(inputs, rounds, result, goldens, patterns_path):
    """Check every round's rows; facts from ``result`` (the traced or measured child) help."""
    import numpy as np

    import checks
    patterns = None
    if patterns_path.exists():
        with np.load(patterns_path) as data:
            patterns = {k: data[k] for k in data.files}
    return checks.check_run(inputs, rounds, goldens=goldens,
                            decompositions=result.get("decompositions"), patterns=patterns)


def done_points(rows):
    """Points of one round the program completed (an error string stands for none)."""
    return sum(not isinstance(row, str) for row in rows) if isinstance(rows, list) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    goldens_path = ROOT / "tests" / "_goldens.json"
    if not (ROOT / "src" / "hmimo" / "__init__.py").is_file() or not goldens_path.is_file():
        print(f"no hmimo source checkout at {ROOT}: need src/hmimo and tests/_goldens.json",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    goldens = json.loads(goldens_path.read_text(encoding="utf-8"))
    inputs = workloads.make_inputs(args.workload, args.seed)

    workdir = ROOT / ".bench_build" / "hmimo" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    job = make_job(inputs, workdir, args.seconds)

    try:
        if args.trace == 0:
            setup = [spawn({**job, "mode": "setup"}, workdir, f"setup{i}")[1]
                     for i in range(SETUP_ONLY_CHILDREN)]
            result, ready_s = spawn(job, workdir, "measure")
            setup.append(ready_s)
            walls = {"measure": result["round_walls"]}
            rounds, tag = result["rounds"], "measure"
        else:
            plain, _ = spawn({**job, "rounds": 1}, workdir, "plain")
            result, _ = spawn({**job, "rounds": 1, "traced": True}, workdir, "traced")
            walls = {"plain": plain["round_walls"], "traced": result["round_walls"]}
            # The untraced round must repeat the traced one exactly.
            rounds, tag = result["rounds"] + plain["rounds"], "traced"
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted, failed, wrong, problems = check(inputs, rounds, result, goldens,
                                               workdir / f"patterns-{tag}.npz")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    if args.trace == 0:
        completed = [done_points(rows) for rows in result["rounds"]]
        metrics = {
            "points_per_s": statistics.median(
                n / wall for n, wall in zip(completed, result["round_walls"])),
            "cpu_s_per_point": statistics.median(
                cpu / max(n, 1) for n, cpu in zip(completed, result["round_cpu_s"])),
            "peak_rss_mb": result["maxrss_mib"],
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
    else:
        import tracing
        metrics = dict(result["layer"])
        metrics["trace.overhead_s"] = result["elapsed_s"] - plain["elapsed_s"]
        units = dict(tracing.PER_LAYER)
        metrics = {name: metrics[name] for name in units}

    env = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": inputs.get("cli", {}).get("workers", 1),
        **result["env"],
    }
    print("env " + json.dumps(env, sort_keys=True))
    print("rounds " + json.dumps({"walls_s": walls, "points_per_round": len(inputs["points"])}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
