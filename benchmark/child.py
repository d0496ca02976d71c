"""One workload process: set up, run whole rounds, write what it measured.

``run.py`` starts this file in a fresh interpreter for every measurement,
so imports and set-up are paid the way a user pays them.  Usage:

    python3 benchmark/child.py JOB.json

The job names the workload inputs, the mode (``setup`` stops once the
inputs are validated), whether to trace, and how long or how many rounds
to run.  The process prints ``READY`` once set-up is done; everything else
goes to the result file named in the job.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

PSCM_CODES = {"PSCM": "1234", "PSCM123": "123", "PSCM12": "12"}
MIN_ROUNDS = 3


def blas_info(np):
    """BLAS/LAPACK library as numpy was built against it, and its live thread count."""
    deps = np.__config__.CONFIG.get("Build Dependencies", {})
    info = {k: {"name": deps.get(k, {}).get("name"), "version": deps.get(k, {}).get("version")}
            for k in ("blas", "lapack")}
    threads = None
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        threads = None
    info["blas_threads"] = threads
    info["thread_env"] = {k: os.environ[k] for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                          if k in os.environ}
    return info


class CliWorkload:
    """Rounds are ``hmimo-bench`` invocations through ``hmimo.cli.main``."""

    def __init__(self, job, tracer):
        self.job = job
        inputs = job["inputs"]
        self.cli = inputs["cli"]
        self.points = inputs["points"]
        self.main = importlib.import_module("hmimo.cli").main
        sweep = importlib.import_module("hmimo.sweep")
        experiment = self.cli["config"]["experiment"]
        spec = sweep.load_spec(job["config_path"], experiment=experiment)
        violations = sweep.validate_spec(spec)
        if violations:
            raise SystemExit(f"invalid benchmark config: {violations}")
        lam = importlib.import_module("hmimo.capacity").SPEED_OF_LIGHT / spec.frequency
        spacing = spec.spacing_lambda * lam
        geo = importlib.import_module("hmimo.geometry")
        # Geometry is part of set-up ("validated inputs"); the CLI then builds
        # its own per point, inside the timed region, as it always does.
        self.surfaces = {tuple(p["tx_grid"]): geo.build_planar_surface(*p["tx_grid"], spacing)
                         for p in self.points}
        self.rx = geo.build_planar_surface(*spec.rx_grid, spacing)
        self.links = [geo.LinkGeometry.from_angles(p["d0_lambda"] * lam) for p in self.points]
        self.outputs = []

    def run_round(self, index):
        out = os.path.join(self.job["workdir"], f"round{index}.csv")
        argv = [self.cli["command"], "--config", self.job["config_path"], "--output", out,
                "--workers", str(self.cli["workers"])]
        code = self.main(argv)
        self.outputs.append((out, code))

    def rows(self):
        """Per round: one row dict per point, or an error string for the round."""
        rounds = []
        for path, code in self.outputs:
            if code != 0:
                rounds.append(f"hmimo-bench exited with {code}")
                continue
            with open(path, newline="", encoding="utf-8") as fh:
                records = list(csv.DictReader(fh))
            rows = []
            for rec in records:
                row = {"x_value": float(rec["x_value"]), "d0_lambda": float(rec["d0_lambda"]),
                       "d_R_lambda": float(rec["d_R_lambda"]), "capacity": {}, "nmse": {}}
                for key, value in rec.items():
                    kind, _, variant = key.partition("_")
                    if kind in ("capacity", "nmse") and variant and value != "":
                        row[kind][variant] = float(value)
                rows.append(row)
            rounds.append(rows)
        return rounds


class LibraryWorkload:
    """Rounds call the library directly: assemble, NMSE and, if asked, decompose."""

    def __init__(self, job, tracer):
        cap, geo, green, metrics, separable = (
            importlib.import_module(f"hmimo.{m}")
            for m in ("capacity", "geometry", "green", "metrics", "separable"))
        self.job = job
        inputs = job["inputs"]
        self.inputs = inputs
        fns = {
            "assemble_ocm": green.assemble_ocm,
            "assemble_pscm": separable.assemble_pscm,
            "assemble_fscm": separable.assemble_fscm,
            "nmse": metrics.nmse,
            "eigenchannel_decompose": cap.eigenchannel_decompose,
            "capacity": cap.capacity,
        }
        if tracer is not None:
            fns = {k: tracer.wrap(k, f) for k, f in fns.items()}
        self.api = SimpleNamespace(**fns)
        lam = cap.SPEED_OF_LIGHT / inputs["frequency"]
        spacing = inputs["spacing_lambda"] * lam
        area = spacing * spacing
        with tracer.span("sweep.spec") if tracer else nullcontext():
            self.cfg = cap.PhysicalConfig(
                frequency=inputs["frequency"], a_t=area, a_r=area, noise_var=1.0,
                total_power=10.0 ** (inputs["snr_db"] / 10.0) * area,
            )
            self.policy = cap.PPolicy.parse(f"threshold({inputs['threshold']:g})")
        self.k0 = self.cfg.k0
        self.rx = geo.build_planar_surface(*inputs["rx_grid"], spacing)
        self.work = []
        for p in inputs["points"]:
            tx = geo.build_planar_surface(*p["tx_grid"], spacing)
            link = geo.LinkGeometry.from_angles(p["d0_lambda"] * lam, p["theta"], p["phi"],
                                                rx_rotation=p["rotation"])
            self.work.append((p, tx, link))
        self.variants = sorted(inputs["variants"])
        self.round_rows = []
        self.patterns = {}

    def _assemble(self, variant, tx, link):
        api = self.api
        if variant == "OCM":
            return api.assemble_ocm(tx, self.rx, link, self.k0)
        if variant == "FSCM":
            return api.assemble_fscm(tx, self.rx, link, self.k0)
        return api.assemble_pscm(tx, self.rx, link, self.k0, PSCM_CODES[variant])

    def run_round(self, index):
        api = self.api
        rows = []
        for i, (p, tx, link) in enumerate(self.work):
            row = {"x_value": p["d0_lambda"], "d0_lambda": p["d0_lambda"],
                   "capacity": {}, "nmse": {}, "p_used": {}}
            try:
                ref = self._assemble("OCM", tx, link)
                if self.inputs["decompose"]:
                    mats = {v: (ref if v == "OCM" else self._assemble(v, tx, link))
                            for v in self.variants}
                    for v in self.variants:
                        if v != "OCM":
                            row["nmse"][v] = api.nmse(mats[v], ref)
                    for v in self.variants:
                        eig = api.eigenchannel_decompose(mats[v], self.cfg, self.policy)
                        row["capacity"][v] = api.capacity(eig, self.cfg)
                        row["p_used"][v] = int(eig.p_used)
                        if index == 0:
                            self.patterns[f"{i}_{v}_tx"] = eig.tx_patterns
                            self.patterns[f"{i}_{v}_rx"] = eig.rx_patterns
                            self.patterns[f"{i}_{v}_gains"] = eig.gains[: eig.p_used]
                    del mats, eig
                else:
                    for v in self.variants:
                        if v != "OCM":
                            row["nmse"][v] = api.nmse(self._assemble(v, tx, link), ref)
                del ref
            except Exception as exc:  # a failed point is counted, the round goes on
                row = f"point {i}: {type(exc).__name__}: {exc}"
            rows.append(row)
        self.round_rows.append(rows)

    def rows(self):
        return self.round_rows


def cpu_seconds():
    """User plus system CPU time of this process, all threads included."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def done(job, walls, elapsed):
    """Whole rounds until the time is up; at least MIN_ROUNDS when a round is shorter than that."""
    if job["rounds"] is not None:
        return len(walls) >= job["rounds"]
    if not walls or elapsed < job["seconds"]:
        return False
    return len(walls) >= MIN_ROUNDS or walls[0] >= job["seconds"]


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    tracer = None
    if job["traced"]:
        import tracing
        tracer = tracing.Tracer()
    import numpy as np
    import hmimo.cli
    import hmimo.sweep
    if tracer is not None and job["inputs"]["kind"] == "cli":
        tracer.install([hmimo.sweep, hmimo.cli])
    kind = CliWorkload if job["inputs"]["kind"] == "cli" else LibraryWorkload
    work = kind(job, tracer)
    print("READY", flush=True)
    if job["mode"] == "setup":
        return 0

    if tracer is not None:
        import tracemalloc
        tracemalloc.start()
    walls, cpus = [], []
    t0 = time.perf_counter()
    while not done(job, walls, time.perf_counter() - t0):
        cpu0, start = cpu_seconds(), time.perf_counter()
        if tracer is not None and kind is LibraryWorkload:
            with tracer.root_span("round"):
                work.run_round(len(walls))
        else:
            work.run_round(len(walls))
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_seconds() - cpu0)
    elapsed = time.perf_counter() - t0
    result = {
        "elapsed_s": elapsed,
        "round_walls": walls,
        "round_cpu_s": cpus,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": work.rows(),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            **blas_info(np),
        },
    }
    if kind is LibraryWorkload and work.patterns:
        np.savez(job["patterns_path"], **work.patterns)
    if tracer is not None:
        tracemalloc.stop()
        result["layer"] = tracing.layer_metrics(tracer.spans, tracer.output_bytes)
        result["decompositions"] = tracer.decompositions
        tracer.dump(job["spans_path"])
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
