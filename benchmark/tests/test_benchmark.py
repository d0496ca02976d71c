"""The benchmark's own tests: tiny-geometry runs of every workload, and the checks.

    python3 -m pytest benchmark/tests -q
"""

import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    import json
    return json.loads((run.ROOT / "tests" / "_goldens.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced round of every workload at tiny geometry."""
    out = {}
    for name in workloads.NAMES:
        inputs = workloads.make_inputs(name, seed=3, tiny=True)
        workdir = tmp_path_factory.mktemp(name)
        job = run.make_job(inputs, workdir, seconds=0.0)
        plain, _ = run.spawn({**job, "rounds": 1}, workdir, "plain")
        traced, _ = run.spawn({**job, "rounds": 1, "traced": True}, workdir, "traced")
        out[name] = (inputs, workdir, plain, traced)
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_every_check(name, tiny_runs, goldens):
    inputs, workdir, plain, traced = tiny_runs[name]
    for tag, result in (("plain", plain), ("traced", traced)):
        attempted, failed, wrong, problems = run.check(
            inputs, result["rounds"], result, goldens, workdir / f"patterns-{tag}.npz")
        assert problems == []
        assert (attempted, failed, wrong) == (len(inputs["points"]), 0, 0)
    assert traced["rounds"] == plain["rounds"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_round_reports_every_layer_metric(name, tiny_runs):
    inputs, workdir, plain, traced = tiny_runs[name]
    layer = traced["layer"]
    assert set(layer) == {n for n, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    assert layer["green.assemble_ocm_calls"] == len(inputs["points"])
    assert layer["metrics.nmse_calls"] == 4 * len(inputs["points"])
    assert layer["separable.assemble_calls"] == 4 * len(inputs["points"])
    calls = 5 * len(inputs["points"]) if inputs["decompose"] else 0
    assert layer["capacity.decompose_calls"] == calls
    assert layer["sweep.self_s"] > 0.0
    assert (workdir / "spans-traced.json").is_file()
    assert "layer" not in plain
    if inputs["kind"] == "cli":
        assert layer["sweep.output_bytes"] > 0
        assert len(traced["decompositions"]) == calls


def _first_row(tiny_runs, name):
    inputs, _, plain, _ = tiny_runs[name]
    return inputs, copy.deepcopy(plain["rounds"])


@pytest.mark.parametrize("name", ["distance-capacity", "element-sweep-parallel", "tilted-link"])
@pytest.mark.parametrize("variant", ["OCM", "PSCM12", "FSCM"])
def test_perturbed_capacity_is_a_failed_point(name, variant, tiny_runs):
    inputs, rounds = _first_row(tiny_runs, name)
    index = inputs["capacity_checked"][0]
    rounds[0][index]["capacity"][variant] *= 1.0 + 1e-3
    attempted, failed, wrong, problems = checks.check_run(inputs, rounds)
    assert (failed, wrong) == (1, 1)
    assert any(f"capacity_{variant}" in p for p in problems)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_perturbed_nmse_is_a_failed_point(name, tiny_runs):
    inputs, rounds = _first_row(tiny_runs, name)
    index = inputs["nmse_checked"][-1]
    rounds[0][index]["nmse"]["PSCM123"] *= 1.0 + 1e-3
    attempted, failed, wrong, problems = checks.check_run(inputs, rounds)
    assert (failed, wrong) == (1, 1)
    assert any("nmse_PSCM123" in p for p in problems)


def test_a_later_round_that_differs_fails_its_point(tiny_runs):
    inputs, rounds = _first_row(tiny_runs, "accuracy-sweep")
    second = copy.deepcopy(rounds[0])
    second[2]["nmse"]["FSCM"] = math.nextafter(second[2]["nmse"]["FSCM"], math.inf)
    attempted, failed, wrong, problems = checks.check_run(inputs, rounds + [second])
    assert (attempted, failed, wrong) == (2 * len(inputs["points"]), 1, 1)


def test_a_raising_point_is_failed_but_not_wrong(tiny_runs):
    inputs, rounds = _first_row(tiny_runs, "tilted-link")
    rounds[0][1] = "point 1: DegenerateGeometryError: example"
    attempted, failed, wrong, problems = checks.check_run(inputs, rounds)
    assert (failed, wrong) == (1, 0)


def test_inputs_follow_the_seed():
    a = workloads.make_inputs("tilted-link", 5)
    assert a == workloads.make_inputs("tilted-link", 5)
    assert a["points"] != workloads.make_inputs("tilted-link", 6)["points"]
    full = workloads.make_inputs("distance-capacity", 0)
    assert [p["d0_lambda"] for p in full["points"]] == [0.25, 4.25]
    assert workloads.is_golden_point(full, full["points"][1])


def test_golden_point_checks_catch_a_wrong_pscm_nmse(goldens):
    """The golden comparison runs on the full-size point (reference only, no program run)."""
    inputs = workloads.make_inputs("distance-capacity", 1)
    index = 1
    pt = workloads.reference_point(inputs, inputs["points"][index])
    import reference
    ocm = reference.dyadic_matrix(pt)
    sigma = {v: reference.singular_values(ocm if v == "OCM" else reference.variant_matrix(pt, v))
             for v in ("OCM", "PSCM", "PSCM123", "PSCM12")}
    row = {"x_value": 4.25, "d0_lambda": 4.25, "d_R_lambda": pt.d_r_lambda,
           "capacity": {v: reference.capacity(s, reference.channels_kept(s, 1e-6), pt, 10.0)
                        for v, s in sigma.items()},
           "nmse": {v: reference.nmse(reference.variant_matrix(pt, v), ocm)
                    for v in ("PSCM", "PSCM123", "PSCM12", "FSCM")}}
    row["capacity"]["FSCM"] = reference.far_field_capacity(pt, 10.0)
    assert checks.check_point(inputs, index, row, goldens=goldens) == []
    row["nmse"]["PSCM"] *= 1.0 + 1e-3
    problems = checks.check_point(inputs, index, row, goldens=goldens)
    assert any("golden" in p for p in problems)


def test_benchmark_json_names_what_run_py_prints():
    import json
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
