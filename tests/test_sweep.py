"""Benchmark sweep layer: spec handling, runners, and deterministic output."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hmimo import (
    EXPERIMENTS,
    MODEL_VARIANTS,
    PSCM_CODES,
    ConfigError,
    LinkGeometry,
    NumericalError,
    PhysicalConfig,
    PPolicy,
    SweepSpec,
    assemble_ocm,
    assemble_pscm,
    build_planar_surface,
    capacity,
    default_spec,
    eigenchannel_decompose,
    load_spec,
    nmse,
    rows_to_csv,
    rows_to_json,
    run_distance_sweep,
    run_element_sweep,
    run_single_point,
    spec_from_json_dict,
    spec_to_json_dict,
    validate_spec,
)
from hmimo import sweep as sweep_module

DESK = dict(tx_grid=(9, 9), rx_grid=(5, 5), spacing_lambda=0.05)


@pytest.fixture(scope="module")
def desk_distance_rows():
    spec = SweepSpec(
        experiment="distance",
        d0_range_lambda=(0.5, 1.0, 1.5, 2.0),
        **DESK,
    )
    return spec, run_distance_sweep(spec)


def test_default_specs_validate():
    for experiment in ("distance", "tx-elements", "single-point"):
        assert validate_spec(default_spec(experiment)) == []
    with pytest.raises(ConfigError):
        default_spec("frequency-sweep")


def test_default_distance_grid_has_seventeen_points():
    grid = default_spec("distance").d0_range_lambda
    assert len(grid) == 17
    assert grid[0] == pytest.approx(0.25)
    assert grid[-1] == pytest.approx(4.25)
    # the range rule start + i * step, bit for bit
    assert grid == tuple(0.25 + i * 0.25 for i in range(17))


def test_spec_json_round_trip():
    for experiment in ("distance", "tx-elements", "single-point"):
        spec = default_spec(experiment)
        again = spec_from_json_dict(json.loads(json.dumps(spec_to_json_dict(spec))))
        assert again == spec


def test_readme_config_example_is_the_default_distance_spec():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert spec_from_json_dict(json.loads(example)) == default_spec("distance")


def test_range_and_list_forms_load_for_every_experiment():
    for experiment, count in (("distance", 3), ("tx-elements", 2), ("single-point", 1)):
        step = 0.5 if count > 1 else 1.0
        ranged = spec_from_json_dict({"experiment": experiment, "d0_range_lambda": {
            "start": 0.5, "stop": 0.5 + (count - 1) * step, "step": step}})
        listed = spec_from_json_dict({"experiment": experiment,
                                      "d0_range_lambda": list(ranged.d0_range_lambda)})
        assert ranged == listed
        assert len(ranged.d0_range_lambda) == count


def test_each_experiment_visits_its_count_of_distances():
    for experiment in ("distance", "tx-elements", "single-point"):
        assert any("got 0" in v for v in validate_spec(SweepSpec(experiment=experiment)))
    for experiment, most in (("tx-elements", 2), ("single-point", 1)):
        over = SweepSpec(experiment=experiment, d0_range_lambda=(1.0, 2.0, 3.0)[:most + 1])
        assert any(f"got {most + 1}" in v for v in validate_spec(over))
    assert any("tuple" in v for v in validate_spec(SweepSpec(
        experiment="distance", d0_range_lambda={"start": 0.5, "stop": 1.0, "step": 0.5})))


def test_variants_must_be_a_list_of_strings():
    for value in ("OCM", [["OCM"]]):
        with pytest.raises(ConfigError) as err:
            spec_from_json_dict({"experiment": "single-point", "variants": value})
        (violation,) = err.value.violations
        assert "list of strings" in violation
    spec = SweepSpec(experiment="single-point", d0_range_lambda=(1.0,), variants=["OCM"])
    assert validate_spec(spec) == []


def test_unknown_config_keys_are_rejected():
    with pytest.raises(ConfigError) as err:
        spec_from_json_dict({"experiment": "distance", "spacing": 0.01})
    assert any("unknown config key" in v for v in err.value.violations)


def test_validation_collects_every_violation():
    spec = SweepSpec(
        experiment="distance",
        tx_grid=(0, 9),
        spacing_lambda=-1.0,
        d0_range_lambda=default_spec("distance").d0_range_lambda,
        variants=("PSCM", "PSCM"),
        p_policy="median(3)",
        output_format="xml",
    )
    violations = validate_spec(spec)
    assert len(violations) >= 5
    joined = "\n".join(violations)
    assert "tx_grid" in joined
    assert "spacing_lambda" in joined
    assert "repeat" in joined
    assert "p_policy" in joined
    assert "output_format" in joined


def test_non_ocm_variants_require_the_reference():
    spec = SweepSpec(
        experiment="single-point", d0_range_lambda=(1.0,), variants=("PSCM", "FSCM"), **DESK
    )
    violations = validate_spec(spec)
    assert any("OCM must be included" in v for v in violations)
    with pytest.raises(ConfigError):
        run_single_point(spec)


def test_experiment_mismatch_is_rejected():
    with pytest.raises(ConfigError):
        run_element_sweep(default_spec("distance"))


def test_distance_rows_cross_check_against_direct_calls(desk_distance_rows):
    spec, rows = desk_distance_rows
    row = rows[2]  # d0 = 1.5
    assert row.x_value == pytest.approx(1.5)

    lam = 299792458.0 / spec.frequency
    spacing = spec.spacing_lambda * lam
    tx = build_planar_surface(9, 9, spacing)
    rx = build_planar_surface(5, 5, spacing)
    link = LinkGeometry.from_angles(1.5 * lam)
    cfg = PhysicalConfig(
        frequency=spec.frequency, a_t=spacing**2, a_r=spacing**2,
        total_power=10.0 ** (spec.snr_db / 10.0) * spacing**2,
    )
    ref = assemble_ocm(tx, rx, link, cfg.k0)
    sep = assemble_pscm(tx, rx, link, cfg.k0)
    assert row.nmse["PSCM"] == pytest.approx(nmse(sep, ref), rel=1e-12)
    eigs = eigenchannel_decompose(ref, cfg, PPolicy.parse(spec.p_policy))
    assert row.capacity["OCM"] == pytest.approx(capacity(eigs, cfg), rel=1e-12)


def test_rayleigh_column_is_constant(desk_distance_rows):
    _, rows = desk_distance_rows
    values = {row.d_r_lambda for row in rows}
    assert len(values) == 1
    assert values.pop() == pytest.approx(1.96, rel=1e-12)


def test_third_block_never_hurts_at_moderate_range(desk_distance_rows):
    _, rows = desk_distance_rows
    for row in rows:
        assert row.nmse["PSCM123"] <= row.nmse["PSCM12"]


def test_separable_models_close_ranks_with_distance(desk_distance_rows):
    _, rows = desk_distance_rows
    first = abs(rows[0].nmse["FSCM"] - rows[0].nmse["PSCM"])
    last = abs(rows[-1].nmse["FSCM"] - rows[-1].nmse["PSCM"])
    assert last < first


def test_a_failed_point_stops_the_sweep(monkeypatch):
    spec = spec_from_json_dict({"experiment": "distance", "tx_grid": [3, 3], "rx_grid": [2, 2],
                                "spacing_lambda": 0.05,
                                "d0_range_lambda": {"start": 0.5, "stop": 100.0, "step": 0.5}})
    real = sweep_module._evaluate_point
    calls = []

    def failing_first(spec, tx_grid, d0, x_value, dump_k=0):
        calls.append(d0)
        if d0 == 0.5:
            raise NumericalError("the first point fails")
        return real(spec, tx_grid, d0, x_value, dump_k)

    monkeypatch.setattr(sweep_module, "_evaluate_point", failing_first)
    with pytest.raises(NumericalError):
        run_distance_sweep(spec)
    # points run in order, so none of the 199 after the failed one is evaluated
    assert calls == [0.5]


def test_element_sweep_ordering_and_trends():
    spec = SweepSpec(
        experiment="tx-elements", rx_grid=(5, 5), spacing_lambda=0.05,
        d0_range_lambda=(2.5, 0.75), n_list=(13, 5, 9),
    )
    rows = run_element_sweep(spec)
    assert [(r.x_value, r.d0_lambda) for r in rows] == [
        (25, 0.75), (25, 2.5), (81, 0.75), (81, 2.5), (169, 0.75), (169, 2.5)
    ]
    for d0 in (0.75, 2.5):
        caps = [r.capacity["OCM"] for r in rows if r.d0_lambda == d0]
        assert all(b >= a for a, b in zip(caps, caps[1:]))
    for n in (25, 81, 169):
        near = next(r for r in rows if r.x_value == n and r.d0_lambda == 0.75)
        far = next(r for r in rows if r.x_value == n and r.d0_lambda == 2.5)
        for variant in ("PSCM", "PSCM123", "PSCM12", "FSCM"):
            assert far.nmse[variant] < near.nmse[variant]


def test_csv_layout_and_reproducibility(desk_distance_rows):
    spec, rows = desk_distance_rows
    text = rows_to_csv(rows, spec.variants)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "x_value,d_R_lambda,d0_lambda,"
        "capacity_FSCM,nmse_FSCM,capacity_OCM,"
        "capacity_PSCM,nmse_PSCM,capacity_PSCM12,nmse_PSCM12,"
        "capacity_PSCM123,nmse_PSCM123"
    )
    assert len(lines) == 1 + len(rows)
    # repr round-trips floats exactly
    first = lines[1].split(",")
    assert float(first[0]) == rows[0].x_value
    assert float(first[5]) == rows[0].capacity["OCM"]
    assert rows_to_csv(rows, spec.variants) == text


def test_json_output_mirrors_the_rows(desk_distance_rows):
    spec, rows = desk_distance_rows
    payload = json.loads(rows_to_json(rows, spec.variants))
    assert len(payload) == len(rows)
    assert payload[0]["x_value"] == rows[0].x_value
    assert payload[0]["capacity"]["OCM"] == rows[0].capacity["OCM"]
    assert payload[0]["nmse"]["PSCM123"] == rows[0].nmse["PSCM123"]


def test_single_point_row_matches_the_distance_row():
    pspec = SweepSpec(experiment="single-point", d0_range_lambda=(1.5,), **DESK)
    dspec = SweepSpec(experiment="distance", d0_range_lambda=(1.5,), **DESK)
    point = run_single_point(pspec)
    row = run_distance_sweep(dspec)[0]
    assert rows_to_csv([point], pspec.variants) == rows_to_csv([row], dspec.variants)


def test_single_point_can_dump_singular_values():
    spec = SweepSpec(
        experiment="single-point", d0_range_lambda=(1.0,), variants=("OCM",), **DESK
    )
    row = run_single_point(spec, dump_singular_values=3)
    svs = row.singular_values["OCM"]
    assert len(svs) == 3
    assert svs[0] >= svs[1] >= svs[2] > 0
    text = rows_to_csv([row], spec.variants)
    header = text.split("\n", 1)[0]
    assert header == "x_value,d_R_lambda,d0_lambda,capacity_OCM,sv1_OCM,sv2_OCM,sv3_OCM"
    # raw spectrum: the top singular value matches a direct decomposition
    lam = 299792458.0 / spec.frequency
    spacing = 0.05 * lam
    tx = build_planar_surface(9, 9, spacing)
    rx = build_planar_surface(5, 5, spacing)
    G = assemble_ocm(tx, rx, LinkGeometry.from_angles(1.0 * lam), 2 * np.pi / lam)
    top = np.linalg.svd(G.matrix, compute_uv=False)[0]
    assert svs[0] == pytest.approx(top, rel=1e-12)


def test_each_variant_is_assembled_once_through_the_module_names(monkeypatch):
    # stand-ins for the module-level names, as a tracer would install them
    calls = []

    def counting(name):
        real = getattr(sweep_module, name)

        def stand_in(tx, rx, link, k0, *code):
            calls.append((name, *code))
            return real(tx, rx, link, k0, *code)
        return stand_in

    for name in ("assemble_ocm", "assemble_pscm", "assemble_fscm"):
        monkeypatch.setattr(sweep_module, name, counting(name))
    spec = SweepSpec(experiment="single-point", tx_grid=(3, 3), rx_grid=(2, 2),
                     spacing_lambda=0.05, d0_range_lambda=(1.0,))
    row = run_single_point(spec)
    want = [("assemble_ocm",), ("assemble_fscm",),
            *(("assemble_pscm", code) for code in PSCM_CODES.values())]
    assert sorted(calls) == sorted(want)
    assert sorted(row.capacity) == sorted(MODEL_VARIANTS)


def test_a_boresight_point_never_forms_a_factored_product(monkeypatch):
    # the four separable variants of a built-in point are stored as factors
    # and the OCM reference as its offset table; assembly, nmse against OCM
    # and the spectrum-only decomposition read them without forming a dense
    # matrix
    built = []

    def keeping(name):
        real = getattr(sweep_module, name)

        def stand_in(*args):
            built.append(real(*args))
            return built[-1]
        return stand_in

    for name in ("assemble_ocm", "assemble_pscm", "assemble_fscm"):
        monkeypatch.setattr(sweep_module, name, keeping(name))
    spec = SweepSpec(experiment="single-point", d0_range_lambda=(1.5,), **DESK)
    row = run_single_point(spec)
    assert sorted(row.nmse) == ["FSCM", "PSCM", "PSCM12", "PSCM123"]
    factored = [G for G in built if G.variant != "OCM"]
    assert len(factored) == 4 and all(G.factors is not None for G in factored)
    assert all("matrix" not in vars(G) for G in factored)
    (ref,) = [G for G in built if G.variant == "OCM"]
    assert ref.entries.ndim == 4 and "matrix" not in vars(ref)


def test_nmse_against_a_tilted_lattice_reference_forms_no_dense_reference():
    # tilted but parallel: still a lattice, so the OCM table is all nmse reads
    spacing = 0.05 * 299792458.0 / 2.4e9
    tx, rx = build_planar_surface(9, 9, spacing), build_planar_surface(5, 5, spacing)
    link = LinkGeometry.from_angles(0.1, theta=0.3, phi=0.7)
    k0 = PhysicalConfig(frequency=2.4e9, a_t=1.0, a_r=1.0).k0
    ref = assemble_ocm(tx, rx, link, k0)
    assert ref.lattice is not None and not ref.lattice.mirror
    for code in PSCM_CODES.values():
        assert 0.0 < nmse(assemble_pscm(tx, rx, link, k0, code), ref) < 1.0
    assert "matrix" not in vars(ref)


def test_distance_count_is_capped_at_a_million_points():
    at_cap = spec_from_json_dict({"experiment": "distance",
                                  "d0_range_lambda": {"start": 1.0, "stop": 1e6, "step": 1.0}})
    assert len(at_cap.d0_range_lambda) == 10**6
    with pytest.raises(ConfigError) as err:
        spec_from_json_dict({"experiment": "distance",
                             "d0_range_lambda": {"start": 1.0, "stop": 1e6 + 1.0, "step": 1.0}})
    (violation,) = err.value.violations
    assert "1000001 points" in violation


@pytest.mark.parametrize("d0,message", [
    ({"start": 1.0, "stop": 2.0}, "keys must be start, stop and step"),
    ({"start": 1.0, "stop": "2", "step": 1.0}, "must be finite numbers"),
    ({"start": 1.0, "stop": 2.0, "step": 0.0}, "step must be positive"),
    ({"start": 2.0, "stop": 1.0, "step": 0.5}, "stop must be >= start"),
    ({"start": 0.25, "stop": -1e300, "step": 1e-300}, "stop must be >= start"),
    (1.5, "must be a {start, stop, step} range or a list of distances"),
])
def test_a_range_fault_is_the_only_violation(d0, message):
    for experiment in EXPERIMENTS:
        with pytest.raises(ConfigError) as err:
            spec_from_json_dict({"experiment": experiment, "d0_range_lambda": d0})
        (violation,) = err.value.violations
        assert message in violation


def test_a_range_fault_is_reported_with_the_other_violations():
    with pytest.raises(ConfigError) as err:
        spec_from_json_dict({"experiment": "distance", "snr_db": "x",
                             "d0_range_lambda": {"start": 1.0, "stop": 2.0, "step": -1.0}})
    assert len(err.value.violations) == 2
    assert "step must be positive" in err.value.violations[0]
    assert "snr_db" in err.value.violations[1]


def test_ocm_only_run_emits_no_nmse_columns():
    spec = SweepSpec(
        experiment="single-point", d0_range_lambda=(1.0,), variants=("OCM",), **DESK
    )
    row = run_single_point(spec)
    assert row.nmse == {}
    header = rows_to_csv([row], spec.variants).split("\n", 1)[0]
    assert "nmse" not in header


def test_load_spec_reads_files(tmp_path):
    path = tmp_path / "spec.json"
    payload = {
        "experiment": "single-point",
        "tx_grid": [9, 9],
        "rx_grid": [5, 5],
        "spacing_lambda": 0.05,
        "d0_range_lambda": [1.0],
        "variants": ["OCM", "PSCM"],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    spec = load_spec(str(path))
    assert spec.tx_grid == (9, 9)
    assert spec.variants == ("OCM", "PSCM")

    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_spec(str(path))


def test_a_config_without_experiment_takes_the_given_one(tmp_path):
    path = tmp_path / "spec.json"
    payload = {"tx_grid": [9, 9], "rx_grid": [5, 5], "d0_range_lambda": [1.0]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    spec = load_spec(str(path), experiment="single-point")
    assert spec == spec_from_json_dict(dict(payload, experiment="single-point"))
    with pytest.raises(ConfigError, match="missing the 'experiment' key"):
        spec_from_json_dict({})


def test_a_config_naming_another_experiment_is_reported_with_its_other_faults(tmp_path):
    payload = {"experiment": "single-point", "tx_grid": [3, 3], "rx_grid": [2, 2]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for load in (lambda: spec_from_json_dict(payload, experiment="distance"),
                 lambda: load_spec(str(path), "distance")):
        with pytest.raises(ConfigError) as err:
            load()
        assert err.value.violations == ["config experiment 'single-point' does not match "
                                        "'distance'"]
    with pytest.raises(ConfigError) as err:
        spec_from_json_dict(dict(payload, snr_db="x"), experiment="distance")
    assert len(err.value.violations) == 2 and "snr_db" in err.value.violations[1]
    assert load_spec(str(path), "single-point") == spec_from_json_dict(payload)


@pytest.mark.parametrize("n_list", [[], [0], [2.0], [True]])
def test_n_list_must_hold_counts(n_list):
    with pytest.raises(ConfigError) as err:
        spec_from_json_dict({"experiment": "tx-elements", "n_list": n_list})
    (violation,) = err.value.violations
    assert violation.startswith("n_list must be a non-empty list of integers >= 1")


def test_an_unknown_variant_is_named():
    with pytest.raises(ConfigError) as err:
        spec_from_json_dict({"experiment": "single-point", "variants": ["OCM", "PSCM4"]})
    (violation,) = err.value.violations
    assert violation.startswith("unknown variant 'PSCM4'")


def test_a_single_violation_is_listed_alone():
    err = ConfigError("one")
    assert err.violations == ["one"]
    assert str(err) == "invalid sweep config:\n  - one"
