"""Command line behavior: exit codes, overrides, output handling."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hmimo import BlockChannelMatrix, DegenerateGeometryError, default_spec
from hmimo import sweep as sweep_module
from hmimo.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from hmimo.green import _claimed, _grid_lattice

DESK_POINT = {
    "experiment": "single-point",
    "tx_grid": [9, 9],
    "rx_grid": [5, 5],
    "spacing_lambda": 0.05,
    "d0_range_lambda": [1.0],
}


@pytest.fixture
def point_config(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(DESK_POINT), encoding="utf-8")
    return str(path)


def _distance_config(tmp_path, **extra):
    payload = {
        "experiment": "distance",
        "tx_grid": [9, 9],
        "rx_grid": [5, 5],
        "spacing_lambda": 0.05,
        "d0_range_lambda": {"start": 0.5, "stop": 1.5, "step": 0.5},
    }
    payload.update(extra)
    path = tmp_path / "distance.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_point_run_writes_csv(point_config, tmp_path):
    out = tmp_path / "row.csv"
    assert main(["point", "--config", point_config, "--output", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("x_value,d_R_lambda,d0_lambda,")
    assert lines[1].split(",")[0] == "1.0"


def test_point_run_defaults_to_stdout(point_config, capsys):
    assert main(["point", "--config", point_config, "--variants", "OCM"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("x_value,")
    assert "nmse" not in text


def test_dump_singular_values_adds_columns(point_config, capsys):
    code = main(["point", "--config", point_config, "--variants", "OCM",
                 "--dump-singular-values", "2"])
    assert code == EXIT_OK
    header = capsys.readouterr().out.split("\n", 1)[0]
    assert header.endswith("sv1_OCM,sv2_OCM")


def test_json_singular_values_are_sorted_and_match_the_csv(point_config, capsys):
    flags = ["--variants", "PSCM,OCM", "--dump-singular-values", "3"]
    assert main(["point", "--config", point_config, *flags]) == EXIT_OK
    header, cells = capsys.readouterr().out.strip().split("\n")
    csv = dict(zip(header.split(","), cells.split(",")))
    assert main(["point", "--config", point_config, "--format", "json", *flags]) == EXIT_OK

    def sorted_keys(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    (row,) = json.loads(capsys.readouterr().out, object_pairs_hook=sorted_keys)
    assert list(row["singular_values"]) == ["OCM", "PSCM"]
    for name, values in row["singular_values"].items():
        assert [repr(v) for v in values] == [csv[f"sv{j}_{name}"] for j in (1, 2, 3)]


def test_json_format_flag(point_config, tmp_path):
    out = tmp_path / "row.json"
    code = main(["point", "--config", point_config, "--format", "json",
                 "--output", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload[0]["x_value"] == 1.0


def test_snr_override_changes_capacity(point_config, tmp_path):
    low = tmp_path / "low.csv"
    high = tmp_path / "high.csv"
    assert main(["point", "--config", point_config, "--output", str(low),
                 "--snr-db", "0"]) == EXIT_OK
    assert main(["point", "--config", point_config, "--output", str(high),
                 "--snr-db", "20"]) == EXIT_OK
    header = low.read_text().split("\n")[0].split(",")
    cap_col = header.index("capacity_OCM")
    low_cap = float(low.read_text().split("\n")[1].split(",")[cap_col])
    high_cap = float(high.read_text().split("\n")[1].split(",")[cap_col])
    assert high_cap > low_cap


def test_distance_sweep_with_workers(tmp_path):
    config = _distance_config(tmp_path)
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    assert main(["sweep-distance", "--config", config, "--output", str(serial)]) == EXIT_OK
    assert main(["sweep-distance", "--config", config, "--output", str(threaded),
                 "--workers", "4"]) == EXIT_OK
    assert serial.read_bytes() == threaded.read_bytes()


def test_element_sweep_subcommand(tmp_path):
    payload = {
        "experiment": "tx-elements",
        "rx_grid": [5, 5],
        "spacing_lambda": 0.05,
        "d0_range_lambda": [1.0],
        "n_list": [5, 9],
        "variants": ["OCM"],
    }
    config = tmp_path / "elements.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "elements.csv"
    assert main(["sweep-elements", "--config", str(config), "--output", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert [line.split(",")[0] for line in lines[1:]] == ["25", "81"]


@pytest.mark.parametrize("command,runner", [("sweep-distance", "run_distance_sweep"),
                                            ("sweep-elements", "run_element_sweep")])
@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_fail_validation(monkeypatch, capsys, command, runner, workers):
    def must_not_run(spec):
        raise AssertionError("the sweep ran despite an invalid worker count")

    monkeypatch.setattr(f"hmimo.cli.{runner}", must_not_run)
    assert main([command, "--workers", workers]) == EXIT_CONFIG
    assert "--workers" in capsys.readouterr().err


def test_negative_dump_count_fails_validation(monkeypatch, point_config, capsys):
    def must_not_run(spec, dump_singular_values=0):
        raise AssertionError("the point ran despite a negative dump count")

    monkeypatch.setattr("hmimo.cli.run_single_point", must_not_run)
    code = main(["point", "--config", point_config, "--dump-singular-values", "-3"])
    assert code == EXIT_CONFIG
    assert "--dump-singular-values" in capsys.readouterr().err


def test_threshold_at_the_tie_tolerance_fails_validation(monkeypatch, tmp_path, capsys):
    # a cut at 1e-12 sigma_1 or lower would keep the zeros that pad a spectrum
    def must_not_run(spec, dump_singular_values=0):
        raise AssertionError("the point ran despite an invalid threshold")

    monkeypatch.setattr("hmimo.cli.run_single_point", must_not_run)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(dict(DESK_POINT, p_policy="threshold(1e-12)")), encoding="utf-8")
    assert main(["point", "--config", str(path)]) == EXIT_CONFIG
    assert "p_policy" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("the run started despite an invalid config")


_TINY_POINT = dict(DESK_POINT, tx_grid=[3, 3], rx_grid=[2, 2])
_TINY_DISTANCE = dict(_TINY_POINT, experiment="distance",
                      d0_range_lambda={"start": 0.5, "stop": 1.0, "step": 0.5})
_TINY_ELEMENTS = dict(_TINY_POINT, experiment="tx-elements", n_list=[2, 3])
# each element area is finite and positive here, but a_r * a_t can still leave the float range
_AREA_POINT = dict(_TINY_POINT, tx_grid=[2, 2], rx_grid=[2, 2], d0_range_lambda=[2.0])


@pytest.mark.parametrize("command,config,flags", [
    pytest.param("point", dict(_TINY_POINT, d0_range_lambda=["x"]), [], id="d0-string"),
    pytest.param("sweep-distance", dict(_TINY_DISTANCE, d0_range_lambda={
        "start": "a", "stop": 1.0, "step": 0.5}), [], id="d0-start-string"),
    pytest.param("sweep-distance", dict(_TINY_DISTANCE, d0_range_lambda={
        "start": 0.5, "stop": np.inf, "step": 0.5}), [], id="d0-stop-inf"),
    pytest.param("point", dict(_TINY_POINT, d0_range_lambda=[np.inf]), [], id="d0-inf"),
    pytest.param("point", dict(_TINY_POINT, d0_range_lambda=[None]), [], id="d0-null"),
    pytest.param("point", dict(_TINY_POINT, d0_range_lambda=[True]), [], id="d0-bool"),
    pytest.param("point", dict(_TINY_POINT, d0_range_lambda=1.5), [], id="d0-lone-number"),
    pytest.param("point", dict(_TINY_POINT, spacing_lambda=np.inf), [], id="spacing-inf"),
    pytest.param("point", dict(_TINY_POINT, frequency=True), [], id="frequency-bool"),
    pytest.param("point", _TINY_POINT, ["--snr-db", "nan"], id="snr-nan"),
    pytest.param("point", _TINY_POINT, ["--snr-db", "inf"], id="snr-inf"),
    pytest.param("point", _TINY_POINT, ["--snr-db=-inf"], id="snr-minus-inf"),
    pytest.param("point", _TINY_POINT, ["--snr-db", "4000"], id="snr-overflow"),
    pytest.param("point", dict(_TINY_POINT, snr_db=-4000), [], id="snr-underflow"),
    pytest.param("sweep-distance", dict(_TINY_DISTANCE, d0_range_lambda={
        "start": 0.25, "stop": 1e300, "step": 1e-300}), [], id="d0-count-overflow"),
    pytest.param("sweep-distance", dict(_TINY_DISTANCE, d0_range_lambda={
        "start": 1.0, "stop": 0.5, "step": 0.5}), [], id="d0-stop-below-start"),
    pytest.param("sweep-distance", dict(_TINY_DISTANCE, d0_range_lambda={
        "start": 0.25, "stop": -1e300, "step": 1e-300}), [], id="d0-span-overflow"),
    pytest.param("point", dict(_TINY_POINT, output_path=7), [], id="output-path-int"),
    pytest.param("point", dict(_TINY_POINT, output_path=""), [], id="output-path-empty"),
    pytest.param("point", _TINY_POINT, ["--output", ""], id="output-flag-empty"),
    pytest.param("sweep-distance", {"experiment": ["distance"]}, [], id="experiment-list"),
    pytest.param("point", {"experiment": {"kind": "single-point"}}, [], id="experiment-object"),
    pytest.param("point", dict(_TINY_POINT, variants=[["OCM"]]), [], id="variants-nested"),
    pytest.param("point", dict(_TINY_POINT, variants="OCM"), [], id="variants-string"),
    pytest.param("sweep-elements", dict(_TINY_ELEMENTS, n_list=[2, 2]), [], id="n-list-repeat"),
    pytest.param("sweep-elements", dict(_TINY_ELEMENTS, d0_range_lambda=[1.0, 1.0]), [],
                 id="d0-repeat"),
    pytest.param("sweep-distance", dict(_TINY_DISTANCE, d0_range_lambda=[0.5, 0.5]), [],
                 id="d0-list-repeat"),
    pytest.param("point", b'{"experiment": "single-point", "p_policy": "fixed(1)\xff"}', [],
                 id="not-utf8"),
    pytest.param("point", dict(_TINY_POINT, frequency=1e-300), [], id="frequency-tiny"),
    pytest.param("point", dict(_TINY_POINT, frequency=1e300), [], id="frequency-huge"),
    pytest.param("point", dict(_TINY_POINT, spacing_lambda=1e200), [], id="area-overflow"),
    pytest.param("point", dict(_TINY_POINT, spacing_lambda=1e-200), [], id="area-underflow"),
    pytest.param("point", dict(_AREA_POINT, spacing_lambda=1e-101), ["--dump-singular-values", "2"],
                 id="area-product-underflow"),
    pytest.param("point", dict(_AREA_POINT, frequency=1e100), ["--dump-singular-values", "2"],
                 id="frequency-area-product-underflow"),
    pytest.param("point", dict(_AREA_POINT, spacing_lambda=1e78), [], id="area-product-overflow"),
    pytest.param("point", dict(_TINY_POINT, frequency=1e8, d0_range_lambda=[1e308]), [],
                 id="d0-overflow"),
    pytest.param("point", dict(_TINY_POINT, frequency=1e8, d0_range_lambda=[1e-320]), [],
                 id="d0-underflow"),
    # each distance is finite and positive, but a square the kernels take is not
    pytest.param("point", dict(_TINY_POINT, frequency=1e8, d0_range_lambda=[1e-300]), [],
                 id="d0-square-underflow"),
    pytest.param("point", dict(_TINY_POINT, frequency=1e8, d0_range_lambda=[1e299]), [],
                 id="d0-square-overflow"),
    pytest.param("point", dict(_TINY_POINT, frequency=1e4, d0_range_lambda=[1e-157]), [],
                 id="k0-d0-square-subnormal"),
    # each square is fine, but the separable factors' w2 / d0^2 = 3 / ((k0 d0)^2 d0^2) is not
    pytest.param("point", dict(_TINY_POINT, spacing_lambda=0.05, frequency=1e4,
                               d0_range_lambda=[1e-100]), [], id="aperture-far-above-d0"),
    # the factors' largest entry, about (1 / d0) (k0 d0)^-2 (r_max / d0)^2, overflows
    pytest.param("point", dict(_TINY_POINT, spacing_lambda=0.05, frequency=3e-69,
                               d0_range_lambda=[1.6e-101]), [], id="factor-entry-overflow"),
    # each factor is finite, but the squares of the ~2e159 kernel entries nmse sums are not
    pytest.param("point", dict(_TINY_POINT, spacing_lambda=1e-72, frequency=4.8e-43,
                               d0_range_lambda=[1.6e-71]), [], id="kernel-entry-square-overflow"),
    # kernel entries stay small, but the separable blocks hold w2 (q - p)(q - p)' / d0^2,
    # about (r_max / d0)^2 ~ 1e155, whose squares nmse sums (it wrote inf before)
    pytest.param("point", dict(_TINY_POINT, spacing_lambda=1e76, frequency=3e8,
                               d0_range_lambda=[0.1]), [], id="separable-entry-square-overflow"),
    # n = 2 alone validates; the range rule must bound the largest TX grid, 1000 x 1000
    pytest.param("sweep-elements", dict(_TINY_ELEMENTS, rx_grid=[2, 2], n_list=[2, 1000],
                                        spacing_lambda=1e71, frequency=3e8,
                                        d0_range_lambda=[0.1]), [], id="largest-n-entry-overflow"),
    pytest.param("point", [_TINY_POINT], [], id="root-list"),
    # counts beyond the float range, which the aperture extent would take as floats
    pytest.param("point", dict(_TINY_POINT, tx_grid=[10**400, 1]), [], id="tx-grid-huge"),
    pytest.param("point", dict(_TINY_POINT, rx_grid=[1, 10**400]), [], id="rx-grid-huge"),
    pytest.param("sweep-elements", dict(_TINY_ELEMENTS, n_list=[2, 10**400]), [],
                 id="n-list-huge"),
    # an integer of more digits than int() reads
    pytest.param("point", b'{"experiment": "single-point", "tx_grid": [1%s, 1]}' % (b"0" * 5000),
                 [], id="tx-grid-too-long"),
])
def test_bad_config_values_fail_before_any_work(monkeypatch, tmp_path, capsys, command, config,
                                                flags):
    for runner in ("run_distance_sweep", "run_element_sweep", "run_single_point"):
        monkeypatch.setattr(f"hmimo.cli.{runner}", _must_not_run)
    path = tmp_path / "bad.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(path), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid sweep config" in err
    if "snr" not in repr((config, flags)):
        # a fault elsewhere is not blamed on the default SNR
        assert "snr_db" not in err


@pytest.mark.parametrize("command,runner", [("sweep-distance", "run_distance_sweep"),
                                            ("sweep-elements", "run_element_sweep"),
                                            ("point", "run_single_point")])
def test_a_run_without_config_takes_the_default_spec_and_the_flags(monkeypatch, command,
                                                                    runner):
    seen = []
    monkeypatch.setattr(f"hmimo.cli.{runner}", lambda spec, **kwargs: seen.append(spec) or [])
    monkeypatch.setattr("hmimo.cli.write_rows", lambda rows, spec: None)
    flags = ["--variants", "OCM,FSCM", "--snr-db", "3", "--format", "json"]
    assert main([command, *flags]) == EXIT_OK
    experiment = {"sweep-distance": "distance", "sweep-elements": "tx-elements",
                  "point": "single-point"}[command]
    want = replace(default_spec(experiment), variants=("OCM", "FSCM"), snr_db=3.0,
                   output_format="json")
    assert seen == [want]


_GRIDS_POINT = {"experiment": "single-point", "tx_grid": [3, 3], "rx_grid": [2, 2]}


def test_faults_in_the_file_and_the_flags_come_back_together(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("hmimo.cli.run_single_point", _must_not_run)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(_GRIDS_POINT, spacing_lambda=-1.0)), encoding="utf-8")
    flags = ["--snr-db", "nan", "--variants", "PSCM"]
    assert main(["point", "--config", str(path), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "spacing_lambda" in err and "snr_db" in err and "OCM must be included" in err
    # the flag range checks still run first and alone
    assert main(["point", "--config", str(path), *flags, "--dump-singular-values", "-1"]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--dump-singular-values" in err and "spacing_lambda" not in err


def test_an_experiment_mismatch_comes_back_with_the_other_faults(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("hmimo.cli.run_distance_sweep", _must_not_run)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(_GRIDS_POINT), encoding="utf-8")
    assert main(["sweep-distance", "--config", str(path), "--snr-db", "nan"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'single-point' does not match 'distance'" in err and "snr_db" in err


def test_a_flag_replaces_the_file_value_before_the_check(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr("hmimo.cli.run_single_point", lambda spec, **kwargs: seen.append(spec))
    monkeypatch.setattr("hmimo.cli.write_rows", lambda rows, spec: None)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(dict(_GRIDS_POINT, snr_db="x")), encoding="utf-8")
    assert main(["point", "--config", str(path), "--snr-db", "3", "--variants", "OCM"]) == EXIT_OK
    assert [(spec.snr_db, spec.variants) for spec in seen] == [(3.0, ("OCM",))]


def test_huge_distance_count_fails_before_the_grid_is_built(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("hmimo.cli.run_distance_sweep", _must_not_run)
    path = tmp_path / "huge.json"
    config = dict(_TINY_DISTANCE, d0_range_lambda={"start": 0.25, "stop": 1e15, "step": 1})
    path.write_text(json.dumps(config), encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["sweep-distance", "--config", str(path)]) == EXIT_CONFIG
        # a list of even the 10**6 capped points would take tens of MiB
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert "1000000000000001 points" in capsys.readouterr().err


def test_a_point_too_large_to_allocate_exits_as_a_config_error(monkeypatch, point_config, tmp_path,
                                                              capsys):
    # stands in for a grid such as 100000 x 100000, which passes validation but
    # asks numpy for tens of GiB; the real config is not run
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(sweep_module, "build_planar_surface", too_large)
    out = tmp_path / "rows.csv"
    assert main(["point", "--config", point_config, "--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "configuration too large to run: Unable to allocate 74.5 GiB for an array\n"
    assert not out.exists()


def test_missing_output_directory_fails_before_any_point(monkeypatch, tmp_path):
    monkeypatch.setattr("hmimo.cli.run_distance_sweep", _must_not_run)
    out = tmp_path / "missing" / "rows.csv"
    code = main(["sweep-distance", "--config", _distance_config(tmp_path), "--output", str(out)])
    assert code == EXIT_IO
    assert not out.parent.exists()


@pytest.mark.parametrize("command,runner", [("sweep-distance", "run_distance_sweep"),
                                            ("sweep-elements", "run_element_sweep"),
                                            ("point", "run_single_point")])
def test_existing_output_directory_fails_before_any_point(monkeypatch, tmp_path, command, runner):
    monkeypatch.setattr(f"hmimo.cli.{runner}", _must_not_run)
    path = tmp_path / "tiny.json"
    config = {"sweep-distance": _TINY_DISTANCE, "point": _TINY_POINT}.get(
        command, dict(_TINY_POINT, experiment="tx-elements", n_list=[3]))
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(path), "--output", str(tmp_path)]) == EXIT_IO


def test_huge_snr_gives_finite_capacities(tmp_path):
    # total power 10^307.5 times the element area is finite, but mu * snr overflows
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_TINY_POINT), encoding="utf-8")
    out = tmp_path / "row.csv"
    assert main(["point", "--config", str(path), "--snr-db", "3075", "--output", str(out)]) == EXIT_OK
    header, row = out.read_text(encoding="utf-8").strip().split("\n")
    caps = [float(v) for c, v in zip(header.split(","), row.split(",")) if c.startswith("capacity_")]
    assert len(caps) == 5
    assert all(np.isfinite(caps)) and min(caps) > 1000.0


def test_variants_without_reference_fail_validation(point_config):
    assert main(["point", "--config", point_config, "--variants", "PSCM"]) == EXIT_CONFIG


def test_unknown_config_key_fails_validation(tmp_path):
    bad = dict(DESK_POINT, spacing=0.05)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["point", "--config", str(path)]) == EXIT_CONFIG


def test_config_experiment_must_match_subcommand(point_config):
    assert main(["sweep-distance", "--config", point_config]) == EXIT_CONFIG


def test_invalid_json_fails_validation(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["point", "--config", str(path)]) == EXIT_CONFIG


def test_missing_config_is_an_io_error():
    assert main(["point", "--config", "/no/such/file.json"]) == EXIT_IO


def test_unwritable_output_is_an_io_error(point_config):
    code = main(["point", "--config", point_config, "--variants", "OCM",
                 "--output", "/no/such/dir/out.csv"])
    assert code == EXIT_IO


def test_degenerate_geometry_exit_code(monkeypatch, tmp_path):
    config = _distance_config(tmp_path)

    def explode(spec):
        raise DegenerateGeometryError("projection factor is not positive")

    monkeypatch.setattr("hmimo.cli.run_distance_sweep", explode)
    assert main(["sweep-distance", "--config", config]) == EXIT_DEGENERATE


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_channel_is_a_numerical_failure(monkeypatch, point_config, capsys, value):
    def poisoned(tx, rx, link, k0):
        matrix = np.ones((3 * rx.count, 3 * tx.count), dtype=complex)
        matrix[0, 0] = value
        return BlockChannelMatrix(matrix, "OCM")

    monkeypatch.setattr(sweep_module, "assemble_ocm", poisoned)
    assert main(["point", "--config", point_config, "--variants", "OCM"]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_mirrored_channel_is_a_numerical_failure(monkeypatch, point_config, capsys):
    def poisoned(tx, rx, link, k0):
        table = np.ones((rx.n_v + tx.n_v - 1, rx.n_h + tx.n_h - 1, 3, 3), dtype=complex)
        table[1, 0, 2, 2] = np.nan
        lattice = _grid_lattice(tx, rx, link)
        assert lattice.mirror
        return _claimed(table, "OCM", lattice)

    monkeypatch.setattr(sweep_module, "assemble_ocm", poisoned)
    assert main(["point", "--config", point_config, "--variants", "OCM"]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_unconverged_svd_is_a_numerical_failure(monkeypatch, point_config):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["point", "--config", point_config, "--variants", "OCM"]) == EXIT_NUMERICAL
