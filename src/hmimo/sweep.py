"""Benchmark sweeps: distance grids, element-count grids, single points.

A sweep is described by a :class:`SweepSpec` (JSON-serializable, strict
schema).  Every experiment is a list of (TX grid, d0) points: a distance
sweep visits each of the spec's distances with its TX grid, an element
sweep every (N x N TX grid, d0) pair, a single point its one distance.
Each point assembles the requested model variants at the point's
geometry, scores every non-OCM variant against the OCM reference by
NMSE, and computes the uniform-power eigenchannel capacity of every
variant.  Points run one at a time in x-order, and the CSV/JSON
writers format values reproducibly so identical specs yield
byte-identical files.

CSV column order: ``x_value, d_R_lambda, d0_lambda``, then one block per
variant in alphabetical order (``capacity_<variant>`` and, for non-OCM
variants when OCM is present, ``nmse_<variant>``), then optional
``sv<j>_<variant>`` columns when singular values are dumped.  The x value
is d0 in wavelengths for distance sweeps and single points, and the TX
element count N for element sweeps; ``d0_lambda`` makes element-sweep
rows unambiguous when two link distances run in one sweep.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .capacity import SPEED_OF_LIGHT, PhysicalConfig, PPolicy, capacity, eigenchannel_decompose
from .errors import ConfigError
from .geometry import LinkGeometry, build_planar_surface, rayleigh_distance
from .green import MODEL_VARIANTS, PSCM_CODES, assemble_ocm
from .metrics import nmse
from .separable import assemble_fscm, assemble_pscm

__all__ = [
    "EXPERIMENTS",
    "DEFAULT_N_LIST",
    "SweepSpec",
    "SweepResultRow",
    "default_spec",
    "spec_from_json_dict",
    "spec_to_json_dict",
    "load_spec",
    "validate_spec",
    "run_distance_sweep",
    "run_element_sweep",
    "run_single_point",
    "rows_to_csv",
    "rows_to_json",
    "write_rows",
]

EXPERIMENTS = ("distance", "tx-elements", "single-point")

DEFAULT_N_LIST = (9, 13, 17, 21, 25, 29, 33, 37, 41)

# The built-in distances, in the JSON form of d0_range_lambda.
_DEFAULT_D0 = {
    "distance": {"start": 0.25, "stop": 4.25, "step": 0.25},
    "tx-elements": (0.75, 2.5),
    "single-point": (4.25,),
}

# The most distances each experiment may visit; every one visits at least one.
_D0_COUNT = {"distance": 10**6, "tx-elements": 2, "single-point": 1}


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one benchmark run.

    ``d0_range_lambda`` holds the distinct distances the run visits, in
    wavelengths: up to 10**6 for distance sweeps, one or two for element
    sweeps and exactly one for single points.  :func:`spec_from_json_dict`
    expands a JSON {start, stop, step} range into it.  ``p_policy`` is the
    textual form accepted by :meth:`PPolicy.parse`.
    """

    experiment: str
    tx_grid: tuple[int, int] = (41, 41)
    rx_grid: tuple[int, int] = (15, 15)
    spacing_lambda: float = 0.01
    d0_range_lambda: tuple[float, ...] = ()
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    variants: tuple[str, ...] = MODEL_VARIANTS
    frequency: float = 2.4e9
    snr_db: float = 10.0
    p_policy: str = "threshold(1e-6)"
    output_path: str | None = None
    output_format: str = "csv"


@dataclass(frozen=True)
class SweepResultRow:
    """One sweep point: x value, geometry context, per-variant results."""

    x_value: float
    d0_lambda: float
    d_r_lambda: float
    nmse: dict[str, float]
    capacity: dict[str, float]
    singular_values: dict[str, tuple[float, ...]] = field(default_factory=dict)


def default_spec(experiment: str) -> SweepSpec:
    """The built-in benchmark configuration for one experiment kind."""
    return spec_from_json_dict({"experiment": experiment})


def _is_real(value) -> bool:
    """Whether a config value is a finite real number that fits a float; bools do not count."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _as_float(value):
    """A finite real as float; anything else as given, for validate_spec to report."""
    return float(value) if _is_real(value) else value


def _d0_points(value, violations: list[str]) -> tuple | None:
    """The distances a JSON ``d0_range_lambda`` names, finite reals as floats.

    A {start, stop, step} object gives ``start + i * step`` for every i
    whose value stays within ``stop + 1e-9 * step``; its point count is
    checked against the cap before any point is built.  A faulty range
    gives None, with its faults in ``violations``.  A list gives its
    entries, a lone value itself.
    """
    if not isinstance(value, dict):
        return tuple(_as_float(v) for v in (value if isinstance(value, (list, tuple)) else [value]))
    if set(value) != {"start", "stop", "step"}:
        violations.append(f"d0 range keys must be start, stop and step, got {list(value)}")
        return None
    if not all(_is_real(x) for x in value.values()):
        violations.append(f"d0 range start, stop and step must be finite numbers, got {value!r}")
        return None
    start, stop, step = (float(value[k]) for k in ("start", "stop", "step"))
    if step <= 0:
        violations.append(f"d0 range step must be positive, got {step}")
    if stop < start:
        violations.append("d0 range stop must be >= start")
    if step <= 0 or stop < start:
        return None
    steps = (stop - start) / step
    count = int(round(steps)) + 1 if math.isfinite(steps) else math.inf
    if count > _D0_COUNT["distance"]:
        violations.append(f"d0 range {value!r} holds {count} points, above {_D0_COUNT['distance']}")
        return None
    points = (start + i * step for i in range(count))
    return tuple(x for x in points if x <= stop + 1e-9 * step)


def spec_from_json_dict(data: dict, experiment: str | None = None) -> SweepSpec:
    """Build a spec from a JSON object, rejecting unknown keys.

    ``experiment`` supplies the experiment kind when the object omits it
    (e.g. when the CLI subcommand already determines it).  A missing
    ``d0_range_lambda`` takes the experiment's built-in distances; a range
    object is expanded here (:func:`_d0_points`).
    """
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a JSON object"])
    known = {f.name for f in fields(SweepSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError([f"unknown config key {k!r}" for k in unknown])
    merged = dict(data)
    if "experiment" not in merged:
        if experiment is None:
            raise ConfigError(["config is missing the 'experiment' key"])
        merged["experiment"] = experiment
    d0 = merged.get("d0_range_lambda")
    if d0 is None:
        d0 = _DEFAULT_D0[merged["experiment"]] if merged["experiment"] in EXPERIMENTS else ()
    violations = []
    points = _d0_points(d0, violations)
    # a faulty range stands alone: the rest is checked with one stand-in distance
    merged["d0_range_lambda"] = (1.0,) if points is None else points
    for key in ("tx_grid", "rx_grid", "n_list", "variants"):
        if key in merged and isinstance(merged[key], list):
            merged[key] = tuple(merged[key])
    spec = SweepSpec(**merged)
    violations += validate_spec(spec)
    if violations:
        raise ConfigError(violations)
    return spec


def spec_to_json_dict(spec: SweepSpec) -> dict:
    """JSON form of a spec; parsing it back yields an identical spec."""
    values = ((f.name, getattr(spec, f.name)) for f in fields(SweepSpec))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def _read_config(path: str):
    """The JSON value a config file holds, not yet checked against the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError([f"config file is not UTF-8 text: {exc}"]) from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of more digits than int() reads
        raise ConfigError([f"config file is not valid JSON: {exc}"]) from exc


def load_spec(path: str, experiment: str | None = None) -> SweepSpec:
    """Read and validate a JSON config file."""
    return spec_from_json_dict(_read_config(path), experiment=experiment)


def _counts(value) -> bool:
    """Whether a config value is a tuple of integers >= 1 that fit a float; bools do not count."""
    return isinstance(value, tuple) and all(
        isinstance(n, int) and _is_real(n) and n >= 1 for n in value)


def validate_spec(spec: SweepSpec) -> list[str]:
    """All schema violations in a spec; empty when the spec is runnable."""
    v: list[str] = []
    if spec.experiment not in EXPERIMENTS:
        v.append(f"experiment must be one of {EXPERIMENTS}, got {spec.experiment!r}")
    grid_ok = {}
    for name in ("tx_grid", "rx_grid"):
        grid = getattr(spec, name)
        grid_ok[name] = _counts(grid) and len(grid) == 2
        if not grid_ok[name]:
            v.append(f"{name} must be a pair of integers >= 1 that fit a float, got {grid!r}")
    # the largest TX grid a point builds, None when it is not valid
    tx_max = spec.tx_grid if grid_ok["tx_grid"] else None
    if spec.experiment == "tx-elements":
        n_ok = _counts(spec.n_list) and spec.n_list
        if not n_ok:
            v.append("n_list must be a non-empty list of integers >= 1 that fit a float, "
                     f"got {spec.n_list!r}")
        elif len(set(spec.n_list)) != len(spec.n_list):
            v.append("n_list must not repeat")
        tx_max = (max(spec.n_list),) * 2 if n_ok else None
    scale_ok = True
    for name in ("spacing_lambda", "frequency"):
        value = getattr(spec, name)
        if not (_is_real(value) and value > 0):
            v.append(f"{name} must be a positive finite number, got {value!r}")
            scale_ok = False
    if scale_ok:
        try:
            PhysicalConfig(frequency=spec.frequency, a_t=1.0, a_r=1.0)
        except ValueError as exc:
            v.append(str(exc))
            scale_ok = False
    lam, _, area = _point_scale(spec) if scale_ok else (None, None, None)
    # a_r * a_t = area^2 scales every gain, so it must not underflow or overflow either
    if scale_ok and not 0.0 < area * area < math.inf:
        v.append(f"spacing_lambda {spec.spacing_lambda!r} at frequency {spec.frequency!r} "
                 "gives an element area, or an area product a_r * a_t, that is not finite "
                 "and positive")
        scale_ok = False
    if not _is_real(spec.snr_db):
        v.append(f"snr_db must be a finite real number, got {spec.snr_db!r}")
    elif scale_ok and not 0.0 < _total_power(spec, area) < math.inf:
        v.append(f"snr_db {spec.snr_db!r} gives a total power that is not finite and positive")

    d0 = spec.d0_range_lambda
    if not isinstance(d0, tuple):
        v.append(f"d0_range_lambda must be a tuple of distances, got {type(d0).__name__}")
    else:
        # `in` compares, so an unhashable experiment never reaches the table lookup
        if spec.experiment in EXPERIMENTS and not 1 <= len(d0) <= _D0_COUNT[spec.experiment]:
            v.append(f"d0_range_lambda must hold 1 to {_D0_COUNT[spec.experiment]} distance(s) "
                     f"for {spec.experiment}, got {len(d0)}")
        bad = [x for x in d0 if not (_is_real(x) and x > 0)]
        if bad:
            v.append(f"every d0 value must be a positive finite number, got {bad[0]!r}")
        elif len(set(d0)) != len(d0):
            v.append("d0 values must not repeat")
        if scale_ok and not bad:
            # the kernels square the distance d0 lambda and k0 d = 2 pi d0, and invert both;
            # the separable factors hold (q / d0)^2 as well
            extent = (_aperture_extent(spec, lam, tx_max)
                      if tx_max is not None and grid_ok["rx_grid"] else None)
            off = []
            for x in d0:
                d, kd = x * lam, 2.0 * math.pi * x
                ys = (d, kd) if extent is None or d == 0.0 else (d, kd, extent[0] / d)
                if not (all(0.0 < y * y < math.inf and 1.0 / (y * y) < math.inf for y in ys)
                        and (extent is None or _entry_bound(d, kd, *extent) < math.inf)):
                    off.append(x)
            if off:
                v.append(f"d0_range_lambda {off[0]!r} at frequency {spec.frequency!r} and "
                         f"spacing_lambda {spec.spacing_lambda!r} gives a squared link distance "
                         "(d0 lambda)^2 or (k0 d0)^2, or (r_max / d0)^2 with r_max the sum of "
                         "the aperture half-diagonals, or the inverse of one, that is not finite "
                         "and positive, or channel entries of about (1 / d0) max(1, (k0 d0)^-2) "
                         "max(1, (r_max / d0)^2) whose squares summed over every entry are not "
                         "finite")

    if not (isinstance(spec.variants, (list, tuple)) and spec.variants
            and all(isinstance(x, str) for x in spec.variants)):
        v.append(f"variants must be a non-empty list of strings, got {spec.variants!r}")
    else:
        unknown = [x for x in spec.variants if x not in MODEL_VARIANTS]
        for x in unknown:
            v.append(f"unknown variant {x!r}, expected one of {MODEL_VARIANTS}")
        if len(set(spec.variants)) != len(spec.variants):
            v.append("variants must not repeat")
        non_ocm = [x for x in spec.variants if x != "OCM" and x in MODEL_VARIANTS]
        if non_ocm and "OCM" not in spec.variants:
            v.append("OCM must be included whenever NMSE output is requested "
                     "(any non-OCM variant implies NMSE against OCM)")

    try:
        PPolicy.parse(spec.p_policy)
    except (ValueError, TypeError, AttributeError) as exc:
        v.append(f"p_policy: {exc}")

    if not (spec.output_path is None or (isinstance(spec.output_path, str) and spec.output_path)):
        v.append(f"output_path must be a non-empty string or null, got {spec.output_path!r}")
    if spec.output_format not in ("csv", "json"):
        v.append(f"output_format must be 'csv' or 'json', got {spec.output_format!r}")
    return v


def _aperture_extent(spec: SweepSpec, lam: float, tx_grid) -> tuple[float, float]:
    """The sum of the TX and the RX aperture half-diagonals, in meters, and the element pairs.

    ``tx_grid`` is the largest TX grid a point of the spec builds, so both bound every point.
    """
    diagonals = math.hypot(*tx_grid) + math.hypot(*spec.rx_grid)
    pairs = float(tx_grid[0]) * tx_grid[1] * spec.rx_grid[0] * spec.rx_grid[1]
    return 0.5 * spec.spacing_lambda * lam * diagonals, pairs


def _entry_bound(d: float, kd: float, reach: float, pairs: float) -> float:
    """About the largest channel entry at link distance ``d``, squared and summed over ``pairs``.

    A kernel entry is at most about (1 / d) max(1, (k d)^-2), and an entry
    of the separable factors or blocks that times max(1, (reach / d)^2),
    which bounds both; ``nmse`` sums the squares of the 9 entries of every
    pair.  Inf when the sum, or the bound itself, leaves the float range.
    """
    bound = (1.0 / d) * max(1.0, 1.0 / (kd * kd)) * max(1.0, (reach / d) * (reach / d))
    return bound * bound * (9 * pairs)


def _assemble(name, tx, rx, link, k0):
    """One variant, through the module-level assembler names (looked up per call)."""
    if name == "OCM":
        return assemble_ocm(tx, rx, link, k0)
    if name == "FSCM":
        return assemble_fscm(tx, rx, link, k0)
    return assemble_pscm(tx, rx, link, k0, PSCM_CODES[name])


def _point_scale(spec: SweepSpec):
    """Wavelength, element spacing and element area."""
    lam = SPEED_OF_LIGHT / spec.frequency
    spacing = spec.spacing_lambda * lam
    return lam, spacing, spacing * spacing


def _total_power(spec: SweepSpec, area: float) -> float:
    """Total power 10^(snr_db/10) * area, inf on overflow."""
    try:
        return 10.0 ** (spec.snr_db / 10.0) * area
    except OverflowError:
        return math.inf


def _evaluate_point(spec: SweepSpec, tx_grid, d0_lambda: float, x_value, dump_k: int = 0):
    """Assemble, score and decompose every requested variant at one point."""
    lam, spacing, area = _point_scale(spec)
    tx = build_planar_surface(tx_grid[0], tx_grid[1], spacing)
    rx = build_planar_surface(spec.rx_grid[0], spec.rx_grid[1], spacing)
    link = LinkGeometry.from_angles(d0_lambda * lam)
    cfg = PhysicalConfig(
        frequency=spec.frequency,
        a_t=area,
        a_r=area,
        noise_var=1.0,
        total_power=_total_power(spec, area),
    )
    policy = PPolicy.parse(spec.p_policy)
    k0 = cfg.k0

    order = sorted(spec.variants)
    ref = _assemble("OCM", tx, rx, link, k0) if "OCM" in order else None
    nmse_map = {}
    cap_map = {}
    sv_map = {}
    scale = float(np.sqrt(cfg.a_r * cfg.a_t))
    for name in order:
        mat = ref if name == "OCM" else _assemble(name, tx, rx, link, k0)
        if ref is not None and name != "OCM":
            nmse_map[name] = nmse(mat, ref)
        eigs = eigenchannel_decompose(mat, cfg, policy, patterns=False)
        cap_map[name] = capacity(eigs, cfg)
        if dump_k > 0:
            sv_map[name] = tuple(float(g) / scale for g in eigs.gains[:dump_k])
    return SweepResultRow(
        x_value=x_value,
        d0_lambda=float(d0_lambda),
        d_r_lambda=rayleigh_distance(tx, rx, lam) / lam,
        nmse=nmse_map,
        capacity=cap_map,
        singular_values=sv_map,
    )


def _run(spec: SweepSpec, experiment: str, dump_k: int = 0):
    """Validate the spec, then evaluate its points one at a time in ascending order.

    Element sweeps visit ((n, n), d0) for every n and d0 with x value n^2;
    the other experiments visit (tx_grid, d0) with x value d0.  A point
    already keeps every core busy through the BLAS threads, so points do
    not run concurrently; the first failing point ends the run, and no
    later point is evaluated.
    """
    if spec.experiment != experiment:
        raise ConfigError([f"spec experiment {spec.experiment!r} does not match {experiment!r}"])
    violations = validate_spec(spec)
    if violations:
        raise ConfigError(violations)
    d0s = sorted(spec.d0_range_lambda)
    if experiment == "tx-elements":
        points = [((n, n), d0, n * n) for n in sorted(spec.n_list) for d0 in d0s]
    else:
        points = [(spec.tx_grid, d0, d0) for d0 in d0s]
    return [_evaluate_point(spec, *point, dump_k) for point in points]


def run_distance_sweep(spec: SweepSpec) -> list[SweepResultRow]:
    """One row per distance, ascending in d0, evaluated one point at a time."""
    return _run(spec, "distance")


def run_element_sweep(spec: SweepSpec) -> list[SweepResultRow]:
    """One row per (N, d0) pair, ordered by N then d0, evaluated one point at a time."""
    return _run(spec, "tx-elements")


def run_single_point(spec: SweepSpec, dump_singular_values: int = 0) -> SweepResultRow:
    """A single sweep point, optionally dumping the top singular values."""
    return _run(spec, "single-point", dump_k=dump_singular_values)[0]


def _columns(rows, variants):
    order = sorted(variants)
    with_nmse = "OCM" in order and len(order) > 1
    cols = ["x_value", "d_R_lambda", "d0_lambda"]
    for name in order:
        cols.append(f"capacity_{name}")
        if with_nmse and name != "OCM":
            cols.append(f"nmse_{name}")
    sv_counts = {len(row.singular_values.get(name, ())) for row in rows for name in order}
    sv_counts.discard(0)
    if sv_counts:
        k = max(sv_counts)
        for name in order:
            cols.extend(f"sv{j}_{name}" for j in range(1, k + 1))
    return cols


def _row_cells(row: SweepResultRow, cols):
    values = {
        "x_value": row.x_value,
        "d_R_lambda": row.d_r_lambda,
        "d0_lambda": row.d0_lambda,
    }
    for name, val in row.capacity.items():
        values[f"capacity_{name}"] = val
    for name, val in row.nmse.items():
        values[f"nmse_{name}"] = val
    for name, svs in row.singular_values.items():
        for j, s in enumerate(svs, start=1):
            values[f"sv{j}_{name}"] = s
    return [repr(values[c]) if c in values else "" for c in cols]


def rows_to_csv(rows: list[SweepResultRow], variants) -> str:
    """Deterministic CSV text for a list of result rows (header mandatory)."""
    cols = _columns(rows, variants)
    lines = [",".join(cols)]
    lines.extend(",".join(_row_cells(row, cols)) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[SweepResultRow], variants) -> str:
    """Deterministic JSON text mirroring the CSV content."""
    payload = []
    for row in rows:
        entry = {
            "x_value": row.x_value,
            "d_R_lambda": row.d_r_lambda,
            "d0_lambda": row.d0_lambda,
            "capacity": row.capacity,
            "nmse": row.nmse,
        }
        if row.singular_values:
            entry["singular_values"] = row.singular_values
        payload.append(entry)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_rows(rows: list[SweepResultRow], spec: SweepSpec) -> str:
    """Render rows per the spec's format and write them to its output path.

    Returns the rendered text; with no output path the text goes to
    stdout instead of a file.
    """
    text = (rows_to_csv if spec.output_format == "csv" else rows_to_json)(rows, spec.variants)
    if spec.output_path is None:
        sys.stdout.write(text)
    else:
        with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
