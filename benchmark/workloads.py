"""Workload inputs, generated from the seed before the program starts.

A workload is one round of program calls repeated until the run's time is
up.  One sweep point is one geometry and one distance with all of the
workload's variants.  The program sees only the inputs built here: the CLI
workloads get a JSON config file, the library workloads a list of points.
Only ``tilted-link`` draws program inputs from the seed (tilt, azimuth,
RX rotation and distances); for ``distance-capacity`` and
``accuracy-sweep`` the seed only picks which rows the costlier reference
checks cover.
"""

from __future__ import annotations

import math
import random

import reference

VARIANTS = ["FSCM", "OCM", "PSCM", "PSCM12", "PSCM123"]
FREQUENCY = 2.4e9
SPACING_LAMBDA = 0.01
SNR_DB = 10.0
THRESHOLD = 1e-6
DISTANCE_GRID = [0.25 * i for i in range(1, 18)]  # the built-in 0.25 .. 4.25 wavelengths
ELEMENT_DISTANCES = [0.75, 2.5]  # the built-in element-sweep distances
GOLDEN = {"tx_grid": [41, 41], "rx_grid": [15, 15], "d0_lambda": 4.25}

NAMES = ("distance-capacity", "accuracy-sweep", "element-sweep-parallel", "tilted-link")


def _base(name, kind, rx, decompose):
    return {
        "workload": name,
        "kind": kind,
        "variants": list(VARIANTS),
        "decompose": decompose,
        "frequency": FREQUENCY,
        "spacing_lambda": SPACING_LAMBDA,
        "snr_db": SNR_DB,
        "threshold": THRESHOLD,
        "rx_grid": [rx, rx],
        "points": [],
    }


def _point(tx, d0, theta=0.0, phi=0.0, rotation=None):
    return {"tx_grid": [tx, tx], "d0_lambda": d0, "theta": theta, "phi": phi, "rotation": rotation}


def _cli_config(inputs, experiment, extra):
    config = {
        "experiment": experiment,
        "rx_grid": inputs["rx_grid"],
        "spacing_lambda": SPACING_LAMBDA,
        "variants": list(VARIANTS),
        "frequency": FREQUENCY,
        "snr_db": SNR_DB,
        "p_policy": f"threshold({THRESHOLD:g})",
        "output_format": "csv",
    }
    config.update(extra)
    return config


def distance_capacity(seed, tiny):
    tx, rx = (5, 3) if tiny else (41, 15)
    inputs = _base("distance-capacity", "cli", rx, True)
    ends = [DISTANCE_GRID[0], DISTANCE_GRID[-1]]
    inputs["points"] = [_point(tx, d) for d in ends]
    config = _cli_config(inputs, "distance", {
        "tx_grid": [tx, tx],
        "d0_range_lambda": {"start": ends[0], "stop": ends[1], "step": ends[1] - ends[0]},
    })
    inputs["cli"] = {"command": "sweep-distance", "workers": 1, "config": config}
    # A full-size reference spectrum costs about 9 s per point, so each run
    # checks the capacities of one of the two points; the seed picks which.
    inputs["capacity_checked"] = [seed % 2]
    return inputs


def accuracy_sweep(seed, tiny):
    tx, rx = (5, 3) if tiny else (33, 11)
    inputs = _base("accuracy-sweep", "library", rx, False)
    inputs["points"] = [_point(tx, d) for d in DISTANCE_GRID]
    inputs["capacity_checked"] = []
    # The NMSE reference checks every other distance; the seed's parity
    # picks which half, so that seeds in turn cover all 17.
    inputs["nmse_checked"] = list(range(seed % 2, len(DISTANCE_GRID), 2))
    return inputs


def element_sweep_parallel(seed, tiny):
    n_list, rx = ([3, 5], 3) if tiny else ([9, 25, 41], 5)
    inputs = _base("element-sweep-parallel", "cli", rx, True)
    inputs["points"] = [_point(n, d) for n in n_list for d in ELEMENT_DISTANCES]
    config = _cli_config(inputs, "tx-elements", {
        "n_list": n_list,
        "d0_range_lambda": list(ELEMENT_DISTANCES),
    })
    inputs["cli"] = {"command": "sweep-elements", "workers": 2, "config": config}
    inputs["capacity_checked"] = list(range(len(inputs["points"])))
    return inputs


def tilted_link(seed, tiny):
    tx, rx = (5, 3) if tiny else (17, 9)
    rng = random.Random(seed)
    theta = rng.uniform(0.15, 0.35)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    psi = rng.uniform(0.2, 0.4)
    # One distance from each quarter of the grid, so that every seed spans
    # near and far field alike and costs about the same.
    quarters = (DISTANCE_GRID[0:4], DISTANCE_GRID[4:8], DISTANCE_GRID[8:12], DISTANCE_GRID[12:])
    distances = [rng.choice(q) for q in quarters]
    # The RX surface is turned about its x axis by psi, so it is neither
    # parallel to the TX surface nor square to the link axis: pair offsets
    # leave the common lattice and the separable ranks are no longer 3/6/9.
    c, s = math.cos(psi), math.sin(psi)
    rotation = [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
    inputs = _base("tilted-link", "library", rx, True)
    inputs["points"] = [_point(tx, d, theta, phi, rotation) for d in distances]
    inputs["capacity_checked"] = list(range(len(distances)))
    return inputs


_WORKLOADS = {
    "distance-capacity": distance_capacity,
    "accuracy-sweep": accuracy_sweep,
    "element-sweep-parallel": element_sweep_parallel,
    "tilted-link": tilted_link,
}


def make_inputs(name: str, seed: int, tiny: bool = False) -> dict:
    """Deterministic inputs of one workload; the same seed gives the same inputs."""
    inputs = _WORKLOADS[name](seed, tiny)
    inputs.setdefault("nmse_checked", list(range(len(inputs["points"]))))
    inputs["seed"] = seed
    inputs["tiny"] = tiny
    return inputs


def is_golden_point(inputs: dict, point: dict) -> bool:
    """The full-size 4.25 wavelength boresight point that tests/_goldens.json describes."""
    return (
        point["tx_grid"] == GOLDEN["tx_grid"]
        and inputs["rx_grid"] == GOLDEN["rx_grid"]
        and point["d0_lambda"] == GOLDEN["d0_lambda"]
        and point["theta"] == 0.0
        and point["rotation"] is None
        and inputs["spacing_lambda"] == SPACING_LAMBDA
        and inputs["frequency"] == FREQUENCY
    )


def reference_point(inputs: dict, point: dict) -> reference.Point:
    return reference.Point(
        point["tx_grid"], inputs["rx_grid"], inputs["spacing_lambda"], inputs["frequency"],
        point["d0_lambda"], point["theta"], point["phi"], point["rotation"],
    )
