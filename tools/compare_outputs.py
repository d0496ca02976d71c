#!/usr/bin/env python3
"""Check that two source trees write the same default CLI outputs and spectra.

Runs the five default ``hmimo-bench`` commands from this tree and from
OTHER_TREE, each in a fresh ``python3 -m hmimo.cli`` process with that
tree's ``src`` on ``PYTHONPATH``, and compares the standard output and the
exit code of each pair byte for byte:

- ``point``
- ``point --dump-singular-values 6``
- ``sweep-distance`` (CSV)
- ``sweep-distance --format json``
- ``sweep-elements --workers 2`` (points run one at a time whatever the
  worker count; the flag stays on existing command lines)

Then it runs the library points of ``LIBRARY_POINTS`` in one fresh
``python3 -c`` process per grid shape and tree: all 17 built-in distances
at the two boresight shapes of the benchmark, whose OCM spectrum comes
from the parity sectors, more boresight lattice links, and links the
default commands do not reach (tilted lattice links, and one with a
rotated RX surface).  Per variant it compares its NMSE against OCM, its
``p_used`` at ``threshold(1e-6)`` from the spectrum-only decomposition,
that decomposition's full ``gains``, and its ``p_used`` at the 120
thresholds 10^(-k/10), k = 0..119.

Last it decomposes every variant of the points of ``PATTERNS_POINTS``
with patterns, under ``threshold(1e-6)``, ``fixed(5)`` and ``fixed(40)``
(more channels than a sketch finds), in one fresh
process per tree: the seeded tilted links of the ``tilted-link``
benchmark workload, a boresight lattice link and two tilted lattice links.
It compares ``p_used`` and a digest of the gains and of both pattern
matrices between the trees, and in each tree requires
max |G v - sigma u| / sigma_1 and the largest entry of P'P - I over both
pattern matrices P to be at most ``PATTERNS_BOUND``.

Then, in this tree alone, it holds every spectrum-only route against the
dense SVD: for each variant of the points of ``DENSE_POINTS`` the gains of
the spectrum-only decomposition must lie within ``DENSE_BOUND`` sigma_1 of
the zero-padded ``np.linalg.svd(G.matrix, compute_uv=False)``, with the
same ``p_used`` at the 120 thresholds.

By default every output, NMSE, ``p_used``, gain and patterns digest must
be bit-equal.  With ``--tolerance`` the CLI outputs, the library results
and the patterns gains are compared value by value instead, for a change
that moves bits on purpose.  Per quantity it reports how many values are
bit-equal and the largest deviation, and it fails only past the bounds of
``TOLERANCE``: x, d0, d_R, NMSE and every ``p_used`` bit-equal; capacity
and singular-value cells within 1e-12 of their magnitude; library and
patterns gains within 1e-12 sigma_1.  Patterns are then held to the
within-tree ``PATTERNS_BOUND`` alone, not to their digest, so a kept pair
(u, v) may turn by a common phase.  The dense check is the same in both
modes.

Output bytes depend on the BLAS thread count, so both trees run under the
same environment.  The whole check takes under a minute on two cores.

Usage: python3 tools/compare_outputs.py [--tolerance] OTHER_TREE

Exits 0 when every comparison holds, 1 otherwise, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE_TREE = Path(__file__).resolve().parent.parent

COMMANDS = (
    ["point"],
    ["point", "--dump-singular-values", "6"],
    ["sweep-distance"],
    ["sweep-distance", "--format", "json"],
    ["sweep-elements", "--workers", "2"],
)

# The 17 built-in distances of sweep-distance, in wavelengths.
_BUILT_IN = tuple(0.25 * k for k in range(1, 18))

# (TX grid, RX grid, d0 in wavelengths, theta, phi, RX turn about x in rad or None),
# at a spacing of 0.01 wavelength and 2.4 GHz
LIBRARY_POINTS = (
    *(((41, 41), (15, 15), d0, 0.0, 0.0, None) for d0 in _BUILT_IN),
    *(((33, 33), (11, 11), d0, 0.0, 0.0, None) for d0 in _BUILT_IN),
    ((25, 25), (5, 5), 0.75, 0.0, 0.0, None),
    ((13, 5), (3, 11), 1.5, 0.0, 0.0, None),
    ((1, 3), (3, 1), 1.0, 0.0, 0.0, None),
    ((9, 7), (5, 6), 0.6, 0.3, 0.4, None),
    ((9, 7), (5, 6), 1.5, 0.3, 0.4, None),
    ((17, 17), (9, 9), 1.0, 0.25, 0.0, None),
    ((17, 17), (9, 9), 1.0, 0.25, 0.0, 0.3),
)

# Bounds of --tolerance per quantity: None asks for bit-equality, a number
# bounds the deviation relative to the value's magnitude (CLI cells) or to
# sigma_1 (library gains).
TOLERANCE = {
    "CLI x, d0 and d_R cells": None,
    "CLI NMSE cells": None,
    "CLI capacity cells": 1e-12,
    "CLI singular-value cells": 1e-12,
    "library NMSE": None,
    "library p_used at threshold(1e-6)": None,
    "library gains (relative to sigma_1)": 1e-12,
    "library p_used at the 120 thresholds": None,
    "patterns p_used": None,
    "patterns gains (relative to sigma_1)": 1e-12,
}

# The seeded tilted links of the tilted-link workload (seed 0, and seed 2 at
# 0.25 wavelength, where PSCM123 is certified although |R_kk| / |R_11| of its
# sketch exceeds tau), then a boresight lattice link and a tilted lattice link,
# as in LIBRARY_POINTS, and the tilted-link grids with an unrotated RX, whose
# offset tables try the sketch like a dense array.
_TILT = (0.3188843703050096, 4.7623679680665845, 0.284114316166169)
_TILT_SEED_2 = (0.34120685437784987, 5.955375740432253, 0.21131027354536175)
PATTERNS_POINTS = (
    *(((17, 17), (9, 9), d0, *_TILT) for d0 in (0.75, 2.0, 3.0, 3.75)),
    ((17, 17), (9, 9), 0.25, *_TILT_SEED_2),
    ((9, 9), (5, 5), 1.5, 0.0, 0.0, None),
    ((9, 7), (5, 6), 0.6, 0.3, 0.4, None),
    ((17, 17), (9, 9), 1.0, 0.25, 0.0, None),
)

# Largest pattern residual |G v - sigma u| / sigma_1 and orthonormality error allowed.
PATTERNS_BOUND = 1e-13

# (point, OCM only) pairs checked against a dense SVD of G.matrix: the library
# points off the two sweeps with every variant, and three 33^2/11^2 sweep points
# with OCM alone (a dense SVD there takes about a second on two cores).
DENSE_POINTS = (
    *((point, False) for point in LIBRARY_POINTS[2 * len(_BUILT_IN):]),
    *((((33, 33), (11, 11), d0, 0.0, 0.0, None), True) for d0 in (0.25, 1.5, 4.25)),
)

# Largest deviation of a spectrum-only route's gains from the dense SVD, over sigma_1.
DENSE_BOUND = 1e-12

# Defines cfg and variants(point), the OCM reference and all five variants of a point.
SETUP_SCRIPT = """
import hashlib, json, math, sys
import numpy as np
from hmimo import (LinkGeometry, PPolicy, PhysicalConfig, assemble_fscm, assemble_ocm,
                   assemble_pscm, build_planar_surface, eigenchannel_decompose, nmse, select_p)
cfg = PhysicalConfig(frequency=2.4e9, a_t=1.0, a_r=1.0)

def variants(point):
    tx_grid, rx_grid, d0, theta, phi, turn = point
    tx = build_planar_surface(*tx_grid, 0.01 * cfg.wavelength)
    rx = build_planar_surface(*rx_grid, 0.01 * cfg.wavelength)
    rotation = None
    if turn is not None:
        c, s = math.cos(turn), math.sin(turn)
        rotation = [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
    link = LinkGeometry.from_angles(d0 * cfg.wavelength, theta, phi, rx_rotation=rotation)
    ref = assemble_ocm(tx, rx, link, cfg.k0)
    pscm = [assemble_pscm(tx, rx, link, cfg.k0, code) for code in ("1234", "123", "12")]
    return ref, [ref, *pscm, assemble_fscm(tx, rx, link, cfg.k0)]
"""

# Prints one JSON list [variant, nmse, p_used, gains, p_used at the 120 thresholds]
# per variant of each point in argv[1], in order.
POINT_SCRIPT = SETUP_SCRIPT + """
for point in json.loads(sys.argv[1]):
    ref, mats = variants(point)
    for G in mats:
        eigs = eigenchannel_decompose(G, cfg, PPolicy.threshold(1e-6), patterns=False)
        ladder = [select_p(eigs.gains, PPolicy.threshold(10 ** (-k / 10))) for k in range(120)]
        print(json.dumps([G.variant, nmse(G, ref), eigs.p_used, eigs.gains.tolist(), ladder]))
"""

# Prints one JSON list [point, variant, policy, p_used, digest, residual, orthonormality,
# gains] per variant and policy of each point in argv[1], decomposed with patterns
# (a_t = a_r = 1).
PATTERNS_SCRIPT = SETUP_SCRIPT + """
for index, point in enumerate(json.loads(sys.argv[1])):
    for G in variants(point)[1]:
        for policy in ("threshold(1e-6)", "fixed(5)", "fixed(40)"):
            eigs = eigenchannel_decompose(G, cfg, PPolicy.parse(policy))
            u, v, s = eigs.rx_patterns, eigs.tx_patterns, eigs.gains[: eigs.p_used]
            residual = float(np.abs(G.matrix @ v - u * s).max() / eigs.gains[0])
            ortho = max(float(np.abs(p.conj().T @ p - np.eye(p.shape[1])).max()) for p in (u, v))
            digest = hashlib.sha256(eigs.gains.tobytes() + u.tobytes() + v.tobytes())
            print(json.dumps([index, G.variant, policy, eigs.p_used, digest.hexdigest()[:16],
                              residual, ortho, eigs.gains.tolist()]))
"""


# Prints one JSON list [variant, deviation over sigma_1, thresholds whose p_used differs]
# per checked variant of each (point, OCM only) pair in argv[1], in order.
DENSE_SCRIPT = SETUP_SCRIPT + """
for point, ocm_only in json.loads(sys.argv[1]):
    for G in variants(point)[1][: 1 if ocm_only else 5]:
        fast = eigenchannel_decompose(G, cfg, PPolicy.threshold(1e-6), patterns=False).gains
        values = np.linalg.svd(G.matrix, compute_uv=False)
        dense = np.zeros_like(fast)
        dense[: values.size] = values
        ladder = [PPolicy.threshold(10 ** (-k / 10)) for k in range(120)]
        differ = sum(select_p(fast, p) != select_p(dense, p) for p in ladder)
        print(json.dumps([G.variant, float(np.abs(fast - dense).max() / dense[0]), differ]))
"""


def run(tree: Path, command: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, standard output and standard error of ``python3 *command`` run from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, *command], cwd=tree, env=env,
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class Tally:
    """Per quantity: how many value pairs were compared, how many are bit-equal, the largest deviation."""

    def __init__(self):
        self.counts: dict[str, list] = {}

    def add(self, quantity: str, mine: float, theirs: float, scale: float | None = None):
        """One value pair; its deviation is |mine - theirs| over ``scale``, or their magnitude."""
        count = self.counts.setdefault(quantity, [0, 0, 0.0])
        count[0] += 1
        if repr(mine) == repr(theirs):
            count[1] += 1
            return
        scale = max(abs(mine), abs(theirs)) if scale is None else scale
        deviation = abs(mine - theirs) / scale if scale else math.inf
        count[2] = max(count[2], deviation if deviation == deviation else math.inf)

    def report(self) -> int:
        """Print one line per quantity; return how many break their ``TOLERANCE`` bound."""
        broken = 0
        for quantity, (total, equal, worst) in self.counts.items():
            bound = TOLERANCE[quantity]
            ok = equal == total if bound is None else worst <= bound
            broken += not ok
            need = "must be bit-equal" if bound is None else f"bound {bound:g}"
            print(f"  {quantity}: {equal} of {total} bit-equal, largest deviation {worst:.3g} "
                  f"({need}){'' if ok else ' BROKEN'}")
        return broken


def _cells(command: list[str], out: bytes):
    """``(column, value)`` per numeric cell of a CSV or JSON output, and its non-numeric skeleton.

    A JSON cell's column is its path of object keys, list indices left out.
    """
    text = out.decode()
    if "--format" in command:
        def flat(node, path):
            if isinstance(node, (dict, list)):
                items = node.items() if isinstance(node, dict) else ((None, v) for v in node)
                for key, value in items:
                    yield from flat(value, path if key is None else (*path, key))
            else:
                yield ".".join(path), node
        cells = list(flat(json.loads(text), ()))
        return cells, [name for name, _ in cells]
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cells = [(name, float(value)) for row in body for name, value in zip(header, row, strict=True)]
    return cells, [header, len(body)]


def _cell_quantity(column: str) -> str:
    """The ``TOLERANCE`` quantity of a CSV column or a JSON path."""
    if column.startswith(("capacity", "singular_values", "sv")):
        return "CLI capacity cells" if column.startswith("capacity") else "CLI singular-value cells"
    return "CLI NMSE cells" if column.startswith("nmse") else "CLI x, d0 and d_R cells"


def compare_commands(other: Path, tally: Tally | None) -> int:
    """Run each default command in both trees; print and return how many differ.

    Without a ``tally`` outputs must be byte-identical; with one they must
    have the same exit code, columns and rows, and their cells go to it.
    """
    differ = 0
    for command in COMMANDS:
        code_a, out_a, err_a = run(HERE_TREE, ["-m", "hmimo.cli", *command])
        code_b, out_b, err_b = run(other, ["-m", "hmimo.cli", *command])
        same = code_a == code_b and out_a == out_b
        status = "identical" if same else "DIFFERS"
        detail = ""
        if out_a != out_b:
            first = next((i for i, (a, b) in enumerate(zip(out_a, out_b)) if a != b),
                         min(len(out_a), len(out_b)))
            detail = f", first difference at byte {first}"
        if tally is not None and code_a == code_b == 0:
            (cells_a, shape_a), (cells_b, shape_b) = _cells(command, out_a), _cells(command, out_b)
            if not same and shape_a == shape_b:
                same, status = True, "same cells, compared by value"
            if same:
                for (column, mine), (_, theirs) in zip(cells_a, cells_b):
                    tally.add(_cell_quantity(column), mine, theirs)
        differ += not same
        print(f"{' '.join(command)}: {status} (exit {code_a} / "
              f"{code_b}, {len(out_a)} / {len(out_b)} bytes{detail})")
        for code, err in ((code_a, err_a), (code_b, err_b)):
            if code:
                print(err.decode(errors="replace").rstrip(), file=sys.stderr)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} outputs "
          f"{'identical' if tally is None else 'identical or with the same cells'}")
    return differ


def library_results(tree: Path) -> list[list]:
    """``[variant, nmse, p_used, gains, ladder]`` per variant of every library point from ``tree``.

    The points of one grid shape run in one process.
    """
    shapes = {}
    for point in LIBRARY_POINTS:
        shapes.setdefault(point[:2], []).append(point)
    results = {}
    for group in shapes.values():
        code, out, err = run(tree, ["-c", POINT_SCRIPT, json.dumps(group)])
        if code:
            raise SystemExit(f"library points {group} failed in {tree}:\n"
                             f"{err.decode(errors='replace')}")
        lines = [json.loads(line) for line in out.decode().splitlines()]
        for index, point in enumerate(group):
            results[point] = lines[5 * index: 5 * index + 5]
    return [results[point] for point in LIBRARY_POINTS]


def compare_library(other: Path, tally: Tally | None) -> int:
    """Print how many library results are equal in both trees; return the misses.

    With a ``tally`` their values go to it instead, and only a difference in
    spectrum length counts as a miss here.
    """
    flags, misses = [], 0
    for point, here, there in zip(LIBRARY_POINTS, library_results(HERE_TREE),
                                  library_results(other), strict=True):
        for mine, theirs in zip(here, there, strict=True):
            same = [repr(a) == repr(b) for a, b in zip(mine[1:], theirs[1:])]
            flags.append([same[0], same[1], same[2] and same[3]])
            if tally is None and mine != theirs:
                print(f"library point {point} {mine[0]}: NMSE {mine[1]!r} / {theirs[1]!r}, "
                      f"p_used {mine[2]} / {theirs[2]}, spectrum "
                      f"{'equal' if flags[-1][2] else 'DIFFERS'}")
            if tally is None:
                continue
            tally.add("library NMSE", mine[1], theirs[1])
            tally.add("library p_used at threshold(1e-6)", mine[2], theirs[2])
            for a, b in zip(mine[4], theirs[4], strict=True):
                tally.add("library p_used at the 120 thresholds", a, b)
            if len(mine[3]) != len(theirs[3]):
                misses += 1
                print(f"library point {point} {mine[0]}: {len(mine[3])} / {len(theirs[3])} gains")
                continue
            for a, b in zip(mine[3], theirs[3]):
                tally.add("library gains (relative to sigma_1)", a, b, theirs[3][0])
    same_nmse, same_p, same_spectrum = (sum(column) for column in zip(*flags))
    print(f"library points: NMSE bit-equal for {same_nmse} of {len(flags)} variants, "
          f"p_used equal for {same_p} of {len(flags)}, spectrum (gains and p_used at 120 "
          f"thresholds) bit-equal for {same_spectrum} of {len(flags)}")
    if tally is None:
        return 3 * len(flags) - same_nmse - same_p - same_spectrum
    return misses


def compare_patterns(other: Path, tally: Tally | None) -> int:
    """Print how many patterns results are equal and bounded in both trees; return the misses.

    Without a ``tally`` ``p_used`` and the digests must be equal; with one
    ``p_used`` and the gains go to it, and only a difference in spectrum
    length or a broken ``PATTERNS_BOUND`` counts as a miss here.
    """
    results = []
    for tree in (HERE_TREE, other):
        code, out, err = run(tree, ["-c", PATTERNS_SCRIPT, json.dumps(PATTERNS_POINTS)])
        if code:
            raise SystemExit(f"patterns points failed in {tree}:\n{err.decode(errors='replace')}")
        results.append([json.loads(line) for line in out.decode().splitlines()])
    misses, worst = 0, [0.0, 0.0]
    for mine, theirs in zip(*results, strict=True):
        bounds = [*mine[5:7], *theirs[5:7]]
        worst = [max(worst[0], *bounds[0::2]), max(worst[1], *bounds[1::2])]
        if tally is None:
            same = mine[:5] == theirs[:5]
        else:
            same = len(mine[7]) == len(theirs[7])
            tally.add("patterns p_used", mine[3], theirs[3])
            for a, b in zip(mine[7], theirs[7]):
                tally.add("patterns gains (relative to sigma_1)", a, b, theirs[7][0])
        if not same or max(bounds) > PATTERNS_BOUND:
            misses += 1
            print(f"patterns point {PATTERNS_POINTS[mine[0]]}: {mine[1:7]} DIFFERS from or "
                  f"breaks the bound with {theirs[1:7]}")
    checked = ("digests (gains, TX and RX patterns) equal" if tally is None
               else "spectra of one length (p_used and gains in the tolerance report)")
    print(f"patterns points: {len(results[0]) - misses} of {len(results[0])} {checked} and "
          f"bounded, largest residual {worst[0]:.2g} and orthonormality error {worst[1]:.2g} "
          f"(bound {PATTERNS_BOUND:g})")
    return misses


def check_dense() -> int:
    """Print how many spectrum-only routes of this tree match the dense SVD; return the misses."""
    code, out, err = run(HERE_TREE, ["-c", DENSE_SCRIPT, json.dumps(DENSE_POINTS)])
    if code:
        raise SystemExit(f"dense points failed in {HERE_TREE}:\n{err.decode(errors='replace')}")
    results = [json.loads(line) for line in out.decode().splitlines()]
    points = [point for point, ocm_only in DENSE_POINTS for _ in range(1 if ocm_only else 5)]
    misses = 0
    for point, (variant, deviation, differ) in zip(points, results, strict=True):
        if deviation > DENSE_BOUND or differ:
            misses += 1
            print(f"dense point {point} {variant}: gains {deviation:.3g} sigma_1 from the dense "
                  f"SVD, p_used differs at {differ} of 120 thresholds")
    worst = max(deviation for _, deviation, _ in results)
    print(f"dense check: {len(results) - misses} of {len(results)} spectrum-only routes within "
          f"{DENSE_BOUND:g} sigma_1 of the dense SVD with equal p_used at 120 thresholds, "
          f"largest deviation {worst:.2g}")
    return misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path, help="root of the other source checkout")
    parser.add_argument("--tolerance", action="store_true",
                        help="compare values within the TOLERANCE bounds, not bit for bit")
    args = parser.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "src" / "hmimo" / "cli.py").is_file():
        parser.error(f"{other} holds no src/hmimo/cli.py")
    tally = Tally() if args.tolerance else None
    differ = compare_commands(other, tally)
    differ += compare_library(other, tally)
    differ += compare_patterns(other, tally)
    differ += check_dense()
    if tally is not None:
        print("tolerance mode, per quantity:")
        differ += tally.report()
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
