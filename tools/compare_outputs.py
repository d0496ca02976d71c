#!/usr/bin/env python3
"""Check that two source trees write the same default CLI outputs and spectra.

Runs the five default ``hmimo-bench`` commands from this tree and from
OTHER_TREE, each in a fresh ``python3 -m hmimo.cli`` process with that
tree's ``src`` on ``PYTHONPATH``, and compares their exit codes, output
bytes, columns and rows, and numeric cells:

- ``point``
- ``point --dump-singular-values 6``
- ``sweep-distance`` (CSV)
- ``sweep-distance --format json``
- ``sweep-elements --workers 2`` (points run one at a time whatever the
  worker count; the flag stays on existing command lines)

Then it runs the library points of ``LIBRARY_POINTS`` in one fresh
``python3 -c`` process per tree: all 17 built-in distances at the two
boresight shapes of the benchmark, whose OCM spectrum comes from the
parity sectors, more boresight lattice links, and links the default
commands do not reach (tilted lattice links, and one with a rotated RX
surface).  Per variant it compares its NMSE against OCM, its
``p_used`` at ``threshold(1e-6)`` from the spectrum-only decomposition,
that decomposition's full ``gains`` and their count, and its ``p_used``
at the 120 thresholds 10^(-k/10), k = 0..119.  In this tree alone the
variants of ``DENSE_VARIANTS`` are also held against the dense SVD: their
gains against the zero-padded ``np.linalg.svd(G.matrix, compute_uv=False)``
and their 120 ``p_used`` against that spectrum's.

Last it decomposes every variant of the points of ``PATTERNS_POINTS``
with patterns, under ``threshold(1e-6)``, ``fixed(5)`` and ``fixed(40)``
(more channels than a sketch finds), in one fresh
process per tree: the seeded tilted links of the ``tilted-link``
benchmark workload, a boresight lattice link and two tilted lattice links.
It compares ``p_used``, the gains and their count, and a digest of the
gains and of both pattern matrices between the trees, and in each tree
holds max |G v - sigma u| / sigma_1 and the largest entry of P'P - I over
both pattern matrices P against 0.

Every comparison is a row of ``ROWS``, one report in both modes: per row
how many value pairs are bit-equal, the largest deviation and the first
item past the row's bound.  Each row has a default bound and a ``--tolerance``
bound, for a change that moves bits on purpose; the option only picks
the column.  By default every row between the trees must be bit-equal.
``--tolerance`` holds x, d0, d_R, NMSE and every ``p_used`` bit-equal,
capacity and singular-value cells within 1e-12 of their magnitude, and
library and patterns gains within 1e-12 sigma_1, and it only reports
output bytes and patterns digests, so a kept pair (u, v) may turn by a
common phase.  In both modes the patterns residual and orthonormality
error must be at most 1e-13, and the dense check holds gains within
1e-12 sigma_1 with equal ``p_used``.

Output bytes depend on the BLAS thread count, so both trees run under the
same environment.  The whole check takes 23-25 s on two cores.

Usage: python3 tools/compare_outputs.py [--tolerance] OTHER_TREE

Exits 0 when every row holds its bound, 1 otherwise, 2 on bad usage.
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

# How many variants of a library point (in the order OCM, PSCM, PSCM123, PSCM12,
# FSCM) are held against a dense SVD of G.matrix in this tree: every variant of
# the points off the two sweeps, and OCM alone at three 33^2/11^2 sweep points (a
# dense SVD there takes about a second on two cores).
DENSE_VARIANTS = {
    **{point: 5 for point in LIBRARY_POINTS[2 * len(_BUILT_IN):]},
    **{((33, 33), (11, 11), d0, 0.0, 0.0, None): 1 for d0 in (0.25, 1.5, 4.25)},
}

# The bound of a row that is only reported.
REPORT = math.inf

# Per row, the bound of the default mode and the bound of --tolerance: None asks for
# bit-equality, and a number bounds the deviation relative to the value's magnitude
# (CLI cells) or to sigma_1 (gains).  The last four rows are held within a tree: they
# pair a residual or an orthonormality error with 0, and this tree's spectrum-only
# gains and p_used with those of the dense SVD.
ROWS = {
    "CLI exit codes": (None, None),
    "CLI columns and rows": (None, None),
    "CLI output bytes": (None, REPORT),
    "CLI x, d0 and d_R cells": (None, None),
    "CLI NMSE cells": (None, None),
    "CLI capacity cells": (None, 1e-12),
    "CLI singular-value cells": (None, 1e-12),
    "library NMSE": (None, None),
    "library p_used at threshold(1e-6)": (None, None),
    "library spectrum length": (None, None),
    "library gains (relative to sigma_1)": (None, 1e-12),
    "library p_used at the 120 thresholds": (None, None),
    "patterns p_used": (None, None),
    "patterns spectrum length": (None, None),
    "patterns gains (relative to sigma_1)": (None, 1e-12),
    "patterns digests (gains, TX and RX patterns)": (None, REPORT),
    "patterns residual in both trees": (1e-13, 1e-13),
    "patterns orthonormality error in both trees": (1e-13, 1e-13),
    "dense gains (relative to sigma_1)": (1e-12, 1e-12),
    "dense p_used at the 120 thresholds": (None, None),
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

# Prints one JSON list [variant, nmse, p_used, gains, p_used at the 120 thresholds, dense]
# per variant of each [point, dense variant count] pair in argv[1], in order; dense is
# None, or for the first count variants the zero-padded dense SVD spectrum and its
# p_used at the 120 thresholds.
POINT_SCRIPT = SETUP_SCRIPT + """
ladder = [PPolicy.threshold(10 ** (-k / 10)) for k in range(120)]
for point, dense_count in json.loads(sys.argv[1]):
    ref, mats = variants(point)
    for index, G in enumerate(mats):
        eigs = eigenchannel_decompose(G, cfg, PPolicy.threshold(1e-6), patterns=False)
        dense = None
        if index < dense_count:
            values = np.linalg.svd(G.matrix, compute_uv=False)
            dense = np.zeros_like(eigs.gains)
            dense[: values.size] = values
            dense = [dense.tolist(), [select_p(dense, p) for p in ladder]]
        print(json.dumps([G.variant, nmse(G, ref), eigs.p_used, eigs.gains.tolist(),
                          [select_p(eigs.gains, p) for p in ladder], dense]))
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


def run(tree: Path, command: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, standard output and standard error of ``python3 *command`` run from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, *command], cwd=tree, env=env,
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class Tally:
    """Per row of ``ROWS``: value pairs compared, how many are bit-equal, the largest
    deviation and the first item past the row's bound in one column of ``ROWS``."""

    def __init__(self, tolerance: bool):
        self.bounds = {row: bounds[tolerance] for row, bounds in ROWS.items()}
        self.counts = {row: [0, 0, 0.0, None] for row in ROWS}

    def add(self, row: str, where: str, mine, theirs, scale: float | None = None):
        """One value pair of ``row`` at item ``where``.

        Two numbers deviate by |mine - theirs| over ``scale``, or over their
        magnitude; any other values by inf when they differ.
        """
        count = self.counts[row]
        count[0] += 1
        if repr(mine) == repr(theirs):
            count[1] += 1
            return
        deviation = math.inf
        if all(isinstance(value, (int, float)) for value in (mine, theirs)):
            scale = max(abs(mine), abs(theirs)) if scale is None else scale
            deviation = abs(mine - theirs) / scale if scale else math.inf
        deviation = deviation if deviation == deviation else math.inf
        count[2] = max(count[2], deviation)
        bound = self.bounds[row]
        if count[3] is None and (bound is None or deviation > bound):
            count[3] = where

    def add_each(self, row: str, where: str, mine, theirs, scale: float | None = None):
        """The pairs of two sequences, as far as the shorter goes (lengths are rows of their own)."""
        for index, pair in enumerate(zip(mine, theirs)):
            self.add(row, f"{where} [{index}]", *pair, scale)

    def report(self) -> int:
        """Print one line per row; return how many break their bound."""
        for row, bound in self.bounds.items():
            total, equal, worst, where = self.counts[row]
            need = ("must be bit-equal" if bound is None
                    else "reported only" if bound == REPORT else f"bound {bound:g}")
            broken = "" if where is None else f" BROKEN, first at {where}"
            print(f"  {row}: {equal} of {total} bit-equal, largest deviation {worst:.3g} "
                  f"({need}){broken}")
        return sum(where is not None for *_, where in self.counts.values())


def _cells(command: list[str], out: bytes):
    """``(column, value)`` per numeric cell of a CSV or JSON output, and its non-numeric skeleton.

    A JSON cell's column is its path of object keys joined by ``_``, list
    indices left out, so a CSV column and its JSON path read the same.
    """
    text = out.decode()
    if "--format" in command:
        def flat(node, path):
            if isinstance(node, (dict, list)):
                items = node.items() if isinstance(node, dict) else ((None, v) for v in node)
                for key, value in items:
                    yield from flat(value, path if key is None else (*path, key))
            else:
                yield "_".join(path), node
        cells = list(flat(json.loads(text), ()))
        return cells, [name for name, _ in cells]
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cells = [(name, float(value)) for row in body for name, value in zip(header, row, strict=True)]
    return cells, [header, len(body)]


def _cell_quantity(column: str) -> str:
    """The row of a CSV column or a JSON path."""
    if column.startswith(("capacity", "singular_values", "sv")):
        return "CLI capacity cells" if column.startswith("capacity") else "CLI singular-value cells"
    return "CLI NMSE cells" if column.startswith("nmse") else "CLI x, d0 and d_R cells"


def compare_commands(other: Path, tally: Tally):
    """Run each default command in both trees and add its exit codes, bytes and cells to ``tally``.

    Columns, rows and cells are compared when both runs exit 0, cells when
    the columns and rows agree.
    """
    for command in COMMANDS:
        name = " ".join(command)
        (code_a, out_a, err_a), (code_b, out_b, err_b) = (
            run(tree, ["-m", "hmimo.cli", *command]) for tree in (HERE_TREE, other))
        tally.add("CLI exit codes", name, code_a, code_b)
        tally.add("CLI output bytes", name, out_a, out_b)
        for code, err in ((code_a, err_a), (code_b, err_b)):
            if code:
                print(f"{name} exits {code}:\n{err.decode(errors='replace').rstrip()}",
                      file=sys.stderr)
        if code_a == code_b == 0:
            (cells_a, shape_a), (cells_b, shape_b) = _cells(command, out_a), _cells(command, out_b)
            tally.add("CLI columns and rows", name, shape_a, shape_b)
            if shape_a == shape_b:
                for index, ((column, mine), (_, theirs)) in enumerate(zip(cells_a, cells_b)):
                    tally.add(_cell_quantity(column), f"{name} cell {index} ({column})",
                              mine, theirs)


def library_results(tree: Path) -> list[list]:
    """``[variant, nmse, p_used, gains, ladder, dense]`` per variant of every library point.

    All points run in one process, five rows per point in ``LIBRARY_POINTS``
    order; ``dense`` is None outside ``DENSE_VARIANTS`` and in any tree but this one.
    """
    dense = [DENSE_VARIANTS.get(point, 0) if tree == HERE_TREE else 0 for point in LIBRARY_POINTS]
    code, out, err = run(tree, ["-c", POINT_SCRIPT, json.dumps(list(zip(LIBRARY_POINTS, dense)))])
    if code:
        raise SystemExit(f"library points failed in {tree}:\n{err.decode(errors='replace')}")
    lines = [json.loads(line) for line in out.decode().splitlines()]
    return [lines[5 * index: 5 * index + 5] for index in range(len(LIBRARY_POINTS))]


def compare_library(other: Path, tally: Tally):
    """Add each library result of both trees, and this tree's dense check, to ``tally``."""
    for point, here, there in zip(LIBRARY_POINTS, library_results(HERE_TREE),
                                  library_results(other), strict=True):
        for mine, theirs in zip(here, there, strict=True):
            where = f"{point} {mine[0]}"
            tally.add("library NMSE", where, mine[1], theirs[1])
            tally.add("library p_used at threshold(1e-6)", where, mine[2], theirs[2])
            tally.add("library spectrum length", where, len(mine[3]), len(theirs[3]))
            tally.add_each("library gains (relative to sigma_1)", where, mine[3], theirs[3],
                           theirs[3][0])
            tally.add_each("library p_used at the 120 thresholds", where, mine[4], theirs[4])
            if mine[5] is not None:
                gains, ladder = mine[5]
                tally.add_each("dense gains (relative to sigma_1)", where, mine[3], gains,
                               gains[0])
                tally.add_each("dense p_used at the 120 thresholds", where, mine[4], ladder)


def compare_patterns(other: Path, tally: Tally):
    """Add each patterns result of both trees, and both trees' bounds, to ``tally``."""
    results = []
    for tree in (HERE_TREE, other):
        code, out, err = run(tree, ["-c", PATTERNS_SCRIPT, json.dumps(PATTERNS_POINTS)])
        if code:
            raise SystemExit(f"patterns points failed in {tree}:\n{err.decode(errors='replace')}")
        results.append([json.loads(line) for line in out.decode().splitlines()])
    for mine, theirs in zip(*results, strict=True):
        where = f"{PATTERNS_POINTS[mine[0]]} {mine[1]} {mine[2]}"
        tally.add("patterns p_used", where, mine[3], theirs[3])
        tally.add("patterns spectrum length", where, len(mine[7]), len(theirs[7]))
        tally.add_each("patterns gains (relative to sigma_1)", where, mine[7], theirs[7],
                       theirs[7][0])
        tally.add("patterns digests (gains, TX and RX patterns)", where, mine[4], theirs[4])
        for tree, result in (("this", mine), ("the other", theirs)):
            tally.add("patterns residual in both trees", f"{where} in {tree} tree",
                      result[5], 0.0, 1.0)
            tally.add("patterns orthonormality error in both trees", f"{where} in {tree} tree",
                      result[6], 0.0, 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path, help="root of the other source checkout")
    parser.add_argument("--tolerance", action="store_true",
                        help="hold each row to its --tolerance bound, not bit for bit")
    args = parser.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "src" / "hmimo" / "cli.py").is_file():
        parser.error(f"{other} holds no src/hmimo/cli.py")
    tally = Tally(args.tolerance)
    compare_commands(other, tally)
    compare_library(other, tally)
    compare_patterns(other, tally)
    print(f"per row, with the bounds of {('the default mode', '--tolerance')[args.tolerance]}:")
    return 1 if tally.report() else 0


if __name__ == "__main__":
    raise SystemExit(main())
