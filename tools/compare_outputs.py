#!/usr/bin/env python3
"""Check that two source trees write byte-identical default CLI outputs.

Runs the five default ``hmimo-bench`` commands from this tree and from
OTHER_TREE, each in a fresh ``python3 -m hmimo.cli`` process with that
tree's ``src`` on ``PYTHONPATH``, and compares the standard output and the
exit code of each pair byte for byte:

- ``point``
- ``point --dump-singular-values 6``
- ``sweep-distance`` (CSV)
- ``sweep-distance --format json``
- ``sweep-elements --workers 2``

Then it runs the library points of ``LIBRARY_POINTS``, each in a fresh
``python3 -c`` process per tree: boresight lattice links, whose OCM
spectrum comes from the parity sectors, and links the default commands
do not reach (tilted lattice links, and one with a rotated RX surface).
Per variant it compares the ``repr`` of its NMSE against OCM, its
``p_used`` at ``threshold(1e-6)`` from the spectrum-only decomposition,
and a digest of that decomposition's full ``gains`` and of its
``p_used`` at the 120 thresholds 10^(-k/10), k = 0..119.

Last it decomposes every variant of the points of ``PATTERNS_POINTS``
with patterns, under ``threshold(1e-6)`` and ``fixed(5)``, in one fresh
process per tree: the seeded tilted links of the ``tilted-link``
benchmark workload, a boresight lattice link and a tilted lattice link.
It compares a digest of the gains and of both pattern matrices between
the trees, and in each tree requires max |G v - sigma u| / sigma_1 and
the largest entry of P'P - I over both pattern matrices P to be at most
``PATTERNS_BOUND``.

Output bytes depend on the BLAS thread count, so both trees run under the
same environment.  The full-size sweeps take a few seconds each.

Usage: python3 tools/compare_outputs.py OTHER_TREE

Exits 0 when every output, library result and patterns digest matches
and every pattern bound holds, 1 otherwise, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
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

# (TX grid, RX grid, d0 in wavelengths, theta, phi, RX turn about x in rad or None),
# at a spacing of 0.01 wavelength and 2.4 GHz
LIBRARY_POINTS = (
    ((41, 41), (15, 15), 0.25, 0.0, 0.0, None),
    ((41, 41), (15, 15), 1.5, 0.0, 0.0, None),
    ((41, 41), (15, 15), 4.25, 0.0, 0.0, None),
    ((33, 33), (11, 11), 0.25, 0.0, 0.0, None),
    ((33, 33), (11, 11), 4.25, 0.0, 0.0, None),
    ((25, 25), (5, 5), 0.75, 0.0, 0.0, None),
    ((13, 5), (3, 11), 1.5, 0.0, 0.0, None),
    ((1, 3), (3, 1), 1.0, 0.0, 0.0, None),
    ((9, 7), (5, 6), 0.6, 0.3, 0.4, None),
    ((9, 7), (5, 6), 1.5, 0.3, 0.4, None),
    ((17, 17), (9, 9), 1.0, 0.25, 0.0, None),
    ((17, 17), (9, 9), 1.0, 0.25, 0.0, 0.3),
)

# The seeded tilted links of the tilted-link workload (seed 0), then a
# boresight lattice link and a tilted lattice link, as in LIBRARY_POINTS.
_TILT = (0.3188843703050096, 4.7623679680665845, 0.284114316166169)
PATTERNS_POINTS = (
    *(((17, 17), (9, 9), d0, *_TILT) for d0 in (0.75, 2.0, 3.0, 3.75)),
    ((9, 9), (5, 5), 1.5, 0.0, 0.0, None),
    ((9, 7), (5, 6), 0.6, 0.3, 0.4, None),
)

# Largest pattern residual |G v - sigma u| / sigma_1 and orthonormality error allowed.
PATTERNS_BOUND = 1e-13

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

# Prints "variant repr(nmse) p_used spectrum-digest" per variant of the point in argv[1].
POINT_SCRIPT = SETUP_SCRIPT + """
ref, mats = variants(json.loads(sys.argv[1]))
for G in mats:
    eigs = eigenchannel_decompose(G, cfg, PPolicy.threshold(1e-6), patterns=False)
    ladder = [select_p(eigs.gains, PPolicy.threshold(10 ** (-k / 10))) for k in range(120)]
    digest = hashlib.sha256(eigs.gains.tobytes() + repr(ladder).encode()).hexdigest()[:16]
    print(G.variant, repr(nmse(G, ref)), eigs.p_used, digest)
"""

# Prints "point variant policy p_used digest residual orthonormality" per variant and
# policy of each point in argv[1], decomposed with patterns (a_t = a_r = 1).
PATTERNS_SCRIPT = SETUP_SCRIPT + """
for index, point in enumerate(json.loads(sys.argv[1])):
    for G in variants(point)[1]:
        for policy in ("threshold(1e-6)", "fixed(5)"):
            eigs = eigenchannel_decompose(G, cfg, PPolicy.parse(policy))
            u, v, s = eigs.rx_patterns, eigs.tx_patterns, eigs.gains[: eigs.p_used]
            residual = float(np.abs(G.matrix @ v - u * s).max() / eigs.gains[0])
            ortho = max(float(np.abs(p.conj().T @ p - np.eye(p.shape[1])).max()) for p in (u, v))
            digest = hashlib.sha256(eigs.gains.tobytes() + u.tobytes() + v.tobytes())
            print(index, G.variant, policy, eigs.p_used, digest.hexdigest()[:16],
                  repr(residual), repr(ortho))
"""


def run(tree: Path, command: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, standard output and standard error of ``python3 *command`` run from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, *command], cwd=tree, env=env,
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def library_results(tree: Path, point) -> list[list[str]]:
    """``[variant, repr(nmse), p_used, digest]`` per variant of one library point from ``tree``."""
    code, out, err = run(tree, ["-c", POINT_SCRIPT, json.dumps(point)])
    if code:
        raise SystemExit(f"library point {point} failed in {tree}:\n{err.decode(errors='replace')}")
    return [line.split() for line in out.decode().splitlines()]


def compare_library(other: Path) -> int:
    """Print how many library results are equal in both trees; return the misses."""
    results = []
    for point in LIBRARY_POINTS:
        here, there = library_results(HERE_TREE, point), library_results(other, point)
        for mine, theirs in zip(here, there, strict=True):
            results.append([a == b for a, b in zip(mine[1:], theirs[1:], strict=True)])
            if mine != theirs:
                print(f"library point {point}: {' '.join(mine)} DIFFERS from {' '.join(theirs)}")
    same_nmse, same_p, same_spectrum = (sum(flags) for flags in zip(*results))
    print(f"library points: NMSE bit-equal for {same_nmse} of {len(results)} variants, "
          f"p_used equal for {same_p} of {len(results)}, spectrum digest (gains and p_used "
          f"at 120 thresholds) equal for {same_spectrum} of {len(results)}")
    return 3 * len(results) - same_nmse - same_p - same_spectrum


def compare_patterns(other: Path) -> int:
    """Print how many patterns digests are equal and bounded in both trees; return the misses."""
    results = []
    for tree in (HERE_TREE, other):
        code, out, err = run(tree, ["-c", PATTERNS_SCRIPT, json.dumps(PATTERNS_POINTS)])
        if code:
            raise SystemExit(f"patterns points failed in {tree}:\n{err.decode(errors='replace')}")
        results.append([line.split() for line in out.decode().splitlines()])
    misses, worst = 0, [0.0, 0.0]
    for mine, theirs in zip(*results, strict=True):
        bounds = [float(x) for x in (*mine[5:], *theirs[5:])]
        worst = [max(worst[0], *bounds[0::2]), max(worst[1], *bounds[1::2])]
        if mine[:5] != theirs[:5] or max(bounds) > PATTERNS_BOUND:
            misses += 1
            point = PATTERNS_POINTS[int(mine[0])]
            print(f"patterns point {point}: {' '.join(mine[1:])} DIFFERS from or breaks the "
                  f"bound with {' '.join(theirs[1:])}")
    print(f"patterns points: {len(results[0]) - misses} of {len(results[0])} digests (gains, "
          f"TX and RX patterns) equal and bounded, largest residual {worst[0]:.2g} and "
          f"orthonormality error {worst[1]:.2g} (bound {PATTERNS_BOUND:g})")
    return misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path, help="root of the other source checkout")
    args = parser.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "src" / "hmimo" / "cli.py").is_file():
        parser.error(f"{other} holds no src/hmimo/cli.py")
    differ = 0
    for command in COMMANDS:
        code_a, out_a, err_a = run(HERE_TREE, ["-m", "hmimo.cli", *command])
        code_b, out_b, err_b = run(other, ["-m", "hmimo.cli", *command])
        same = code_a == code_b and out_a == out_b
        differ += not same
        detail = ""
        if out_a != out_b:
            first = next((i for i, (a, b) in enumerate(zip(out_a, out_b)) if a != b),
                         min(len(out_a), len(out_b)))
            detail = f", first difference at byte {first}"
        print(f"{' '.join(command)}: {'identical' if same else 'DIFFERS'} (exit {code_a} / "
              f"{code_b}, {len(out_a)} / {len(out_b)} bytes{detail})")
        for code, err in ((code_a, err_a), (code_b, err_b)):
            if code:
                print(err.decode(errors="replace").rstrip(), file=sys.stderr)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} outputs identical")
    differ += compare_library(other)
    differ += compare_patterns(other)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
