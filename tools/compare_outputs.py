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

Output bytes depend on the BLAS thread count, so both trees run under the
same environment.  The full-size sweeps take a few seconds each.

Usage: python3 tools/compare_outputs.py OTHER_TREE

Exits 0 when every output matches, 1 when any differs, 2 on bad usage.
"""

from __future__ import annotations

import argparse
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


def run(tree: Path, command: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, standard output and standard error of one command run from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "hmimo.cli", *command], cwd=tree, env=env,
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path, help="root of the other source checkout")
    args = parser.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "src" / "hmimo" / "cli.py").is_file():
        parser.error(f"{other} holds no src/hmimo/cli.py")
    differ = 0
    for command in COMMANDS:
        code_a, out_a, err_a = run(HERE_TREE, command)
        code_b, out_b, err_b = run(other, command)
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
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
