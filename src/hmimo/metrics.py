"""Model-agreement metrics between block channel matrices."""

from __future__ import annotations

import numpy as np

from .green import BlockChannelMatrix, _offset_table

__all__ = ["nmse"]


# Elements per chunk in nmse: 4 MiB of complex values and a whole number of
# numpy's 8192-element ufunc buffers, so the chunked extended-precision sums
# add the same buffer sums in the same order as one sum over the matrix.
_CHUNK = 1 << 18


def nmse(candidate: BlockChannelMatrix, reference: BlockChannelMatrix) -> float:
    """Normalized mean squared error |C - R|_F^2 / |R|_F^2.

    Both matrices must have identical block dimensions; the
    squared-magnitude sums accumulate in extended precision.  Scaling
    both matrices by a common factor leaves the result unchanged.

    When both carry the same ``lattice``, every block is a function of
    its grid-index offset (a, b) alone, so the sums run over one block
    per offset weighted by the number of pairs that share it,
    w(a, b) = w_v(a) w_h(b) with w_v(a) = min(tx_n_v, rx_n_v - a)
    - max(0, -a): sum w |c - r|^2 / sum w |r|^2.  This agrees with the
    full sums to rounding (about 1e-15 relative).  Otherwise (a matrix
    rebuilt with ``dataclasses.replace`` carries no lattice) the sums run
    over every entry, chunk by chunk, so no temporary is larger than a
    chunk.
    """
    if candidate.matrix.shape != reference.matrix.shape:
        raise ValueError(
            f"dimension mismatch: candidate {candidate.matrix.shape} "
            f"vs reference {reference.matrix.shape}"
        )
    if reference.lattice is not None and candidate.lattice == reference.lattice:
        cand, _ = _offset_table(candidate)
        ref, weight = _offset_table(reference)
        den = np.sum(weight * np.abs(ref) ** 2, dtype=np.longdouble)
        num = np.sum(weight * np.abs(cand - ref) ** 2, dtype=np.longdouble)
    else:
        cand = candidate.matrix.reshape(-1)
        ref = reference.matrix.reshape(-1)
        num = den = np.longdouble(0.0)
        for start in range(0, ref.size, _CHUNK):
            r = ref[start : start + _CHUNK]
            den = np.sum(np.abs(r) ** 2, dtype=np.longdouble, initial=den)
            num = np.sum(np.abs(cand[start : start + _CHUNK] - r) ** 2, dtype=np.longdouble,
                         initial=num)
    if den == 0.0:
        raise ValueError("degenerate reference: zero matrix")
    return float(num / den)

