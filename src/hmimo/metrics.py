"""Model-agreement metrics between block channel matrices."""

from __future__ import annotations

import numpy as np

from .green import BlockChannelMatrix

__all__ = ["nmse"]


# Elements per chunk in nmse: 4 MiB of complex values and a whole number of
# numpy's 8192-element ufunc buffers, so the chunked extended-precision sums
# add the same buffer sums in the same order as one sum over the matrix.
_CHUNK = 1 << 18


def nmse(candidate: BlockChannelMatrix, reference: BlockChannelMatrix) -> float:
    """Normalized mean squared error |C - R|_F^2 / |R|_F^2.

    Both matrices must have identical block dimensions and the same
    scaling state; the squared-magnitude sums accumulate in extended
    precision, chunk by chunk, so no temporary is larger than a chunk.
    Scaling both matrices by a common factor leaves the result unchanged.
    """
    if candidate.matrix.shape != reference.matrix.shape:
        raise ValueError(
            f"dimension mismatch: candidate {candidate.matrix.shape} "
            f"vs reference {reference.matrix.shape}"
        )
    if candidate.scale_applied != reference.scale_applied:
        raise ValueError("mixed scaling: candidate and reference differ in scale_applied")
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

