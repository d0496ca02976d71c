"""Model-agreement metrics between block channel matrices."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
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
    full sums to rounding (about 1e-15 relative), and a factored matrix
    gives its table from its factors.  Otherwise (a matrix rebuilt with
    ``dataclasses.replace`` carries no lattice) the sums run over every
    entry, chunk by chunk, so no temporary is larger than a chunk.  A sum
    or a ratio that is not finite raises :class:`~hmimo.NumericalError`.
    """
    sizes = [(g.m_count, g.n_count) for g in (candidate, reference)]
    if sizes[0] != sizes[1]:
        raise ValueError(f"dimension mismatch: candidate {sizes[0]} vs reference {sizes[1]} blocks")
    if reference.lattice is not None and candidate.lattice == reference.lattice:
        pieces = [(_offset_table(candidate)[0], *_offset_table(reference))]
    else:  # aligned chunks of the two matrices, each of weight 1
        flat_c, flat_r = candidate.matrix.reshape(-1), reference.matrix.reshape(-1)
        pieces = ((flat_c[i : i + _CHUNK], flat_r[i : i + _CHUNK], 1)
                  for i in range(0, flat_r.size, _CHUNK))
    num = den = np.longdouble(0.0)
    for cand, ref, weight in pieces:
        den = np.sum(weight * np.abs(ref) ** 2, dtype=np.longdouble, initial=den)
        num = np.sum(weight * np.abs(cand - ref) ** 2, dtype=np.longdouble, initial=num)
    if den == 0.0:
        raise ValueError("degenerate reference: zero matrix")
    ratio = float(num / den)
    if not (np.isfinite(num) and np.isfinite(den) and np.isfinite(ratio)):
        raise NumericalError("NMSE is not finite: an entry is NaN or inf, or its square overflows")
    return ratio
