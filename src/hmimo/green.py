"""Free-space dyadic kernel and the exact coupled reference channel.

Every TX/RX element pair couples through a 3x3 complex dyad evaluated at
the pair displacement vector.  Stacking the dyads block-wise over all
pairs yields the reference matrix (variant tag ``OCM``) against which the
separable approximations in :mod:`hmimo.separable` are measured; on
parallel grids of one spacing it is held as one dyad per grid-index
offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import CoincidentPointsError, _require_positive
from .geometry import LinkGeometry, SurfaceLayout, pairwise_offsets

__all__ = [
    "MODEL_VARIANTS",
    "PSCM_CODES",
    "BlockChannelMatrix",
    "green_dyadic",
    "green_dyadic_far",
    "assemble_ocm",
]

#: Recognized channel-model tags, exact reference first.
MODEL_VARIANTS = ("OCM", "PSCM", "PSCM123", "PSCM12", "FSCM")

#: The code of each separable variant: the amplitude blocks it keeps.
PSCM_CODES = {"PSCM": "1234", "PSCM123": "123", "PSCM12": "12"}

_EYE3 = np.eye(3)


@dataclass(frozen=True, eq=False)
class BlockChannelMatrix:
    """Complex channel matrix made of 3x3 polarization blocks.

    ``BlockChannelMatrix(entries, variant)``: block (m, n) couples RX
    element m to TX element n and occupies rows ``3m..3m+2`` and columns
    ``3n..3n+2`` of ``matrix``.  ``entries`` is the one held form, one of
    three: the dense array; thin factors ``(L, R)``, L 3M x r and R 3N x r,
    that define ``matrix = L @ R.conj().T`` (``factors`` returns the pair);
    or, on a lattice, the (A_v, A_h, 3, 3) table of one block per
    grid-index offset (see ``lattice`` below).  ``matrix`` returns the
    dense array, or forms the product or gathers the table on first read.
    Entries are raw dyad values; the physical scale enters only through
    :class:`~hmimo.capacity.PhysicalConfig`.

    ``lattice`` is an optional structure claim on the entries, a
    :class:`Lattice`, which fast routes trust.  It is not a constructor
    argument: :func:`_grid_lattice` makes it for every assembler, which
    attaches it only to a table or to factors, so a dense array never
    carries one, and neither ``BlockChannelMatrix(...)`` nor
    ``dataclasses.replace`` does either.  A table means nothing without
    its lattice, so neither of them accepts one.  Equality is identity,
    since the numpy fields have no single truth value.
    """

    entries: np.ndarray | tuple[np.ndarray, np.ndarray]
    variant: str
    lattice: Lattice | None = field(default=None, init=False)

    def __post_init__(self):
        if self.variant not in MODEL_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {MODEL_VARIANTS}")
        if self.factors is None:
            shape = self.entries.shape
            if len(shape) == 4:
                raise ValueError("an offset table means nothing without its lattice; "
                                 "hold the dense entries, G.matrix, instead")
            if len(shape) != 2 or shape[0] % 3 or shape[1] % 3:
                raise ValueError(f"matrix shape {shape} is not made of 3x3 blocks")
            return
        left, right = (np.shape(f) for f in self.factors)
        if len(left) != 2 or len(right) != 2 or left[0] % 3 or right[0] % 3 or left[1] != right[1]:
            raise ValueError(f"factors of shapes {left} and {right} are not 3M x r and 3N x r")

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The stored pair ``(L, R)``, or None when the entries are an array."""
        return self.entries if isinstance(self.entries, tuple) else None

    @property
    def _table(self) -> np.ndarray | None:
        """The stored (A_v, A_h, 3, 3) offset table, or None."""
        return None if self.factors is not None or self.entries.ndim != 4 else self.entries

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (3M, 3N) entries: the stored array, or formed once from the held form."""
        if self.factors is not None:
            left, right = self.factors
            return left @ right.conj().T
        if self._table is None:
            return self.entries
        dense = np.empty((self.m_count, 3, self.n_count, 3), dtype=self.entries.dtype)
        # one polarization pair at a time keeps the peak at the result plus a ninth
        for c in range(3):
            for d in range(3):
                dense[:, c, :, d] = self.lattice.spread(self.entries[:, :, c, d])
        return dense.reshape(3 * self.m_count, 3 * self.n_count)

    @property
    def m_count(self) -> int:
        return self._counts[0]

    @property
    def n_count(self) -> int:
        return self._counts[1]

    @property
    def _counts(self) -> tuple[int, int]:
        """(M, N): the RX and TX element counts of the held form."""
        if self.factors is not None:
            return tuple(len(f) // 3 for f in self.factors)
        if self._table is not None:
            return tuple(n_v * n_h for n_v, n_h in zip(self.lattice.v, self.lattice.h))
        return tuple(n // 3 for n in self.entries.shape)


def _claimed(entries, variant: str, lattice: Lattice | None) -> BlockChannelMatrix:
    """A matrix holding ``entries`` with the claim ``lattice``, which the caller has checked.

    It is made without the constructor, which accepts no claim and no table.
    """
    held = object.__new__(BlockChannelMatrix)
    for name, value in (("entries", entries), ("variant", variant), ("lattice", lattice)):
        object.__setattr__(held, name, value)
    return held


def green_dyadic(d_vec: np.ndarray, k0: float) -> np.ndarray:
    """Exact free-space dyad at displacement ``d_vec``.

    With d = |d_vec| and u = d_vec/d:

        (-i / (4 pi d)) * [ (1 + i/(k0 d) - 1/(k0 d)^2) I3
                            + (3/(k0 d)^2 - 3i/(k0 d) - 1) u u' ] * exp(i k0 d)

    A ``d_vec`` with NaN or inf entries is rejected, as are the singular
    d = 0 and a wavenumber that is not positive and finite.
    """
    dist, u = _distance_and_direction(d_vec, k0)
    kd = k0 * dist
    c1, c2 = _weights(kd)
    return (-1j / (4.0 * np.pi * dist)) * np.exp(1j * kd) * (c1 * _EYE3 + c2 * np.outer(u, u))


def green_dyadic_far(d_vec: np.ndarray, k0: float) -> np.ndarray:
    """Leading-order point form of the dyad: ``-i exp(i k0 r) / (4 pi r) (I3 - u u')``.

    ``I3 - u u'`` projects onto the plane transverse to propagation, the
    factor the fully separable channel assembler inherits.  Inputs are
    checked as in :func:`green_dyadic`.
    """
    dist, u = _distance_and_direction(d_vec, k0)
    return (-1j * np.exp(1j * k0 * dist) / (4.0 * np.pi * dist)) * (_EYE3 - np.outer(u, u))


def _distance_and_direction(d_vec, k0: float):
    """Check ``d_vec`` and ``k0``, then return ``(|d_vec|, d_vec / |d_vec|)``."""
    d_vec = np.asarray(d_vec, dtype=float)
    if not np.isfinite(d_vec).all():
        raise ValueError(f"d_vec entries must be finite, got {d_vec}")
    dist = float(np.sqrt(d_vec @ d_vec))
    if dist == 0.0:
        raise CoincidentPointsError("field point coincides with the source point")
    _require_positive("wavenumber", k0)
    return dist, d_vec / dist


def assemble_ocm(
    tx: SurfaceLayout, rx: SurfaceLayout, link: LinkGeometry, k0: float
) -> BlockChannelMatrix:
    """Exact coupled reference channel: one dyad per element pair, or per offset.

    Equivalent to evaluating :func:`green_dyadic` at every pair
    displacement, but vectorized, at the displacements
    :func:`_displacements` gives: on a lattice the result holds the
    (A_v, A_h, 3, 3) offset table; otherwise (a rotated RX surface) it
    holds the dense all-pairs matrix.
    """
    _require_positive("wavenumber", k0)
    lattice = _grid_lattice(tx, rx, link)
    dvec = _displacements(tx, rx, link, lattice)
    dist = np.sqrt(np.einsum("mni,mni->mn", dvec, dvec))
    if np.any(dist == 0.0):
        m, n = _first_pair(dist == 0.0, lattice)
        raise CoincidentPointsError(f"RX element {m} coincides with TX element {n}")
    return _held(_dyad_dense(dvec, dist, link, k0), "OCM", lattice)


def _displacements(tx: SurfaceLayout, rx: SurfaceLayout, link: LinkGeometry, lattice):
    """The pair displacements ``d0 kappa + q - p`` at which an assembler evaluates its kernel.

    With a ``lattice`` they are those of the representative pair of each
    grid-index offset that ``_offset_table`` reads, shape (A_v, A_h, 3),
    so the kernel gives the same blocks, bit for bit, as the table of the
    all-pairs matrix, whose other blocks differ from them only by the
    rounding of q - p.  Otherwise they are those of every pair, (M, N, 3).
    """
    if lattice is None:
        return link.d0 * link.kappa + pairwise_offsets(tx, rx, link)
    v, h = lattice.axes
    rx_reps = v.rx_reps[:, None] * lattice.h[0] + h.rx_reps
    tx_reps = v.tx_reps[:, None] * lattice.h[1] + h.tx_reps
    return link.d0 * link.kappa + (rx.positions[rx_reps] - tx.positions[tx_reps])


def _first_pair(bad: np.ndarray, lattice):
    """The first (m, n), in row-major order, of the pairs whose displacement ``bad`` flags."""
    return np.argwhere(bad if lattice is None else lattice.spread(bad))[0]


def _held(dense: np.ndarray, variant: str, lattice: Lattice | None) -> BlockChannelMatrix:
    """The kernel at :func:`_displacements` held as a matrix: the dense array, or the table."""
    if lattice is None:
        return BlockChannelMatrix(dense, variant)
    table = dense.reshape(sum(lattice.v) - 1, 3, sum(lattice.h) - 1, 3).transpose(0, 2, 1, 3)
    return _claimed(table.copy(), variant, lattice)


def _weights(kd):
    """Kernel weights ``(c1, c2) = (1 + i/kd - 1/kd^2, 3/kd^2 - 3i/kd - 1)``, scalar or array."""
    return 1.0 + 1j / kd - 1.0 / kd**2, 3.0 / kd**2 - 3j / kd - 1.0


def _dyad_dense(
    dvec: np.ndarray, dist: np.ndarray, link: LinkGeometry, k0: float, keep: int = 4
) -> np.ndarray:
    """The dyad of every pair at distance ``dist``, as one dense (3M, 3N) array.

    ``dvec`` holds the (M, N, 3) pair displacements ``d0 kappa + q - p``,
    of every pair or of one representative pair per grid-index offset,
    and is overwritten.  With u = dvec / dist, block (m, n) is

        (-i / (4 pi r)) * [ c1(k0 r) I3 + c2(k0 r) U ] * exp(i k0 r)

    with r = dist[m, n], c1 and c2 the weights :func:`_weights` gives at k0 r,
    and U the dyad term truncated to the ``keep`` amplitude blocks of the
    separable variants: ``u u'`` (4), ``u u' - t t'`` (3) with
    ``t = u - (d0 / r) kappa`` the offset part of u, or
    ``(d0 / r)^2 kappa kappa'`` (2).  At ``r = |dvec|`` and ``keep = 4``
    this is the exact dyad; at the projected distance ``r = dvec'kappa``
    it is the separable model.
    """
    if keep == 2:
        u = np.multiply((link.d0 / dist)[..., None], link.kappa, out=dvec)
    else:
        u = np.divide(dvec, dist[..., None], out=dvec)
    t = u - (link.d0 / dist)[..., None] * link.kappa if keep == 3 else None
    kd = k0 * dist
    c1, c2 = _weights(kd)
    pref = (-1j / (4.0 * np.pi * dist)) * np.exp(1j * kd)
    m_count, n_count = dist.shape
    # One (M, N) workspace per slice, written to both symmetric slices,
    # keeps the peak at the result plus a few (M, N) arrays.
    dense = np.empty((m_count, 3, n_count, 3), dtype=complex)
    work = np.empty_like(pref)
    for i in range(3):
        for j in range(i, 3):
            dyad = u[..., i] * u[..., j]
            if t is not None:
                dyad -= t[..., i] * t[..., j]
            np.multiply(c2, dyad, out=work)
            if i == j:
                work += c1
            dense[:, i, :, j] = dense[:, j, :, i] = np.multiply(pref, work, out=work)
    return dense.reshape(3 * m_count, 3 * n_count)


class Lattice(NamedTuple):
    """The claim that block (m, n) depends only on the grid-index offset of its pair.

    ``v = (rx_n_v, tx_n_v)`` and ``h = (rx_n_h, tx_n_h)`` are the grid
    sizes along the two axes of the j-major element order (``v == h`` on
    square grids).  The two uniform grids share one spacing and are
    parallel, so block (m, n) depends only on the offset (v_r - v_t,
    h_r - h_t) of RX element (v_r, h_r) and TX element (v_t, h_t), exactly
    in exact arithmetic, and the matrix holds A_v A_h = (rx_n_v + tx_n_v
    - 1)(rx_n_h + tx_n_h - 1) distinct blocks.  ``mirror``: the link is
    at boresight too, and the grids' positions are exact negatives under
    index reversal, so reversing the i index of both grids maps block
    (m, n) to ``S G(m, n) S`` with ``S = diag(-1, 1, 1)``, and the j index
    likewise with ``S = diag(1, -1, 1)``.  Equality and hash are the ints'.
    """

    v: tuple[int, int]
    h: tuple[int, int]
    mirror: bool

    @property
    def axes(self):
        """The per-axis offset maps :func:`_axis` of v and h."""
        return _axis(*self.v), _axis(*self.h)

    def spread(self, per_offset: np.ndarray) -> np.ndarray:
        """The (M, N) array of ``per_offset[a, b]`` at the table index (a, b) of every pair."""
        v, h = self.axes
        pairs = per_offset[v.index[:, None, :, None], h.index[None, :, None, :]]
        return pairs.reshape(self.v[0] * self.h[0], -1)


def _grid_lattice(tx: SurfaceLayout, rx: SurfaceLayout, link: LinkGeometry) -> Lattice | None:
    """The :class:`Lattice` of a link whose blocks depend only on the index offset, else None.

    That holds when the RX surface is not rotated and both grids share one
    spacing; the tilt of the link does not matter, since every variant
    sees the pair only through q - p.  The lattice is mirrored when kappa
    lies along z.  This is the one place a claim is made.
    """
    if link.rx_rotation is not None or tx.spacing != rx.spacing:
        return None
    return Lattice((rx.n_v, tx.n_v), (rx.n_h, tx.n_h), not link.kappa[:2].any())


class _Axis(NamedTuple):
    """The offsets a = i_r - i_t of one grid axis, each at table index a + tx_n - 1.

    ``rx_reps`` and ``tx_reps`` hold a representative pair (i_r, i_t) per
    offset and ``counts`` the number of pairs that share it; ``index`` is
    the (rx_n, tx_n) table index of every pair.  ``kernels`` maps (p_r,
    p_t) to ``K[rows of parity p_r, columns of parity p_t]``, with
    ``K[:, :, a] = B_r E_a B_t'``, ``E_a`` the 0/1 matrix of the pairs at
    index a and ``B`` the orthonormal butterfly of each side: rows
    (e_k + e_{n-1-k}) / sqrt(2), then the centre e_k of an odd n (the even
    rows), then (e_k - e_{n-1-k}) / sqrt(2) (the odd rows).  All read-only.
    """

    rx_reps: np.ndarray
    tx_reps: np.ndarray
    counts: np.ndarray
    index: np.ndarray
    kernels: MappingProxyType


@lru_cache(maxsize=32)
def _axis(rx_n: int, tx_n: int) -> _Axis:
    """The :class:`_Axis` of an (rx_n, tx_n) grid axis, built on first use."""
    def butterfly(n):
        eye, half = np.eye(n), n // 2
        basis = np.sqrt(0.5) * np.vstack([(eye + eye[::-1])[: n - half], (eye - eye[::-1])[:half]])
        if n % 2:
            basis[half, half] = 1.0
        return basis, {1: slice(0, n - half), -1: slice(n - half, n)}

    a = np.arange(1 - tx_n, rx_n)
    tx_reps = np.maximum(0, -a)
    index = np.subtract.outer(np.arange(rx_n), np.arange(tx_n)) + tx_n - 1
    (b_r, rows), (b_t, cols) = butterfly(rx_n), butterfly(tx_n)
    kernel = np.einsum("tk,rka->rta", b_t, np.einsum("ri,ika->rka", b_r, np.eye(len(a))[index]))
    kernels = {(p_r, p_t): np.ascontiguousarray(kernel[rows[p_r], cols[p_t]])
               for p_r in rows for p_t in cols}
    axis = _Axis(tx_reps + a, tx_reps, np.minimum(tx_n, rx_n - a) - tx_reps, index,
                 MappingProxyType(kernels))
    for array in (*axis[:4], *kernels.values()):
        array.setflags(write=False)
    return axis


def _offset_table(green: BlockChannelMatrix):
    """One block per grid-index offset of a lattice matrix, and how many pairs share it.

    Returns the (A_v, A_h, 3, 3) table whose entry (a, b) is the block of
    offset (a + 1 - tx_n_v, b + 1 - tx_n_h), read from the representative
    pair of :func:`_axis`, and the (A_v, A_h, 1, 1) pair counts.  Only
    a table or factors carry a lattice, and neither forms ``matrix``: a
    table-backed matrix returns the stored table, and a factored one forms
    ``L[rx reps] @ R[tx reps]'`` as four products, one per sign quadrant
    of the offsets.  At boresight these keep the bits of the dense read,
    as a product per block did; ``einsum`` does not.
    """
    lattice = green.lattice
    v, h = lattice.axes
    counts = (v.counts[:, None] * h.counts)[:, :, None, None]
    if green._table is not None:
        return green._table, counts
    left, right = green.factors
    rank = left.shape[1]
    left = left.reshape(lattice.v[0], lattice.h[0], 3, rank)
    right = right.reshape(lattice.v[1], lattice.h[1], 3, rank).conj()
    # Along one axis the offsets a < 0 share RX row 0 and the offsets a >= 0
    # share TX row 0, so each sign quadrant of the table is one product.
    def halves(axis, n0):  # (table part, RX rows, TX rows) of each sign half
        neg, pos = slice(None, n0), slice(n0, None)
        return ((neg, axis.rx_reps[neg][:1], axis.tx_reps[neg]),
                (pos, axis.rx_reps[pos], axis.tx_reps[pos][:1]))

    table = np.empty((len(v.counts), len(h.counts), 3, 3), dtype=complex)
    for t_v, r_v, s_v in halves(v, lattice.v[1] - 1):
        for t_h, r_h, s_h in halves(h, lattice.h[1] - 1):
            rx_rows, tx_rows = left[r_v[:, None], r_h], right[s_v[:, None], s_h]
            quadrant = rx_rows.reshape(-1, rank) @ tx_rows.reshape(-1, rank).T
            quadrant = quadrant.reshape(rx_rows.shape[:3] + tx_rows.shape[:3])
            table[t_v, t_h] = quadrant.transpose(0, 3, 1, 4, 2, 5).reshape(table[t_v, t_h].shape)
    return table, counts


# Sign of each polarization component under the x mirror, S = diag(-1, 1, 1),
# and under the y mirror, S = diag(1, -1, 1).
_MIRROR_SIGNS = ((-1, 1, 1), (1, -1, 1))


def _lattice_sectors(green: BlockChannelMatrix):
    """Blocks whose spectra make up that of a mirrored offset table, as ``(block, copies)``.

    Its spectrum is the union of its blocks' spectra, each counted
    ``copies`` times.  An orthonormal butterfly (:func:`_axis`)
    along each of the four grid axes is a change of basis on each side, so
    it keeps the spectrum.  Afterwards every row and column has an x and a
    y parity: the spatial parity of its element times the polarization's
    sign in ``_MIRROR_SIGNS``.  The mirror symmetry (see
    ``Lattice.mirror``) leaves only the blocks between rows and
    columns of equal parities, the four parity sectors (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976).  Polarization pair (c, d) of a sector
    is ``K_v T_cd K_h'`` with ``T_cd`` the (A_v, A_h) slice of the stored
    offset table.  Empty blocks are skipped.

    When both grids are square, swapping x and y with the polarizations x
    and y is a symmetry too, and in the butterfly basis a permutation: it
    maps row (x, i, j) to (y, j, i) and (z, i, j) to (z, j, i), and the
    columns alike.  It maps sector (ex, ey) onto (ey, ex), so (-, +) is
    skipped and (+, -) counted twice, and it splits (+, +) and (-, -) into
    their swap-even and swap-odd halves (:func:`_swap_half`).  The blocks
    between the two halves hold only rounding and are dropped.  Otherwise
    the four sectors are the blocks.
    """
    k_v, k_h = (axis.kernels for axis in green.lattice.axes)
    swap = green.lattice.v == green.lattice.h
    for ex in (1, -1):
        for ey in (1, -1):
            if swap and (ex, ey) == (-1, 1):
                continue
            # (v parity, h parity) of each polarization's rows and columns
            parity = [(ey * _MIRROR_SIGNS[1][c], ex * _MIRROR_SIGNS[0][c]) for c in range(3)]
            sector = _gather_sector(green, k_v, k_h, parity)
            if not sector.size:
                continue
            if not swap or ex != ey:
                yield sector, 2 if swap else 1
                continue
            # rows and columns hold x (p, q), y (q, p) and z (p, p) elements, p and q the
            # counts of parity ex and -ex that lead the shapes of kernels (ex, ex), (-ex, -ex)
            rx_pq, tx_pq = zip(k_v[ex, ex].shape[:2], k_v[-ex, -ex].shape[:2])
            for sign in (1, -1):
                half = _swap_half(_swap_half(sector, *rx_pq, sign).T, *tx_pq, sign)
                if half.size:
                    yield half, 1


def _gather_sector(green: BlockChannelMatrix, k_v, k_h, parity) -> np.ndarray:
    """The parity sector whose polarizations have the (v, h) parities ``parity``.

    Its rows are (c, i, j) and its columns (d, k, l), and piece (c, d) is
    ``sum_ab K_v[i, k, a] T_cd[a, b] K_h[j, l, b]``, written straight into
    its slice of the preallocated sector.  Kernel (p, q) of an axis holds
    its RX rows of parity p and its TX columns of parity q.
    """
    shapes = [(k_v[pv, pv].shape, k_h[ph, ph].shape) for pv, ph in parity]
    row_edges, col_edges = (np.cumsum([0] + [sv[i] * sh[i] for sv, sh in shapes]) for i in (0, 1))
    sector = np.empty((row_edges[-1], col_edges[-1]), dtype=complex)
    for c, (pv, ph) in enumerate(parity):
        for d, (qv, qh) in enumerate(parity):
            kv, kh = k_v[pv, qv], k_h[ph, qh]
            half = kv.reshape(-1, kv.shape[2]) @ green._table[:, :, c, d]
            piece = (half @ kh.reshape(-1, kh.shape[2]).T).reshape(*kv.shape[:2], *kh.shape[:2])
            piece = piece.transpose(0, 2, 1, 3)  # (RX v, RX h, TX v, TX h)
            # a reshape that splits both axes of a slice is a view of the sector
            view = sector[row_edges[c]:row_edges[c + 1], col_edges[d]:col_edges[d + 1]]
            view.reshape(piece.shape)[...] = piece
    return sector


@lru_cache(maxsize=32)
def _triangle(p: int):
    """The read-only (i, j) indices, i < j, of the upper triangle of a p x p grid."""
    upper = np.triu_indices(p, 1)
    for index in upper:
        index.setflags(write=False)
    return upper


def _swap_half(block: np.ndarray, p: int, q: int, sign: int) -> np.ndarray:
    """The swap-even (``sign`` 1) or swap-odd (-1) rows of ``block``.

    The rows of ``block`` are x elements on a (p, q) grid, then y elements
    on a (q, p) grid, then z elements on a (p, p) grid, each in row-major
    order, and the swap maps x (i, j) to y (j, i) and z (i, j) to z (j, i).
    The half holds (x (i, j) + sign y (j, i)) / sqrt(2), then
    (z (i, j) + sign z (j, i)) / sqrt(2) for i < j, then, in the even half,
    z (i, i).  The two halves together are an orthonormal change of basis.
    """
    n, rest = p * q, block.shape[1:]
    x = block[:n].reshape(p, q, *rest)
    y = block[n:2 * n].reshape(q, p, *rest).swapaxes(0, 1)
    z = block[2 * n:].reshape(p, p, *rest)
    upper, lower = _triangle(p)
    pairs = n + len(upper)
    half = np.empty((pairs + p * (sign == 1), *rest), dtype=block.dtype)
    combine = np.add if sign == 1 else np.subtract
    combine(x, y, out=half[:n].reshape(p, q, *rest))
    combine(z[upper, lower], z[lower, upper], out=half[n:pairs])
    half[:pairs] *= np.sqrt(0.5)
    if sign == 1:
        half[pairs:] = z[np.arange(p), np.arange(p)]
    return half
