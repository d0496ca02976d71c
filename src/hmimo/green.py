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

    Two optional structure claims describe the entries; fast routes trust
    them.  Neither is a constructor argument: only the assemblers attach
    them, and only to a table or to factors, so a dense array never
    carries one, and neither ``BlockChannelMatrix(...)`` nor
    ``dataclasses.replace`` does either.  A table means nothing without
    its lattice, so neither of them accepts one.  Equality is identity,
    since the numpy fields have no single truth value.

    ``lattice`` is ``((rx_n_v, rx_n_h), (tx_n_v, tx_n_h))``, the grid
    shapes of the j-major element order, and records that the two
    uniform grids share one spacing and are parallel, so block (m, n)
    depends only on the grid-index offset (v_r - v_t, h_r - h_t) of RX
    element (v_r, h_r) and TX element (v_t, h_t): exactly in exact
    arithmetic, within rounding in floating point.  The matrix then holds
    A_v A_h = (rx_n_v + tx_n_v - 1)(rx_n_h + tx_n_h - 1) distinct blocks,
    and :func:`~hmimo.metrics.nmse` reads only their table, one block per
    offset (``_offset_table``).

    ``mirror`` is a flag on the lattice: the link is at boresight and
    every grid's positions are exact negatives under index reversal, so
    reversing the i index of both grids maps block (m, n) to
    ``S G(m, n) S`` with ``S = diag(-1, 1, 1)``, and reversing the j
    index does the same with ``S = diag(1, -1, 1)``.  The spectrum then
    splits into four parity sectors, and on square grids further by the
    x <-> y swap (``_lattice_sectors``).
    """

    entries: np.ndarray | tuple[np.ndarray, np.ndarray]
    variant: str
    lattice: tuple[tuple[int, int], tuple[int, int]] | None = field(default=None, init=False)
    mirror: bool = field(default=False, init=False)

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
        (rx_v, rx_h), (tx_v, tx_h) = self.lattice
        dense = np.empty((rx_v, rx_h, 3, tx_v, tx_h, 3), dtype=self.entries.dtype)
        pairs = _pair_offsets(self.lattice)
        # one polarization pair at a time keeps the peak at the result plus a ninth
        for c in range(3):
            for d in range(3):
                dense[:, :, c, :, :, d] = self.entries[:, :, c, d][pairs]
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
            return tuple(v * h for v, h in self.lattice)
        return tuple(n // 3 for n in self.entries.shape)


def _claimed(entries, variant: str, lattice, mirror: bool) -> BlockChannelMatrix:
    """A matrix holding ``entries`` with exactly the claims given, which the caller has checked.

    It is made without the constructor, which accepts no claim and no table.
    """
    held = object.__new__(BlockChannelMatrix)
    for name, value in (("entries", entries), ("variant", variant), ("lattice", lattice),
                        ("mirror", mirror)):
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
    c1 = 1.0 + 1j / kd - 1.0 / kd**2
    c2 = 3.0 / kd**2 - 3j / kd - 1.0
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
    (A_v, A_h, 3, 3) offset table, and at boresight (kappa along z) also
    carries ``mirror``; otherwise (a rotated RX surface) it holds the
    dense all-pairs matrix.
    """
    _require_positive("wavenumber", k0)
    lattice = _grid_lattice(tx, rx, link)
    dvec = _displacements(tx, rx, link, lattice)
    dist = np.sqrt(np.einsum("mni,mni->mn", dvec, dvec))
    if np.any(dist == 0.0):
        m, n = _first_pair(dist == 0.0, lattice)
        raise CoincidentPointsError(f"RX element {m} coincides with TX element {n}")
    return _held(_dyad_dense(dvec, dist, link, k0), "OCM", lattice, not link.kappa[:2].any())


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
    (rx_v, rx_h), (tx_v, tx_h) = lattice
    (vr, vt, _), (hr, ht, _) = _offsets(rx_v, tx_v), _offsets(rx_h, tx_h)
    offsets = rx.positions[vr[:, None] * rx_h + hr] - tx.positions[vt[:, None] * tx_h + ht]
    return link.d0 * link.kappa + offsets


def _first_pair(bad: np.ndarray, lattice):
    """The first (m, n), in row-major order, of the pairs whose displacement ``bad`` flags."""
    if lattice is not None:  # the pairs of each flagged offset, in (m, n) order
        (rx_v, rx_h), _ = lattice
        bad = bad[_pair_offsets(lattice)].reshape(rx_v * rx_h, -1)
    return np.argwhere(bad)[0]


def _held(dense: np.ndarray, variant: str, lattice, mirror: bool = False) -> BlockChannelMatrix:
    """The kernel at :func:`_displacements` held as a matrix: the dense array, or the table."""
    if lattice is None:
        return BlockChannelMatrix(dense, variant)
    (rx_v, rx_h), (tx_v, tx_h) = lattice
    table = dense.reshape(rx_v + tx_v - 1, 3, rx_h + tx_h - 1, 3).transpose(0, 2, 1, 3).copy()
    return _claimed(table, variant, lattice, mirror)


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


def _grid_lattice(tx: SurfaceLayout, rx: SurfaceLayout, link: LinkGeometry):
    """``((rx_n_v, rx_n_h), (tx_n_v, tx_n_h))`` when blocks depend only on the index offset.

    That holds when the RX surface is not rotated and both grids share one
    spacing; the tilt of the link does not matter, since every variant
    sees the pair only through q - p.  Otherwise None.
    """
    if link.rx_rotation is not None or tx.spacing != rx.spacing:
        return None
    return ((rx.n_v, rx.n_h), (tx.n_v, tx.n_h))


def _offsets(rx_n: int, tx_n: int):
    """Per offset a = i_r - i_t along one axis: a representative (i_r, i_t) and its pair count."""
    a = np.arange(1 - tx_n, rx_n)
    i_t = np.maximum(0, -a)
    return i_t + a, i_t, np.minimum(tx_n, rx_n - a) - i_t


def _offset_index(rx_n: int, tx_n: int) -> np.ndarray:
    """The table index ``i_r - i_t + tx_n - 1`` of every (i_r, i_t) pair along one axis."""
    return np.subtract.outer(np.arange(rx_n), np.arange(tx_n)) + tx_n - 1


def _pair_offsets(lattice):
    """The offset-table index (a, b) of every pair, broadcast to (rx_v, rx_h, tx_v, tx_h)."""
    (rx_v, rx_h), (tx_v, tx_h) = lattice
    a, b = _offset_index(rx_v, tx_v), _offset_index(rx_h, tx_h)
    return a[:, None, :, None], b[None, :, None, :]


def _offset_table(green: BlockChannelMatrix):
    """One block per grid-index offset of a lattice matrix, and how many pairs share it.

    Returns the (A_v, A_h, 3, 3) table whose entry (a, b) is the block of
    offset (a + 1 - tx_n_v, b + 1 - tx_n_h), read from the representative
    pair of :func:`_offsets`, and the (A_v, A_h, 1, 1) pair counts.  Only
    a table or factors carry a lattice, and neither forms ``matrix``: a
    table-backed matrix returns the stored table, and a factored one forms
    ``L[rx reps] @ R[tx reps]'`` as four products, one per sign quadrant
    of the offsets.  At boresight these keep the bits of the dense read,
    as a product per block did; ``einsum`` does not.
    """
    (rx_v, rx_h), (tx_v, tx_h) = green.lattice
    (vr, vt, w_v), (hr, ht, w_h) = _offsets(rx_v, tx_v), _offsets(rx_h, tx_h)
    counts = (w_v[:, None] * w_h)[:, :, None, None]
    if green._table is not None:
        return green._table, counts
    left, right = green.factors
    rank = left.shape[1]
    left = left.reshape(rx_v, rx_h, 3, rank)
    right = right.reshape(tx_v, tx_h, 3, rank).conj()
    # Along one axis the offsets a < 0 share RX row 0 and the offsets a >= 0
    # share TX row 0, so each sign quadrant of the table is one product.
    def halves(i_r, i_t, n0):  # (table part, RX rows, TX rows) of each sign half
        neg, pos = slice(None, n0), slice(n0, None)
        return (neg, i_r[neg][:1], i_t[neg]), (pos, i_r[pos], i_t[pos][:1])

    table = np.empty((len(vr), len(hr), 3, 3), dtype=complex)
    h_halves = halves(hr, ht, tx_h - 1)
    for t_v, r_v, s_v in halves(vr, vt, tx_v - 1):
        for t_h, r_h, s_h in h_halves:
            rx_rows, tx_rows = left[r_v[:, None], r_h], right[s_v[:, None], s_h]
            quadrant = rx_rows.reshape(-1, rank) @ tx_rows.reshape(-1, rank).T
            quadrant = quadrant.reshape(rx_rows.shape[:3] + tx_rows.shape[:3])
            table[t_v, t_h] = quadrant.transpose(0, 3, 1, 4, 2, 5).reshape(table[t_v, t_h].shape)
    return table, counts


# Sign of each polarization component under the x mirror, S = diag(-1, 1, 1),
# and under the y mirror, S = diag(1, -1, 1).
_MIRROR_SIGNS = ((-1, 1, 1), (1, -1, 1))


@lru_cache(maxsize=32)
def _parity_kernels(rx_n: int, tx_n: int):
    """Offset kernels of one grid axis in the even/odd bases, keyed by (RX, TX) parity.

    ``K[:, :, a] = B_r E_a B_t'`` with ``E_a`` the 0/1 matrix of the pairs
    whose table index (:func:`_offset_index`) is a, and ``B`` the
    orthonormal butterfly of each side: rows (e_k + e_{n-1-k}) / sqrt(2),
    then the centre e_k of an odd n (the even rows), then
    (e_k - e_{n-1-k}) / sqrt(2) (the odd rows).  Returns the read-only
    mapping ``{(p_r, p_t): K[rows of parity p_r, columns of parity p_t]}``
    of read-only arrays, built once per axis size.
    """
    def butterfly(n):
        eye, half = np.eye(n), n // 2
        basis = np.sqrt(0.5) * np.vstack([(eye + eye[::-1])[: n - half], (eye - eye[::-1])[:half]])
        if n % 2:
            basis[half, half] = 1.0
        return basis, {1: slice(0, n - half), -1: slice(n - half, n)}

    (b_r, rows), (b_t, cols) = butterfly(rx_n), butterfly(tx_n)
    offset = np.eye(rx_n + tx_n - 1)[_offset_index(rx_n, tx_n)]
    kernel = np.einsum("tk,rka->rta", b_t, np.einsum("ri,ika->rka", b_r, offset))
    kernels = {}
    for p_r in rows:
        for p_t in cols:
            kernels[p_r, p_t] = np.ascontiguousarray(kernel[rows[p_r], cols[p_t]])
            kernels[p_r, p_t].setflags(write=False)
    return MappingProxyType(kernels)


def _parity_count(n: int, parity: int) -> int:
    """How many butterfly rows of an n-element axis have ``parity``: the even ones hold the centre."""
    return n - n // 2 if parity == 1 else n // 2


def _lattice_sectors(green: BlockChannelMatrix):
    """Blocks whose spectra make up that of a mirrored lattice matrix, as ``(block, copies)``.

    Its spectrum is the union of its blocks' spectra, each counted
    ``copies`` times.  An orthonormal butterfly (:func:`_parity_kernels`)
    along each of the four grid axes is a change of basis on each side, so
    it keeps the spectrum.  Afterwards every row and column has an x and a
    y parity: the spatial parity of its element times the polarization's
    sign in ``_MIRROR_SIGNS``.  The mirror symmetry (see
    ``BlockChannelMatrix.mirror``) leaves only the blocks between rows and
    columns of equal parities, the four parity sectors (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976).  Polarization pair (c, d) of a sector
    is ``K_v T_cd K_h'`` with ``T_cd`` the (A_v, A_h) slice of the stored
    offset table, which a mirrored matrix always holds.  Empty blocks are
    skipped.

    When both grids are square, swapping x and y with the polarizations x
    and y is a symmetry too, and in the butterfly basis a permutation: it
    maps row (x, i, j) to (y, j, i) and (z, i, j) to (z, j, i), and the
    columns alike.  It maps sector (ex, ey) onto (ey, ex), so (-, +) is
    skipped and (+, -) counted twice, and it splits (+, +) and (-, -) into
    their swap-even and swap-odd halves (:func:`_swap_half`).  The blocks
    between the two halves hold only rounding and are dropped.  Otherwise
    the four sectors are the blocks.
    """
    (rx_v, rx_h), (tx_v, tx_h) = green.lattice
    k_v, k_h = _parity_kernels(rx_v, tx_v), _parity_kernels(rx_h, tx_h)
    swap = rx_v == rx_h and tx_v == tx_h
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
            # rows and columns hold x (p, q), y (q, p) and z (p, p) elements
            rx_pq, tx_pq = ((_parity_count(n, ex), _parity_count(n, -ex)) for n in (rx_v, tx_v))
            for sign in (1, -1):
                half = _swap_half(_swap_half(sector, *rx_pq, sign).T, *tx_pq, sign)
                if half.size:
                    yield half, 1


def _gather_sector(green: BlockChannelMatrix, k_v, k_h, parity) -> np.ndarray:
    """The parity sector whose polarizations have the (v, h) parities ``parity``.

    Its rows are (c, i, j) and its columns (d, k, l), and piece (c, d) is
    ``sum_ab K_v[i, k, a] T_cd[a, b] K_h[j, l, b]``, written straight into
    its slice of the preallocated sector.
    """
    (rx_v, rx_h), (tx_v, tx_h) = green.lattice
    rows = [(_parity_count(rx_v, pv), _parity_count(rx_h, ph)) for pv, ph in parity]
    cols = [(_parity_count(tx_v, pv), _parity_count(tx_h, ph)) for pv, ph in parity]
    row_edges, col_edges = (np.cumsum([0] + [a * b for a, b in shape]) for shape in (rows, cols))
    sector = np.empty((row_edges[-1], col_edges[-1]), dtype=complex)
    for c, ((pv, ph), (nr_v, nr_h)) in enumerate(zip(parity, rows)):
        for d, ((qv, qh), (nt_v, nt_h)) in enumerate(zip(parity, cols)):
            kv, kh = k_v[pv, qv], k_h[ph, qh]
            half = kv.reshape(-1, kv.shape[2]) @ green._table[:, :, c, d]
            piece = (half @ kh.reshape(-1, kh.shape[2]).T).reshape(nr_v, nt_v, nr_h, nt_h)
            # a reshape that splits both axes of a slice is a view of the sector
            view = sector[row_edges[c]:row_edges[c + 1], col_edges[d]:col_edges[d + 1]]
            view.reshape(nr_v, nr_h, nt_v, nt_h)[...] = piece.transpose(0, 2, 1, 3)
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
