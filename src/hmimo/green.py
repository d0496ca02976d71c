"""Free-space dyadic kernel and the exact coupled reference channel.

Every TX/RX element pair couples through a 3x3 complex dyad evaluated at
the pair displacement vector.  Stacking the dyads block-wise over all
pairs yields the dense reference matrix (variant tag ``OCM``) against
which the separable approximations in :mod:`hmimo.separable` are
measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CoincidentPointsError
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
    ``3n..3n+2`` of ``matrix``.  ``entries`` is the one stored form: the
    dense array, or thin factors ``(L, R)``, L 3M x r and R 3N x r, that
    define ``matrix = L @ R.conj().T``; ``factors`` returns that pair and
    ``matrix`` forms the product on first read.  Assemblers store factors
    where the matrix is exactly separable into TX and RX terms.  Entries
    are raw dyad values; the physical scale enters only through
    :class:`~hmimo.capacity.PhysicalConfig`.

    Two optional structure claims describe the entries; fast routes trust
    them.  Neither is a constructor argument: they are attached only
    through :meth:`with_structure`, so neither ``BlockChannelMatrix(...)``
    nor ``dataclasses.replace`` ever carries one, and a matrix rebuilt
    with ``replace(G, entries=m)`` is read entry by entry.  Equality is
    identity, since the numpy fields have no single truth value.

    ``lattice`` is ``((rx_n_v, rx_n_h), (tx_n_v, tx_n_h))``, the grid
    shapes of the j-major element order, and records that the two
    uniform grids share one spacing and are parallel, so block (m, n)
    depends only on the grid-index offset (v_r - v_t, h_r - h_t) of RX
    element (v_r, h_r) and TX element (v_t, h_t): exactly in exact
    arithmetic, within rounding in floating point.  The matrix then holds
    (rx_n_v + tx_n_v - 1)(rx_n_h + tx_n_h - 1) distinct blocks, and
    :func:`~hmimo.metrics.nmse` reads only their table, one block per
    offset (``_offset_table``).

    ``mirror`` is a flag on the lattice: the link is at boresight and
    every grid's positions are exact negatives under index reversal, so
    reversing the i index of both grids maps block (m, n) to
    ``S G(m, n) S`` with ``S = diag(-1, 1, 1)``, and reversing the j
    index does the same with ``S = diag(1, -1, 1)``.  The spectrum then
    splits into four parity sectors, gathered from the same offset table.
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
            if len(shape) != 2 or shape[0] % 3 or shape[1] % 3:
                raise ValueError(f"matrix shape {shape} is not made of 3x3 blocks")
            return
        left, right = (np.shape(f) for f in self.factors)
        if len(left) != 2 or len(right) != 2 or left[0] % 3 or right[0] % 3 or left[1] != right[1]:
            raise ValueError(f"factors of shapes {left} and {right} are not 3M x r and 3N x r")

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The stored pair ``(L, R)``, or None when the entries are dense."""
        return self.entries if isinstance(self.entries, tuple) else None

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (3M, 3N) entries: the stored array, or ``L @ R.conj().T`` formed once."""
        if self.factors is None:
            return self.entries
        left, right = self.factors
        return left @ right.conj().T

    @property
    def m_count(self) -> int:
        return len(self.entries if self.factors is None else self.factors[0]) // 3

    @property
    def n_count(self) -> int:
        return (self.entries.shape[1] if self.factors is None else len(self.factors[1])) // 3

    def with_structure(self, lattice=None, mirror=False) -> BlockChannelMatrix:
        """A copy sharing the stored entries that carries exactly the claims given.

        The ``lattice`` grids must hold the M RX and N TX elements, and
        ``mirror`` needs a lattice.
        """
        if lattice is not None and [v * h for v, h in lattice] != [self.m_count, self.n_count]:
            raise ValueError(f"lattice grids {lattice} do not hold {self.m_count} RX "
                             f"and {self.n_count} TX elements")
        if mirror and lattice is None:
            raise ValueError("a mirror claim needs a lattice")
        tagged = replace(self)
        for name, claim in (("lattice", lattice), ("mirror", mirror)):
            object.__setattr__(tagged, name, claim)
        return tagged


def green_dyadic(d_vec: np.ndarray, k0: float) -> np.ndarray:
    """Exact free-space dyad at displacement ``d_vec``.

    With d = |d_vec| and u = d_vec/d:

        (-i / (4 pi d)) * [ (1 + i/(k0 d) - 1/(k0 d)^2) I3
                            + (3/(k0 d)^2 - 3i/(k0 d) - 1) u u' ] * exp(i k0 d)

    The kernel is singular at d = 0 and that case is rejected.
    """
    d_vec = np.asarray(d_vec, dtype=float)
    dist = float(np.sqrt(d_vec @ d_vec))
    if dist == 0.0:
        raise CoincidentPointsError("field point coincides with the source point")
    if k0 <= 0:
        raise ValueError(f"wavenumber must be positive, got {k0}")
    u = d_vec / dist
    kd = k0 * dist
    c1 = 1.0 + 1j / kd - 1.0 / kd**2
    c2 = 3.0 / kd**2 - 3j / kd - 1.0
    return (-1j / (4.0 * np.pi * dist)) * np.exp(1j * kd) * (c1 * _EYE3 + c2 * np.outer(u, u))


def green_dyadic_far(d_vec: np.ndarray, k0: float) -> np.ndarray:
    """Leading-order point form of the dyad: ``-i exp(i k0 r) / (4 pi r) (I3 - u u')``.

    ``I3 - u u'`` projects onto the plane transverse to propagation, the
    factor the fully separable channel assembler inherits.
    """
    d_vec = np.asarray(d_vec, dtype=float)
    dist = float(np.sqrt(d_vec @ d_vec))
    if dist == 0.0:
        raise CoincidentPointsError("field point coincides with the source point")
    if k0 <= 0:
        raise ValueError(f"wavenumber must be positive, got {k0}")
    u = d_vec / dist
    return (-1j * np.exp(1j * k0 * dist) / (4.0 * np.pi * dist)) * (_EYE3 - np.outer(u, u))


def assemble_ocm(
    tx: SurfaceLayout, rx: SurfaceLayout, link: LinkGeometry, k0: float
) -> BlockChannelMatrix:
    """Exact coupled reference channel: one dyad per element pair.

    Equivalent to evaluating :func:`green_dyadic` at every pair
    displacement, but vectorized over the whole grid.  With parallel
    grids of one spacing the result carries ``lattice``, and at
    boresight (kappa along z) also ``mirror``.
    """
    if k0 <= 0:
        raise ValueError(f"wavenumber must be positive, got {k0}")
    dvec = link.d0 * link.kappa + pairwise_offsets(tx, rx, link)  # (M, N, 3)
    dist = np.sqrt(np.einsum("mni,mni->mn", dvec, dvec))
    if np.any(dist == 0.0):
        m, n = np.argwhere(dist == 0.0)[0]
        raise CoincidentPointsError(f"RX element {m} coincides with TX element {n}")
    lattice = _grid_lattice(tx, rx, link)
    matrix = _dyad_dense(dvec, dist, link, k0)
    return BlockChannelMatrix(matrix, "OCM").with_structure(
        lattice=lattice, mirror=lattice is not None and not link.kappa[:2].any())


def _weights(kd):
    """Kernel weights ``(c1, c2) = (1 + i/kd - 1/kd^2, 3/kd^2 - 3i/kd - 1)``, scalar or array."""
    return 1.0 + 1j / kd - 1.0 / kd**2, 3.0 / kd**2 - 3j / kd - 1.0


def _dyad_dense(
    dvec: np.ndarray, dist: np.ndarray, link: LinkGeometry, k0: float, keep: int = 4
) -> np.ndarray:
    """The dyad of every pair at distance ``dist``, as one dense (3M, 3N) array.

    ``dvec`` holds the (M, N, 3) pair displacements ``d0 kappa + q - p``
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


def _offset_table(green: BlockChannelMatrix):
    """One block per grid-index offset of a lattice matrix, and how many pairs share it.

    Returns the (A_v, A_h, 3, 3) table whose entry (a, b) is the block of
    offset (a + 1 - tx_n_v, b + 1 - tx_n_h), read from one representative
    pair, and the (A_v, A_h, 1, 1) pair counts.  A factored matrix gives
    the table as ``L[rx reps] @ R[tx reps]'`` without forming ``matrix``
    (``@`` keeps the bits of the dense read; ``einsum`` does not).  This is
    the only place that reads a matrix through its lattice view.
    """
    (rx_v, rx_h), (tx_v, tx_h) = green.lattice
    vr, vt, w_v = _offsets(rx_v, tx_v)
    hr, ht, w_h = _offsets(rx_h, tx_h)
    counts = (w_v[:, None] * w_h)[:, :, None, None]
    if green.factors is None:
        view = green.matrix.reshape(rx_v, rx_h, 3, tx_v, tx_h, 3)
        return view[vr[:, None], hr, :, vt[:, None], ht, :], counts
    left, right = green.factors
    left = left.reshape(rx_v, rx_h, 3, -1)[vr[:, None], hr]
    right = right.reshape(tx_v, tx_h, 3, -1)[vt[:, None], ht]
    return left @ right.conj().swapaxes(2, 3), counts
