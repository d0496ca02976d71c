"""Transmit-receive separable approximations of the pairwise dyad channel.

Replacing each exact pair distance alpha*d0 by its projection lower bound
gamma*d0 splits the pair phase exactly into a TX-only factor and an
RX-only factor.  What remains per pair is an amplitude dyad built from
four 3x3 blocks; keeping all four gives the full separable model (tag
``PSCM``), truncating the sum gives the cheaper ``PSCM123`` and
``PSCM12`` variants, and taking the infinite-distance limit collapses
everything onto a rank-2 transverse projector (tag ``FSCM``).

Two construction routes are provided and must agree: :func:`pscm_pair`
builds one 3x3 block at a time, while :func:`assemble_pscm` builds the
whole matrix.  With gamma*d0 = d'kappa, the projection of the pair
displacement d = d0 kappa + q - p on the link axis, and u = d / (gamma d0),
a1 = omega1 I3 and a2 + a3 + a4 = omega2 u u', where a3 is the part of
u u' linear in q - p and a4 the quadratic part.  The separable block is
therefore the exact dyad kernel of :mod:`hmimo.green` at the projected
distance d'kappa with u u' truncated, and the assembler calls that
kernel.  The pairwise route is the slower, obviously-correct oracle; the
assembler is the production path.

When both surfaces lie in the plane through their centers perpendicular
to kappa (every p'kappa and q'kappa exactly 0), gamma is 1 on every pair,
omega1 and omega2 are constants and A is a polynomial of degree <= 2 in
q - p.  The matrix is then exactly ``L R'`` with thin factors of 3, 6 or
16 columns (PSCM12, PSCM123, PSCM), and the assembler stores only the
two factors.  FSCM is the same factor builder with two blocks and the
far-field weights omega1 = 1, omega2 = -1, so it is always ``L R'`` with
three columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometryError, _require_positive
from .geometry import LinkGeometry, SurfaceLayout, global_rx_positions
from .green import (_EYE3, PSCM_CODES, BlockChannelMatrix, _claimed, _displacements,
                    _dyad_dense, _first_pair, _grid_lattice, _held, _weights)

__all__ = [
    "OmegaPair",
    "ABlockSet",
    "omega_pair",
    "a_blocks",
    "pscm_pair",
    "array_response",
    "assemble_pscm",
    "assemble_fscm",
]


def _variant_tag(variant: str) -> str:
    """The tag of a variant code in :data:`~hmimo.green.PSCM_CODES`, rejecting unknown codes."""
    for tag, code in PSCM_CODES.items():
        if code == variant:
            return tag
    raise ValueError(
        f"unknown variant {variant!r}, expected one of {sorted(PSCM_CODES.values())}"
    )


class OmegaPair(NamedTuple):
    """Scalar weights of the identity and dyad terms at distance gamma*d0."""

    omega1: complex
    omega2: complex


class ABlockSet(NamedTuple):
    """The four 3x3 amplitude blocks of one pair, plus the gamma that scaled them."""

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    gamma: float


def omega_pair(k0: float, gamma: float, d0: float) -> OmegaPair:
    """Near-field weights at effective distance gamma*d0.

    omega1 -> 1 and omega2 -> -1 as k0*gamma*d0 grows; the deviations
    decay like 1/(k0*gamma*d0).  All three inputs must be positive and finite.
    """
    for name, value in (("k0", k0), ("gamma", gamma), ("d0", d0)):
        _require_positive(name, value)
    return OmegaPair(*_weights(k0 * gamma * d0))


def a_blocks(
    p_n: np.ndarray, q_m: np.ndarray, kappa: np.ndarray, d0: float, k0: float
) -> ABlockSet:
    """Amplitude blocks of one TX/RX pair.

    a1 = omega1 * I3
    a2 = omega2 * kappa kappa' / gamma^2
    a3 = omega2 * (kappa (q-p)' + (q-p) kappa') / (gamma^2 d0)
    a4 = omega2 * (q-p)(q-p)' / (gamma^2 d0^2)

    a1 and a2 survive the far-field limit; a3 and a4 carry the
    offset-dependent correction and vanish as |q-p|/d0 -> 0.
    """
    diff = np.asarray(q_m, dtype=float) - np.asarray(p_n, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    gamma = 1.0 + float(diff @ kappa) / d0
    if gamma <= 0.0:
        raise DegenerateGeometryError(
            f"projection factor {gamma:g} is not positive for this pair"
        )
    w1, w2 = omega_pair(k0, gamma, d0)
    g2 = gamma * gamma
    a1 = w1 * _EYE3
    a2 = (w2 / g2) * np.outer(kappa, kappa)
    a3 = (w2 / (g2 * d0)) * (np.outer(kappa, diff) + np.outer(diff, kappa))
    a4 = (w2 / (g2 * d0 * d0)) * np.outer(diff, diff)
    return ABlockSet(a1, a2, a3, a4, gamma)


def pscm_pair(
    p_n: np.ndarray,
    q_m: np.ndarray,
    kappa: np.ndarray,
    d0: float,
    k0: float,
    variant: str = "1234",
) -> np.ndarray:
    """Separable approximation of one pair dyad.

    Returns (-i / (4 pi gamma d0)) * A * exp(i k0 d0) * exp(i k0 q'kappa)
    * exp(-i k0 p'kappa) with A the sum of the blocks the variant keeps
    ("12", "123" or "1234").  At zero offsets (p = q = 0) the result
    equals the exact dyad at d0*kappa.
    """
    _variant_tag(variant)
    keep = len(variant)
    blocks = a_blocks(p_n, q_m, kappa, d0, k0)
    amp = blocks.a1 + blocks.a2
    if keep >= 3:
        amp = amp + blocks.a3
    if keep >= 4:
        amp = amp + blocks.a4
    kappa = np.asarray(kappa, dtype=float)
    phase = (
        np.exp(1j * k0 * d0)
        * np.exp(1j * k0 * float(np.asarray(q_m, dtype=float) @ kappa))
        * np.exp(-1j * k0 * float(np.asarray(p_n, dtype=float) @ kappa))
    )
    return (-1j / (4.0 * np.pi * blocks.gamma * d0)) * amp * phase


def array_response(positions: np.ndarray, kappa: np.ndarray, k0: float) -> np.ndarray:
    """Plane-wave response of a grid: entries exp(i k0 p'kappa), unit modulus."""
    positions = np.asarray(positions, dtype=float)
    return np.exp(1j * k0 * (positions @ np.asarray(kappa, dtype=float)))


def assemble_pscm(
    tx: SurfaceLayout,
    rx: SurfaceLayout,
    link: LinkGeometry,
    k0: float,
    variant: str = "1234",
) -> BlockChannelMatrix:
    """Separable channel for all pairs at once.

    Matches the pairwise route blockwise: block (m, n) equals
    ``pscm_pair(p_n, q_m, kappa, d0, k0, variant)``.  Any pair with a
    non-positive projection factor makes the whole configuration
    degenerate and is rejected.  When every p'kappa and q'kappa is
    exactly 0 the matrix is stored as its thin factors ``(L, R)`` alone.
    Otherwise it is the kernel evaluated at the displacements that
    :func:`~hmimo.green._displacements` gives, held as
    :func:`~hmimo.assemble_ocm` holds it: the offset table on a lattice,
    the dense array otherwise.  Factors and a table carry ``lattice``.
    """
    tag = _variant_tag(variant)
    _require_positive("wavenumber", k0)
    ps = tx.positions
    qs = global_rx_positions(link, rx)
    keep = len(variant)
    lattice = _grid_lattice(tx, rx, link)
    if not (ps @ link.kappa).any() and not (qs @ link.kappa).any():
        return _pscm_factors(ps, qs, link, k0, keep, omega_pair(k0, 1.0, link.d0), tag, lattice)

    dvec = _displacements(tx, rx, link, lattice)
    dist = dvec @ link.kappa  # gamma * d0
    if np.any(dist <= 0.0):
        m, n = _first_pair(dist <= 0.0, lattice)
        raise DegenerateGeometryError(
            f"projection factor is not positive for RX element {m}, TX element {n}"
        )
    return _held(_dyad_dense(dvec, dist, link, k0, keep), tag, lattice)


def _pscm_factors(ps, qs, link, k0, keep, weights, tag, lattice) -> BlockChannelMatrix:
    """The separable matrix stored as its factors (L, R), with gamma = 1 on every pair.

    Block (m, n) is c theta_r[m] conj(theta_t[n]) A(q_m - p_n) with
    c = -i exp(i k0 d0) / (4 pi d0), and A, with ``weights`` = (w1, w2),
    expands into three kinds of term:

    - RX-only: w1 I + w2 kappa kappa' + w2 (kappa q' + q kappa') / d0
      + w2 q q' / d0^2, against theta_t[n] I3 (3 columns);
    - TX-only: w2 I3, against theta_t[n] times the real symmetric
      -(kappa p' + p kappa') / d0 + p p' / d0^2 (3 columns);
    - cross: -w2 (q p' + p q') / d0^2, one column for q p' and nine for
      p q' (entry (i, j) = sum_ab [i == a] q[b] * p[a] [j == b]).

    Only the first ``keep`` amplitude blocks enter.  Each factor is flat:
    L is 3M x r and R is 3N x r.  The product ``L R'`` is not formed here;
    the result's ``matrix`` forms it if something reads it.  ``lattice``
    is passed through to the result.
    """
    kappa, d0 = link.kappa, link.d0
    w1, w2 = weights
    pref = -1j * np.exp(1j * k0 * d0) / (4.0 * np.pi * d0)
    rx_phase = (pref * array_response(qs, kappa, k0))[:, None, None]
    tx_phase = array_response(ps, kappa, k0)[:, None, None]
    rx_only = w1 * _EYE3 + w2 * np.outer(kappa, kappa)
    if keep >= 3:
        rx_only = rx_only + (w2 / d0) * (_outers(kappa, qs) + _outers(qs, kappa))
        tx_only = -(_outers(kappa, ps) + _outers(ps, kappa)) / d0
    if keep >= 4:
        rx_only = rx_only + (w2 / (d0 * d0)) * _outers(qs, qs)
        tx_only = tx_only + _outers(ps, ps) / (d0 * d0)
    lefts = [rx_phase * rx_only]
    rights = [tx_phase * _EYE3]
    if keep >= 3:
        lefts.append(rx_phase * (w2 * _EYE3))
        rights.append(tx_phase * tx_only)
    if keep >= 4:
        cross = rx_phase * (-w2 / (d0 * d0))
        lefts.append(cross * qs[:, :, None])
        rights.append(tx_phase * ps[:, :, None])
        lefts.append(cross * np.einsum("ia,mb->miab", _EYE3, qs).reshape(-1, 3, 9))
        rights.append(tx_phase * np.einsum("na,jb->njab", ps, _EYE3).reshape(-1, 3, 9))
    left = np.concatenate(lefts, axis=2)
    right = np.concatenate(rights, axis=2)
    left, right = left.reshape(-1, left.shape[2]), right.reshape(-1, right.shape[2])
    return _claimed((left, right), tag, lattice)


def _outers(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer products ``a b'`` over the last axis, broadcast over leading ones."""
    return a[..., :, None] * b[..., None, :]


def assemble_fscm(
    tx: SurfaceLayout, rx: SurfaceLayout, link: LinkGeometry, k0: float
) -> BlockChannelMatrix:
    """Fully separable far-field channel: the separable model's far-field limit.

    Far out gamma -> 1, omega1 -> 1 and omega2 -> -1, so the two-block
    dyad w1 I + w2 kappa kappa' becomes the rank-2 transverse projector
    I3 - kappa kappa'.  Block (m, n) is that projector scaled by
    (-i exp(i k0 d0) / (4 pi d0)) and the pair phase
    theta_r[m] * conj(theta_t[n]), built by the shared factor builder
    with ``keep = 2`` and the weights (1, -1), and stored as the factors
    ``L = c theta_r (x) (I3 - kappa kappa')`` and ``R = theta_t (x) I3``
    (r = 3).  It carries ``lattice`` as :func:`assemble_pscm` does.
    """
    _require_positive("wavenumber", k0)
    qs = global_rx_positions(link, rx)
    return _pscm_factors(tx.positions, qs, link, k0, 2, (1.0, -1.0), "FSCM",
                         _grid_lattice(tx, rx, link))
