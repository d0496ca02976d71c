"""Physical link configuration, eigenchannel decomposition and capacity.

The channel matrix decomposed here holds raw dyad values.  The physical
scale eta/(2 lambda) * a_r * a_t enters only here: through the element
areas of :class:`PhysicalConfig` and its mu = eta^2/(4 lambda^2) factor
in the capacity expression, so the SVD always runs on the raw matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .errors import NumericalError
from .green import BlockChannelMatrix, _offset_table

__all__ = [
    "SPEED_OF_LIGHT",
    "FREE_SPACE_IMPEDANCE",
    "PhysicalConfig",
    "PPolicy",
    "EigenchannelSet",
    "select_p",
    "eigenchannel_decompose",
    "capacity",
]

SPEED_OF_LIGHT = 299_792_458.0
"""Vacuum speed of light, m/s."""

FREE_SPACE_IMPEDANCE = 376.730313668
"""Wave impedance of free space, ohms."""


@dataclass(frozen=True)
class PhysicalConfig:
    """Carrier, impedance, element areas and the power/noise budget.

    Wavelength and wavenumber are always derived from ``frequency`` so
    they can never go stale.  Every field, and ``mu``, must be positive
    and finite.  ``noise_var`` is the per-polarization noise variance at
    each RX element; ``total_power`` is the transmit power split uniformly
    over the eigenchannels in use.
    """

    frequency: float
    a_t: float
    a_r: float
    noise_var: float = 1.0
    total_power: float = 1.0
    eta: float = FREE_SPACE_IMPEDANCE

    def __post_init__(self):
        for name in ("frequency", "a_t", "a_r", "noise_var", "total_power", "eta"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        try:
            mu = self.mu
        except ArithmeticError:  # a square in mu overflows, or 1 / lambda^2 does
            mu = 0.0
        if not 0 < mu < math.inf:
            raise ValueError(f"frequency {self.frequency} and eta {self.eta} give a "
                             "mu = eta^2 / (4 lambda^2) that is not positive and finite")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def k0(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def mu(self) -> float:
        """Scale factor eta^2 / (4 lambda^2) of the received SNR."""
        return self.eta**2 / (4.0 * self.wavelength**2)


# Singular values closer than this (relative to sigma_1) to the threshold cut
# count as on it: every fast spectrum route is held to this tolerance of the
# dense SVD, so a degenerate sigma_1 = sigma_2 pair counts the same on each.
_TIE = 1e-12


_POLICY_RE = re.compile(r"^(threshold|fixed)\(([^)]+)\)$")


@dataclass(frozen=True)
class PPolicy:
    """How many eigenchannels to keep.

    ``threshold(eps)`` keeps every singular value >= eps * sigma_1, with
    eps a real number in (1e-12, 1] (a lower cut would keep the exact
    zeros that pad a spectrum); ``fixed(P)`` keeps exactly P channels
    (capped at the spectrum length), with P an integer >= 1.  Both are
    checked on every construction, ``replace`` included, and the value
    is stored as a float or an int.
    """

    kind: str
    value: float | int

    def __post_init__(self):
        value = self.value
        if self.kind == "threshold":
            if isinstance(value, bool) or not isinstance(value, Real) or not _TIE < value <= 1:
                raise ValueError(f"threshold must lie in ({_TIE:g}, 1] as a real number, "
                                 f"got {value!r}")
            object.__setattr__(self, "value", float(value))
        elif self.kind == "fixed":
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"fixed channel count must be >= 1 and an integer, got {value!r}")
            object.__setattr__(self, "value", int(value))
        else:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected 'threshold' or 'fixed'")

    @classmethod
    def threshold(cls, epsilon: float = 1e-6) -> "PPolicy":
        return cls("threshold", epsilon)

    @classmethod
    def fixed(cls, count: int) -> "PPolicy":
        return cls("fixed", count)

    @classmethod
    def parse(cls, text: str) -> "PPolicy":
        """Parse 'threshold(1e-6)' or 'fixed(4)'."""
        match = _POLICY_RE.match(text.strip())
        if not match:
            raise ValueError(f"cannot parse channel policy {text!r}")
        kind, arg = match.groups()
        if kind == "threshold":
            return cls.threshold(float(arg))
        return cls.fixed(int(arg))


@dataclass(frozen=True, eq=False)
class EigenchannelSet:
    """SVD of a raw channel matrix, in physical units.

    ``gains`` holds sqrt(a_r * a_t) * sigma_p for the full spectrum in
    descending order; ``tx_patterns``/``rx_patterns`` hold the first
    ``p_used`` right/left singular vectors scaled by 1/sqrt(a_t) and
    1/sqrt(a_r), or None when the decomposition ran without patterns.
    Equality is identity.
    """

    gains: np.ndarray
    p_used: int
    tx_patterns: np.ndarray | None
    rx_patterns: np.ndarray | None


def select_p(singular_values: np.ndarray, policy: PPolicy) -> int:
    """Number of eigenchannels a policy keeps for the given spectrum.

    ``threshold(eps)`` counts every value >= (eps - 1e-12) * sigma_1, so
    values within rounding of the cut (such as sigma_2 == sigma_1 under
    ``threshold(1)``) count whichever route computed the spectrum.
    """
    s = np.asarray(singular_values, dtype=float)
    if not np.all(np.isfinite(s)):
        raise NumericalError("spectrum is not finite: the channel matrix holds NaN or inf")
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError("zero channel: spectrum has no positive singular value")
    if policy.kind == "threshold":
        return int(np.count_nonzero(s >= (policy.value - _TIE) * s[0]))
    return min(policy.value, s.size)


# Sign of each polarization component under the x mirror, S = diag(-1, 1, 1),
# and under the y mirror, S = diag(1, -1, 1).
_MIRROR_SIGNS = ((-1, 1, 1), (1, -1, 1))


def _parity_kernels(rx_n: int, tx_n: int) -> dict:
    """Offset kernels of one grid axis in the even/odd bases, keyed by (RX, TX) parity.

    ``K[:, :, a] = B_r E_a B_t'`` with ``E_a`` the 0/1 matrix of grid
    offset a (in :func:`~hmimo.green._offset_table` order) and ``B`` the
    orthonormal butterfly of each side: rows (e_k + e_{n-1-k}) / sqrt(2),
    then the centre e_k of an odd n (the even rows), then
    (e_k - e_{n-1-k}) / sqrt(2) (the odd rows).  Returns
    ``{(p_r, p_t): K[rows of parity p_r, columns of parity p_t]}``.
    """
    def butterfly(n):
        eye, half = np.eye(n), n // 2
        basis = np.sqrt(0.5) * np.vstack([(eye + eye[::-1])[: n - half], (eye - eye[::-1])[:half]])
        if n % 2:
            basis[half, half] = 1.0
        return basis, {1: slice(0, n - half), -1: slice(n - half, n)}

    (b_r, rows), (b_t, cols) = butterfly(rx_n), butterfly(tx_n)
    i_r, i_t = np.indices((rx_n, tx_n))
    offset = np.zeros((rx_n, tx_n, rx_n + tx_n - 1))
    offset[i_r, i_t, i_r - i_t + tx_n - 1] = 1.0
    kernel = np.einsum("tk,rka->rta", b_t, np.einsum("ri,ika->rka", b_r, offset))
    return {(p_r, p_t): kernel[rows[p_r], cols[p_t]] for p_r in rows for p_t in cols}


def _lattice_sectors(green: BlockChannelMatrix):
    """The four parity sectors of a mirrored lattice matrix, one at a time.

    The butterflies of :func:`_parity_kernels` along the four grid axes
    are an orthonormal change of basis on each side, so they keep the
    spectrum.  Afterwards every row and column has an x and a y parity:
    the spatial parity of its element times the polarization's sign in
    ``_MIRROR_SIGNS``, and the mirror symmetry leaves only the blocks
    between rows and columns of equal parities, so the spectrum is the
    union of the (x, y) parity sectors' spectra.  Polarization pair
    (c, d) of a sector is ``K_v T_cd K_h'`` with ``T_cd`` the (A_v, A_h)
    offset table of that pair (:func:`~hmimo.green._offset_table`).
    Empty sectors are skipped.
    """
    (rx_v, rx_h), (tx_v, tx_h) = green.lattice
    table, _ = _offset_table(green)
    k_v, k_h = _parity_kernels(rx_v, tx_v), _parity_kernels(rx_h, tx_h)
    for ex in (1, -1):
        for ey in (1, -1):
            # (v parity, h parity) of each polarization's rows and columns
            parity = [(ey * _MIRROR_SIGNS[1][c], ex * _MIRROR_SIGNS[0][c]) for c in range(3)]
            pieces = [[_sector_piece(k_v[pv, qv], table[:, :, c, d], k_h[ph, qh])
                       for d, (qv, qh) in enumerate(parity)]
                      for c, (pv, ph) in enumerate(parity)]
            sector = np.block(pieces)
            if sector.size:
                yield sector


def _sector_piece(k_v: np.ndarray, table: np.ndarray, k_h: np.ndarray) -> np.ndarray:
    """``sum_ab k_v[i, k, a] table[a, b] k_h[j, l, b]`` as an (i j) x (k l) matrix."""
    (nr_v, nt_v, a_v), (nr_h, nt_h, a_h) = k_v.shape, k_h.shape
    half = k_v.reshape(nr_v * nt_v, a_v) @ table
    piece = (half @ k_h.reshape(nr_h * nt_h, a_h).T).reshape(nr_v, nt_v, nr_h, nt_h)
    return piece.transpose(0, 2, 1, 3).reshape(nr_v * nr_h, nt_v * nt_h)


# A block at least this many times as long in one dimension as in the other
# is reduced to its QR triangle before the SVD.  Measured on the built-in
# mirror sectors (OpenBLAS, 2 cores), values only: 1.5x faster at 176 x 341,
# 2.5-4x at 176 x 1281 and 21 x 1281, but 1.1x slower at 176 x 225 and
# 176 x 133; random 169 x 253 blocks gain 1.2x.  With vectors, on the
# 243 x 867 tilted-link matrices: about 50 ms against 95 ms.
_QR_FIRST_RATIO = 1.5


def _block_svd(block: np.ndarray, vectors: bool):
    """SVD of one block, through its QR triangle when clearly non-square.

    With the tall orientation T = Q R (T is the block or its transpose),
    R is square and has the block's singular values; LAPACK's SVD is much
    slower on the wide block itself (Chan's R-SVD, ACM TOMS 8, 1982).
    Without ``vectors`` this returns the singular values.  With them it
    returns ``(left, u, s, vh, right)`` with ``block = left u diag(s) vh
    right``: ``left`` is Q of a tall block, ``right`` is Q' of a wide one,
    and the other (both, below the ratio) is None, the identity, so the
    caller lifts only the singular vectors it keeps.
    """
    rows, cols = block.shape
    wide = rows < cols
    qr_first = max(rows, cols) >= _QR_FIRST_RATIO * min(rows, cols)
    if not vectors:
        if qr_first:
            block = np.linalg.qr(block.T if wide else block, mode="r")
        return np.linalg.svd(block, compute_uv=False)
    if not qr_first:
        return (None, *np.linalg.svd(block, full_matrices=False), None)
    if wide:  # block' = Q R, so block = R' Q'
        q, r = np.linalg.qr(block.T)
        return (None, *np.linalg.svd(r.T), q.T)
    q, r = np.linalg.qr(block)
    return (q, *np.linalg.svd(r), None)


def eigenchannel_decompose(
    green: BlockChannelMatrix,
    cfg: PhysicalConfig,
    policy: PPolicy = PPolicy.threshold(1e-6),
    patterns: bool = True,
) -> EigenchannelSet:
    """Decompose a raw channel matrix into its eigenchannels.

    Args:
        green: block channel matrix of raw dyad values.
        cfg: physical configuration supplying the element areas.
        policy: eigenchannel count policy.
        patterns: also return the transmit/receive patterns.  Each route
            supplies its blocks: the r x r core R_L R_R' of the economy
            QRs L = Q_L R_L, R = Q_R R_R when the matrix is stored as
            factors; without patterns, the four parity sectors gathered
            from its offset table when it carries ``mirror``; otherwise
            the matrix itself.  A block at least 1.5 times as long one
            way as the other is reduced to the QR triangle of its tall
            orientation first.  Without patterns the blocks' singular
            values are sorted once; with them the one block's singular
            vectors are lifted by the QR bases (U = Q_L U_c, V' = V_c'
            Q_R' on the factors), only the ``p_used`` kept.  A policy
            that keeps more channels than r falls back to the dense
            matrix.  The spectrum is padded with zeros to min(3M, 3N).

    Returns:
        EigenchannelSet with the full gain spectrum and, when ``patterns``
        is True, the first ``p_used`` transmit/receive patterns.  Patterns
        satisfy (sqrt(a) * patterns)' (sqrt(a) * patterns) = I.

    Raises:
        NumericalError: the matrix or its spectrum is not finite.
    """
    if green.m_count == 0 or green.n_count == 0:
        raise ValueError("empty channel matrix")
    outer = (None, None)
    if green.factors is not None:
        # LAPACK can stall on inf entries, so reject them before the QRs run.
        if not all(np.isfinite(f).all() for f in green.factors):
            raise NumericalError("channel factors hold NaN or inf entries")
        if patterns:
            (q_l, r_l), (q_r, r_r) = (np.linalg.qr(f) for f in green.factors)
            outer = (q_l, q_r.conj().T)
        else:
            r_l, r_r = (np.linalg.qr(f, mode="r") for f in green.factors)
        blocks = [r_l @ r_r.conj().T]
    else:
        # On inf entries LAPACK's full SVD does not return and the values-only
        # one stalls before giving NaN, so reject them before either runs.
        if not np.isfinite(green.matrix).all():
            raise NumericalError("channel matrix holds NaN or inf entries")
        if green.mirror and not patterns:
            blocks = _lattice_sectors(green)
        else:
            blocks = [green.matrix]
    if patterns:
        left, u, values, vh, right = _block_svd(blocks[0], True)
    else:
        values = np.concatenate([_block_svd(b, False) for b in blocks])
    s = np.zeros(3 * min(green.m_count, green.n_count))
    s[: values.size] = np.sort(values)[::-1]
    p_used = select_p(s, policy)
    if patterns and p_used > values.size:
        # the factors' bases end after r vectors: decompose the entries instead
        return eigenchannel_decompose(replace(green, entries=green.matrix), cfg, policy)
    gains = np.sqrt(cfg.a_r * cfg.a_t) * s
    gains.setflags(write=False)
    tx_patterns = rx_patterns = None
    if patterns:
        u, vh = u[:, :p_used], vh[:p_used]
        for basis in (left, outer[0]):
            if basis is not None:
                u = basis @ u
        for basis in (right, outer[1]):
            if basis is not None:
                vh = vh @ basis
        tx_patterns = vh.conj().T / np.sqrt(cfg.a_t)
        rx_patterns = u / np.sqrt(cfg.a_r)
    return EigenchannelSet(gains, p_used, tx_patterns, rx_patterns)


def capacity(eigs: EigenchannelSet, cfg: PhysicalConfig) -> float:
    """Uniform-power capacity over the eigenchannels in use, bits/s/Hz.

    Each of the ``p_used`` channels gets total_power/p_used, giving

        sum_p log2(1 + mu * snr * gain_p^2),
        snr = total_power / (p_used * a_r * noise_var).

    Each term is evaluated in the log domain, as log2(1 + 2^L) with L the
    sum of the factors' base-2 logarithms, so a product that would
    overflow (a huge but finite power) still gives a finite capacity,
    and a zero gain gives exactly 0.
    """
    p_used = eigs.p_used
    if p_used < 1:
        raise ValueError(f"need at least one eigenchannel, got {p_used}")
    log_mu_snr = (np.log2(cfg.mu) + np.log2(cfg.total_power) - np.log2(p_used)
                  - np.log2(cfg.a_r) - np.log2(cfg.noise_var))
    with np.errstate(divide="ignore"):
        log_gains = 2.0 * np.log2(eigs.gains[:p_used])
    return float(np.sum(np.logaddexp2(0.0, log_mu_snr + log_gains)))
