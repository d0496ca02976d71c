"""Physical link configuration, eigenchannel decomposition and capacity.

The channel matrix decomposed here is the raw Green-level matrix; the
physical scale eta/(2 lambda) * a_r * a_t enters the capacity expression
through the element areas and the mu = eta^2/(4 lambda^2) factor, so the
SVD itself always runs on the unscaled matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .green import BlockChannelMatrix

__all__ = [
    "SPEED_OF_LIGHT",
    "FREE_SPACE_IMPEDANCE",
    "PhysicalConfig",
    "PPolicy",
    "EigenchannelSet",
    "channel_from_green",
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
    they can never go stale.  ``noise_var`` is the per-polarization noise
    variance at each RX element; ``total_power`` is the transmit power
    split uniformly over the eigenchannels in use.
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
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

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
    1e-12 < eps <= 1 (a lower cut would keep the exact zeros that pad a
    spectrum); ``fixed(P)`` keeps exactly P channels (capped at the
    spectrum length).
    """

    kind: str
    value: float

    @classmethod
    def threshold(cls, epsilon: float = 1e-6) -> "PPolicy":
        if not _TIE < epsilon <= 1:
            raise ValueError(f"threshold must lie in ({_TIE:g}, 1], got {epsilon}")
        return cls("threshold", float(epsilon))

    @classmethod
    def fixed(cls, count: int) -> "PPolicy":
        if count < 1:
            raise ValueError(f"fixed channel count must be >= 1, got {count}")
        return cls("fixed", int(count))

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


@dataclass(frozen=True)
class EigenchannelSet:
    """SVD of an unscaled channel matrix, in physical units.

    ``gains`` holds sqrt(a_r * a_t) * sigma_p for the full spectrum in
    descending order; ``tx_patterns``/``rx_patterns`` hold the first
    ``p_used`` right/left singular vectors scaled by 1/sqrt(a_t) and
    1/sqrt(a_r), or None when the decomposition ran without patterns.
    """

    gains: np.ndarray
    p_used: int
    tx_patterns: np.ndarray | None
    rx_patterns: np.ndarray | None


def channel_from_green(green: BlockChannelMatrix, cfg: PhysicalConfig) -> BlockChannelMatrix:
    """Apply the physical scale eta/(2 lambda) * a_r * a_t to a Green-level matrix.

    The scaled matrix carries the input's structure claims: ``mirror`` and
    ``lattice`` unchanged, and ``factors`` with the scale in ``L`` only
    (``R`` is the same array).
    """
    if green.scale_applied:
        raise ValueError("channel scale already applied to this matrix")
    scale = cfg.eta / (2.0 * cfg.wavelength) * cfg.a_r * cfg.a_t
    factors = None if green.factors is None else (scale * green.factors[0], green.factors[1])
    scaled = replace(green, matrix=scale * green.matrix, scale_applied=True)
    return scaled.with_structure(factors, green.mirror, green.lattice)


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
    if policy.kind == "fixed":
        return min(int(policy.value), s.size)
    raise ValueError(f"unknown policy kind {policy.kind!r}")


# Sign of each polarization component under the x mirror, S = diag(-1, 1, 1),
# and under the y mirror, S = diag(1, -1, 1).
_MIRROR_SIGNS = ((-1, 1, 1), (1, -1, 1))
_SQRT_HALF = np.sqrt(0.5)


def _mirror_sectors(matrix: np.ndarray, mirror):
    """The four parity sectors of a mirror-symmetric matrix, one at a time.

    A butterfly along each of the four grid axes (:func:`_butterfly`) is
    an orthonormal change of basis on each side, so it keeps the
    spectrum.  Afterwards every row and column has an x and a y parity:
    the spatial parity of its element times the polarization's sign in
    ``_MIRROR_SIGNS``.  The mirror symmetry makes every entry between
    rows and columns of different parities exactly zero, so the spectrum
    is the union of the (x, y) parity sectors' spectra.  Empty sectors
    are skipped.
    """
    (rx_v, rx_h), (tx_v, tx_h) = mirror
    src = matrix.reshape(rx_v, rx_h, 3, tx_v, tx_h, 3)
    folded = np.empty_like(src)
    for axis in (4, 3, 1, 0):
        _butterfly(src, folded, axis)
        src = folded
    folded = folded.reshape(matrix.shape)
    for ex in (1, -1):
        for ey in (1, -1):
            rows = _sector_indices(rx_v, rx_h, ex, ey)
            cols = _sector_indices(tx_v, tx_h, ex, ey)
            if rows.size and cols.size:
                yield folded[np.ix_(rows, cols)]


def _butterfly(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """Split one grid axis into even and odd parts, writing into ``dst``.

    Index k and its mirror n-1-k become (a + b)/sqrt(2) at k and
    (a - b)/sqrt(2) at n-1-k; a centre index is kept as is.  ``dst`` may
    be ``src``; the even parts then pass through a half-size temporary.
    """
    n = src.shape[axis]
    half = n // 2
    lead = (slice(None),) * axis
    low, high = lead + (slice(0, half),), lead + (slice(n - 1, n - 1 - half, -1),)
    a, b = src[low], src[high]
    even = a + b
    np.subtract(a, b, out=dst[high])
    dst[high] *= _SQRT_HALF
    np.multiply(even, _SQRT_HALF, out=dst[low])
    if n % 2 and dst is not src:
        dst[lead + (half,)] = src[lead + (half,)]


def _sector_indices(n_v: int, n_h: int, ex: int, ey: int) -> np.ndarray:
    """Flat (element, polarization) indices of the folded grid in sector (ex, ey)."""
    parts = []
    for c in range(3):
        ys = _parity_indices(n_v, ey * _MIRROR_SIGNS[1][c])
        xs = _parity_indices(n_h, ex * _MIRROR_SIGNS[0][c])
        parts.append(((ys[:, None] * n_h + xs) * 3 + c).ravel())
    return np.concatenate(parts)


def _parity_indices(n: int, parity: int) -> np.ndarray:
    """Positions of the even (+1) or odd (-1) parts along an axis of length n."""
    split = n - n // 2
    return np.arange(split) if parity > 0 else np.arange(split, n)


# A block at least this many times as long in one dimension as in the other
# is reduced to its QR triangle before the values-only SVD.  Measured on the
# built-in mirror sectors (OpenBLAS, 2 cores): 1.5x faster at 176 x 341,
# 2.5-4x at 176 x 1281 and 21 x 1281, but 1.1x slower at 176 x 225 and
# 176 x 133; random 169 x 253 blocks gain 1.2x.
_QR_FIRST_RATIO = 1.5


def _block_values(block: np.ndarray) -> np.ndarray:
    """Singular values of one block, through its QR triangle when clearly non-square.

    With the tall orientation T = Q R (T is the block or its transpose),
    R is square and has the block's singular values; LAPACK's values-only
    SVD is much slower on the wide block itself.
    """
    rows, cols = block.shape
    if max(rows, cols) >= _QR_FIRST_RATIO * min(rows, cols):
        block = np.linalg.qr(block.T if rows < cols else block, mode="r")
    return np.linalg.svd(block, compute_uv=False)


def eigenchannel_decompose(
    green: BlockChannelMatrix,
    cfg: PhysicalConfig,
    policy: PPolicy = PPolicy.threshold(1e-6),
    patterns: bool = True,
) -> EigenchannelSet:
    """Decompose an unscaled channel matrix into its eigenchannels.

    Args:
        green: block channel matrix with ``scale_applied`` False.
        cfg: physical configuration supplying the element areas.
        policy: eigenchannel count policy.
        patterns: compute the transmit/receive patterns with a full SVD.
            Without them only the spectrum is computed, in one values-only
            step: each route supplies its blocks (the r x r core
            R_L R_R' of the economy QRs L = Q_L R_L, R = Q_R R_R when the
            matrix carries thin factors, the four parity sectors when it
            carries ``mirror``, otherwise the matrix itself); a block at
            least 1.5 times as long one way as the other is reduced to
            the QR triangle of its tall orientation first, and the
            blocks' singular values are sorted once and padded with zeros
            to min(3M, 3N).

    Returns:
        EigenchannelSet with the full gain spectrum and, when ``patterns``
        is True, the first ``p_used`` transmit/receive patterns.  Patterns
        satisfy (sqrt(a) * patterns)' (sqrt(a) * patterns) = I.

    Raises:
        NumericalError: the matrix or its spectrum is not finite.
    """
    if green.scale_applied:
        raise ValueError("decomposition expects the unscaled Green-level matrix")
    if green.matrix.size == 0:
        raise ValueError("empty channel matrix")
    tx_patterns = rx_patterns = None
    if not patterns and green.factors is not None:
        # LAPACK can stall on inf entries, so reject them before the QRs run.
        if not all(np.isfinite(f).all() for f in green.factors):
            raise NumericalError("channel factors hold NaN or inf entries")
        left, right = green.factors
        blocks = [np.linalg.qr(left, mode="r") @ np.linalg.qr(right, mode="r").conj().T]
    else:
        # On inf entries LAPACK's full SVD does not return and the values-only
        # one stalls before giving NaN, so reject them before either runs.
        if not np.isfinite(green.matrix).all():
            raise NumericalError("channel matrix holds NaN or inf entries")
        if patterns:
            u, s, vh = np.linalg.svd(green.matrix, full_matrices=False)
        elif green.mirror is not None:
            blocks = _mirror_sectors(green.matrix, green.mirror)
        else:
            blocks = [green.matrix]
    if not patterns:
        values = np.sort(np.concatenate([_block_values(b) for b in blocks]))
        s = np.zeros(3 * min(green.m_count, green.n_count))
        s[: values.size] = values[::-1]
    p_used = select_p(s, policy)
    gains = np.sqrt(cfg.a_r * cfg.a_t) * s
    gains.setflags(write=False)
    if patterns:
        tx_patterns = vh[:p_used].conj().T / np.sqrt(cfg.a_t)
        rx_patterns = u[:, :p_used] / np.sqrt(cfg.a_r)
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
