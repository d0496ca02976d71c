"""Physical link configuration, eigenchannel decomposition and capacity.

The channel matrix decomposed here holds raw dyad values.  The physical
scale eta/(2 lambda) * a_r * a_t enters only here: through the element
areas of :class:`PhysicalConfig` and its mu = eta^2/(4 lambda^2) factor
in the capacity expression, so the SVD always runs on the raw matrix.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import NumericalError, _require_positive
from .green import BlockChannelMatrix, _lattice_sectors

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
    they can never go stale.  Every field, the area product ``a_r * a_t``
    and ``mu`` must be positive and finite.  ``noise_var`` is the
    per-polarization noise variance at each RX element; ``total_power`` is
    the transmit power split uniformly over the eigenchannels in use.
    """

    frequency: float
    a_t: float
    a_r: float
    noise_var: float = 1.0
    total_power: float = 1.0
    eta: float = FREE_SPACE_IMPEDANCE

    def __post_init__(self):
        for name in ("frequency", "a_t", "a_r", "noise_var", "total_power", "eta"):
            _require_positive(name, getattr(self, name))
        _require_positive("a_r * a_t", self.a_r * self.a_t)
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


# A block at least this many times as long in one dimension as in the other
# is reduced to its QR triangle before the SVD.  Measured on the built-in
# mirror sectors (OpenBLAS, 2 cores), values only: 1.5x faster at 176 x 341,
# 2.5-4x at 176 x 1281 and 21 x 1281, but 1.1x slower at 176 x 225 and
# 176 x 133; random 169 x 253 blocks gain 1.2x.  With vectors it serves the
# factor cores, the sketch's wide B (32 x 867 on the tilted link: 3 ms saved)
# and the 243 x 867 tilted-link OCM the sketch refuses (45-55 ms against 95).
_QR_FIRST_RATIO = 1.5


def _block_svd(block, vectors: bool):
    """SVD of one block, an array or a factor pair ``(L, R)`` standing for L R'.

    QR triangles carry the singular values (Chan's R-SVD, ACM TOMS 8,
    1982): a pair reduces to the core R_L R_R' of its economy QRs
    L = Q_L R_L and R = Q_R R_R, and an array at least 1.5 times as long
    one way as the other to the triangle R of its tall orientation
    T = Q R, since LAPACK's SVD is much slower on a wide block itself.
    The one array passed to the SVD, that triangle or the block, must be
    finite (NumericalError): on inf LAPACK stalls or never returns, and a
    core or a sketch's B formed from finite entries can overflow.
    Without ``vectors`` this returns the singular values.  With them it
    returns ``(left, u, s, vh, right)`` with ``block = left u diag(s) vh
    right``: ``left`` is Q_L or the Q of a tall array, ``right`` Q_R' or
    the Q' of a wide one, and None the identity, so the caller lifts only
    the singular vectors it keeps.
    """
    if isinstance(block, tuple):
        if not vectors:
            r_l, r_r = (np.linalg.qr(f, mode="r") for f in block)
            return _block_svd(r_l @ r_r.conj().T, False)
        (q_l, r_l), (q_r, r_r) = (np.linalg.qr(f) for f in block)
        left, u, s, vh, right = _block_svd(r_l @ r_r.conj().T, True)
        # the core is r x r unless a surface has fewer than r/3 elements
        u = u if left is None else left @ u
        vh = vh if right is None else vh @ right
        return q_l, u, s, vh, q_r.conj().T
    rows, cols = block.shape
    left = right = None
    if max(rows, cols) >= _QR_FIRST_RATIO * min(rows, cols):
        if not vectors:
            block = np.linalg.qr(block.T if rows < cols else block, mode="r")
        elif rows < cols:  # block' = Q R, so block = R' Q'
            q, r = np.linalg.qr(block.T)
            block, right = r.T, q.T
        else:
            left, block = np.linalg.qr(block)
    if not np.isfinite(block).all():
        raise NumericalError("SVD input holds NaN or inf entries: the channel overflows")
    if not vectors:
        return np.linalg.svd(block, compute_uv=False)
    return (left, *np.linalg.svd(block, full_matrices=False), right)


# Columns of the sketch, and its residual level tau (relative to sigma_1).  On
# the 243 x 867 tilted-link matrices (17^2/9^2 with a rotated RX; OpenBLAS,
# 2 cores) the separable variants have rank 9-27 at 1e-15 sigma_1, and
# k = 32 leaves a residual of 1e-15 to 4e-15 sigma_1 in 3.1-4.1 ms, against
# 35-55 ms for _block_svd(., True); OCM there (rank 42-80) is refused on
# its residual, after B is formed.  k does not grow: at k = 64 the sketch
# of an OCM matrix costs as much as its dense route.
_SKETCH_COLUMNS = 32
_SKETCH_TAU = 1e-14


@lru_cache(maxsize=8)
def _test_matrix(n: int, k: int) -> np.ndarray:
    """A read-only n x k standard Gaussian matrix, the same in every process."""
    gauss = random.Random(0).gauss
    omega = np.fromiter((gauss(0.0, 1.0) for _ in range(n * k)), float, n * k)
    omega = omega.reshape(n, k)
    omega.setflags(write=False)
    return omega


def _sketch_svd(block: np.ndarray, level: float):
    """Certified SVD of a low-rank dense block, or None when it is refused.

    A randomized range finder (Halko, Martinsson & Tropp, SIAM Rev. 53,
    2011, arXiv:0909.4061): Y = block Omega with the fixed k-column
    Gaussian Omega of :func:`_test_matrix`, Q R = Y, and the SVD
    B = Q' block = u diag(s) vh right of :func:`_block_svd`, under its
    QR-first rule like every other block.  The test is the
    explicit residual: it returns ``(Q, u, s, vh, right)``, as
    :func:`_block_svd` does, only if ||block - Q B||_F is at most
    ``level * s[0]``, and then every singular value of the block past
    the k found is at most that, and so is the error of each one found
    (HMT section 4.3).  A refusal comes after B and the residual are
    formed, or at once when Q is not finite: the columns of Y can
    overflow where the block's do not.
    """
    k = _SKETCH_COLUMNS
    if k >= min(block.shape):
        return None
    q, _ = np.linalg.qr(block @ _test_matrix(block.shape[1], k))
    if not np.isfinite(q).all():
        return None
    b = q.conj().T @ block
    _, u, s, vh, right = _block_svd(b, True)
    residual = q @ b
    residual -= block
    if np.linalg.norm(residual) > level * s[0]:
        return None
    return q, u, s, vh, right


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
        patterns: also return the transmit/receive patterns.  The blocks
            are, without patterns for an offset table on a mirrored
            lattice, those of :func:`~hmimo.green._lattice_sectors`: the
            four parity sectors, or on square grids their swap halves and
            one sector whose values count twice; otherwise the one block
            of the held factor pair (mirrored or not), or ``matrix``
            formed from the held form if need be.  :func:`_block_svd`
            reduces each by QR.  Without patterns the blocks' singular
            values are sorted once; with them only the ``p_used`` kept
            singular vectors are lifted by the QR bases.  With patterns
            every matrix without factors (a dense array or an offset
            table) first tries the certified sketch of :func:`_sketch_svd`
            (its B takes the QR rule of :func:`_block_svd`), whose one
            test is its residual at tau = 1e-14 sigma_1, or eps - 1e-12
            for ``threshold(eps)`` when smaller; its values past the k it
            finds are zeros in ``gains``, each at most tau sigma_1 from the
            true value, and a sketch refused on its residual, formed after
            B, or on a Q that is not finite falls back to
            :func:`_block_svd`.  A policy that keeps more channels than the
            factors' r or the sketch's k falls back to the dense matrix.
            The spectrum is padded with zeros to min(3M, 3N).

    Returns:
        EigenchannelSet with the full gain spectrum and, when ``patterns``
        is True, the first ``p_used`` transmit/receive patterns.  Patterns
        satisfy (sqrt(a) * patterns)' (sqrt(a) * patterns) = I.

    Raises:
        NumericalError: the held form holds NaN or inf (checked first, so
            spectrum-only routes never form ``matrix``), a block formed from
            finite entries overflows before its SVD, or the spectrum is not finite.
    """
    if green.m_count == 0 or green.n_count == 0:
        raise ValueError("empty channel matrix")
    # reject a non-finite held form here, before a QR runs slowly on it
    held = "matrix holds" if green.factors is None else "factors hold"
    if not all(np.isfinite(a).all() for a in green.factors or [green.entries]):
        raise NumericalError(f"channel {held} NaN or inf entries")
    if green._table is not None and green.lattice.mirror and not patterns:
        blocks = _lattice_sectors(green)
    else:
        blocks = [(green.factors or green.matrix, 1)]
    if patterns:
        cut = policy.value - _TIE if policy.kind == "threshold" else _SKETCH_TAU
        sketch = _sketch_svd(green.matrix, min(_SKETCH_TAU, cut)) if green.factors is None else None
        left, u, values, vh, right = sketch or _block_svd(blocks[0][0], True)
    else:
        values = np.concatenate([np.tile(_block_svd(b, False), copies) for b, copies in blocks])
    s = np.zeros(3 * min(green.m_count, green.n_count))
    s[: values.size] = np.sort(values)[::-1]
    p_used = select_p(s, policy)
    if patterns and p_used > values.size:
        # the bases of the factors or of a sketch end too soon: decompose the dense entries
        left, u, values, vh, right = _block_svd(green.matrix, True)
        s[:] = np.sort(values)[::-1]
        p_used = select_p(s, policy)
    gains = np.sqrt(cfg.a_r * cfg.a_t) * s
    gains.setflags(write=False)
    tx_patterns = rx_patterns = None
    if patterns:
        u, vh = u[:, :p_used], vh[:p_used]
        if left is not None:
            u = left @ u
        if right is not None:
            vh = vh @ right
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
