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


_POLICY_RE = re.compile(r"^(threshold|fixed)\(([^)]+)\)$")


@dataclass(frozen=True)
class PPolicy:
    """How many eigenchannels to keep.

    ``threshold(eps)`` keeps every singular value >= eps * sigma_1;
    ``fixed(P)`` keeps exactly P channels (capped at the spectrum length).
    """

    kind: str
    value: float

    @classmethod
    def threshold(cls, epsilon: float = 1e-6) -> "PPolicy":
        if not 0 < epsilon <= 1:
            raise ValueError(f"threshold must lie in (0, 1], got {epsilon}")
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
    """Apply the physical scale eta/(2 lambda) * a_r * a_t to a Green-level matrix."""
    if green.scale_applied:
        raise ValueError("channel scale already applied to this matrix")
    scale = cfg.eta / (2.0 * cfg.wavelength) * cfg.a_r * cfg.a_t
    factors = None if green.factors is None else (scale * green.factors[0], green.factors[1])
    return replace(green, matrix=scale * green.matrix, scale_applied=True, factors=factors)


def select_p(singular_values: np.ndarray, policy: PPolicy) -> int:
    """Number of eigenchannels a policy keeps for the given spectrum."""
    s = np.asarray(singular_values, dtype=float)
    if not np.all(np.isfinite(s)):
        raise NumericalError("spectrum is not finite: the channel matrix holds NaN or inf")
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError("zero channel: spectrum has no positive singular value")
    if policy.kind == "threshold":
        return int(np.count_nonzero(s >= policy.value * s[0]))
    if policy.kind == "fixed":
        return min(int(policy.value), s.size)
    raise ValueError(f"unknown policy kind {policy.kind!r}")


def _factored_spectrum(left: np.ndarray, right: np.ndarray, length: int) -> np.ndarray:
    """Singular values of ``left @ right'`` from the two thin factors.

    With the economy QRs left = Q_l R_l and right = Q_r R_r the matrix is
    Q_l (R_l R_r') Q_r' with orthonormal Q_l and Q_r, so its spectrum is
    that of the small core R_l R_r', padded with zeros to ``length``.
    """
    core = np.linalg.qr(left, mode="r") @ np.linalg.qr(right, mode="r").conj().T
    s = np.zeros(length)
    values = np.linalg.svd(core, compute_uv=False)
    s[: values.size] = values
    return s


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
            Without them only the spectrum is computed: from a QR of each
            factor and a small core SVD when the matrix carries thin
            factors, otherwise by a values-only SVD.

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
    if not patterns and green.factors is not None:
        # LAPACK can stall on inf entries, so reject them before the QRs run.
        if not all(np.isfinite(f).all() for f in green.factors):
            raise NumericalError("channel factors hold NaN or inf entries")
        s = _factored_spectrum(*green.factors, 3 * min(green.m_count, green.n_count))
    else:
        # On inf entries LAPACK's full SVD does not return and the values-only
        # one stalls before giving NaN, so reject them before either runs.
        if not np.isfinite(green.matrix).all():
            raise NumericalError("channel matrix holds NaN or inf entries")
        if patterns:
            u, s, vh = np.linalg.svd(green.matrix, full_matrices=False)
        else:
            s = np.linalg.svd(green.matrix, compute_uv=False)
    p_used = select_p(s, policy)
    gains = np.sqrt(cfg.a_r * cfg.a_t) * s
    gains.setflags(write=False)
    if not patterns:
        return EigenchannelSet(gains=gains, p_used=p_used, tx_patterns=None, rx_patterns=None)
    return EigenchannelSet(
        gains=gains,
        p_used=p_used,
        tx_patterns=vh[:p_used].conj().T / np.sqrt(cfg.a_t),
        rx_patterns=u[:, :p_used] / np.sqrt(cfg.a_r),
    )


def capacity(eigs: EigenchannelSet, cfg: PhysicalConfig) -> float:
    """Uniform-power capacity over the eigenchannels in use, bits/s/Hz.

    Each of the ``p_used`` channels gets total_power/p_used, giving

        sum_p log2(1 + mu * snr * gain_p^2),
        snr = total_power / (p_used * a_r * noise_var).
    """
    p_used = eigs.p_used
    if p_used < 1:
        raise ValueError(f"need at least one eigenchannel, got {p_used}")
    snr = cfg.total_power / (p_used * cfg.a_r * cfg.noise_var)
    terms = np.log2(1.0 + cfg.mu * snr * eigs.gains[:p_used] ** 2)
    return float(np.sum(terms))
