import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from hmimo import (
    LinkGeometry,
    PhysicalConfig,
    assemble_ocm,
    assemble_pscm,
    build_planar_surface,
    channel_from_green,
    nmse,
)


def _pair(d0=0.8):
    tx = build_planar_surface(2, 2, 0.05)
    rx = build_planar_surface(2, 1, 0.05)
    link = LinkGeometry.from_angles(d0)
    ref = assemble_ocm(tx, rx, link, 2 * np.pi)
    cand = assemble_pscm(tx, rx, link, 2 * np.pi)
    return cand, ref


def test_nmse_of_identical_matrices_is_zero():
    _, ref = _pair()
    assert nmse(ref, ref) == 0.0


def test_nmse_of_doubled_matrix_is_one():
    _, ref = _pair()
    doubled = replace(ref, matrix=2.0 * ref.matrix)
    assert nmse(doubled, ref) == pytest.approx(1.0, rel=1e-14)


@given(scale=st.floats(1e-3, 1e3), phase=st.floats(0, 2 * np.pi))
@settings(max_examples=100, deadline=None)
def test_nmse_is_invariant_under_common_rescaling(scale, phase):
    cand, ref = _pair()
    base = nmse(cand, ref)
    c = scale * np.exp(1j * phase)
    scaled = nmse(replace(cand, matrix=c * cand.matrix), replace(ref, matrix=c * ref.matrix))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_chunked_nmse_matches_one_sum_over_the_matrix():
    # 3 x 3 x 1681 x 36 entries span two full chunks and a partial one
    tx = build_planar_surface(41, 41, 0.003)
    rx = build_planar_surface(6, 6, 0.003)
    link = LinkGeometry.from_angles(0.3, theta=0.2)
    ref = assemble_ocm(tx, rx, link, 2 * np.pi)
    cand = assemble_pscm(tx, rx, link, 2 * np.pi, "12")
    assert ref.matrix.size > 2 * 2**18
    num = np.sum(np.abs(cand.matrix - ref.matrix) ** 2, dtype=np.longdouble)
    den = np.sum(np.abs(ref.matrix) ** 2, dtype=np.longdouble)
    assert nmse(cand, ref) == pytest.approx(float(num / den), rel=1e-15)


def test_nmse_rejects_dimension_mismatch():
    cand, ref = _pair()
    small = assemble_ocm(
        build_planar_surface(1, 1, 0.05), build_planar_surface(2, 1, 0.05),
        LinkGeometry.from_angles(0.8), 2 * np.pi,
    )
    with pytest.raises(ValueError, match="dimension mismatch"):
        nmse(small, ref)


def test_nmse_rejects_mixed_scaling_states():
    cand, ref = _pair()
    cfg = PhysicalConfig(frequency=2.4e9, a_t=1e-6, a_r=1e-6)
    with pytest.raises(ValueError, match="mixed scaling"):
        nmse(channel_from_green(cand, cfg), ref)


def test_nmse_rejects_zero_reference():
    cand, ref = _pair()
    zero = replace(ref, matrix=np.zeros_like(ref.matrix))
    with pytest.raises(ValueError, match="zero matrix"):
        nmse(cand, zero)
