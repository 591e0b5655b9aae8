"""Discrete Cauchy-Riemann defect of momentum chart transitions."""

import numpy as np
import pytest

from crms.errors import DimensionMismatchError
from transition import PatchSamples, cauchy_riemann_defect, sample_patch, transition_check

# Dyadic spacings and origins keep the centered differences of the identity
# map exact in floating point.
T_ORIGIN = 1.0 + 0.5j
Q_ORIGIN = 0.25 + 0.25j


def patches(chart_fn, fiber_fn, h: float, size: int):
    chart = sample_patch(chart_fn, T_ORIGIN, h, size)
    fiber = sample_patch(fiber_fn, Q_ORIGIN, h, size)
    return chart, [fiber]


def test_identity_transition_has_exactly_zero_defect():
    chart, fibers = patches(lambda z: z, lambda z: z, 1 / 32, 17)
    defect = transition_check(chart, fibers, np.array([0.7 + 0.2j]))
    assert defect == 0.0


def test_square_chart_with_identity_fiber_is_quadratically_exact():
    # Centered differences are exact on quadratics, so the defect sits at
    # rounding level, far below the C h^2 envelope.
    for h, size in ((1 / 16, 17), (1 / 32, 33)):
        chart, fibers = patches(lambda z: z * z, lambda z: z, h, size)
        defect = transition_check(chart, fibers, np.array([1.0 + 0.0j]))
        assert defect < 1e-3 * h * h


def test_exponential_fiber_shows_second_order_decay():
    defects = {}
    for h, size in ((1 / 16, 17), (1 / 32, 33)):
        chart, fibers = patches(lambda z: z, np.exp, h, size)
        defects[h] = transition_check(chart, fibers, np.array([1.0 + 0.5j]))
    ratio = defects[1 / 16] / defects[1 / 32]
    assert 3.4 < ratio < 4.6


def test_exponential_chart_shows_second_order_decay():
    defects = {}
    for h, size in ((1 / 16, 17), (1 / 32, 33)):
        chart, fibers = patches(np.exp, np.exp, h, size)
        defects[h] = transition_check(chart, fibers, np.array([1.0 + 0.5j]))
    ratio = defects[1 / 16] / defects[1 / 32]
    assert 3.4 < ratio < 4.6


def test_multiple_fiber_coordinates():
    h, size = 1 / 32, 17
    chart = sample_patch(np.exp, T_ORIGIN, h, size)
    fibers = [
        sample_patch(np.exp, Q_ORIGIN, h, size),
        sample_patch(lambda z: z, Q_ORIGIN, h, size),
    ]
    defect = transition_check(chart, fibers, np.array([1.0 + 0.0j, 0.5 - 0.5j]))
    assert 0.0 < defect < 1e-2


def test_non_holomorphic_input_reports_large_defect():
    chart, fibers = patches(np.conj, lambda z: z, 1 / 32, 17)
    defect = transition_check(chart, fibers, np.array([1.0 + 0.0j]))
    assert defect > 0.5  # reported, not raised


def test_momentum_length_must_match_fibers():
    chart, fibers = patches(lambda z: z, lambda z: z, 1 / 32, 17)
    with pytest.raises(DimensionMismatchError):
        transition_check(chart, fibers, np.array([1.0, 2.0], dtype=complex))


def test_critical_fiber_chart_rejected():
    # phi(q) = q^2 has phi' = 0 at 0; a patch through 0 is not a chart change.
    chart = sample_patch(lambda z: z, T_ORIGIN, 1 / 16, 17)
    fiber = sample_patch(lambda z: z * z, -0.5 - 0.5j, 1 / 16, 17)
    with pytest.raises(ValueError):
        transition_check(chart, [fiber], np.array([1.0 + 0.0j]))


def test_patch_requires_minimum_size():
    with pytest.raises(DimensionMismatchError):
        PatchSamples(0.1, np.zeros((3, 3), dtype=complex))


def test_cauchy_riemann_defect_detects_conjugation():
    h = 1 / 32
    holo = sample_patch(lambda z: z**3 - 2.0 * z, T_ORIGIN, h, 17)
    anti = sample_patch(lambda z: np.conj(z), T_ORIGIN, h, 17)
    # For holomorphic f the defect is h^2 f'''/6; for z^3 that is exactly h^2.
    assert cauchy_riemann_defect(holo) < 1.1 * h * h
    assert cauchy_riemann_defect(anti) == pytest.approx(1.0, abs=1e-12)
