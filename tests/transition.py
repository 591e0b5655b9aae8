"""Holomorphy check for chart transitions on the momentum bundle.

A chart change w = psi(t) on the base and a coordinate-wise fiber change
r^a = phi^a(q^a) transform the momenta (complexified as P1 - i P2) by

    S^a = psi'(t) / phi^a'(q^a) * P^a.

When psi and the phi^a are holomorphic this is a holomorphic map, which is
what makes the momentum bundle a complex manifold.  The check below verifies
that numerically: it computes the transformed momenta from samples of the
maps and returns the largest discrete Cauchy-Riemann residual of the full
transition (t, q, P) -> (psi(t), phi(q), S(t, q, P)) over its complex input
directions.  Second-order centered differences make the defect O(h^2) for
holomorphic inputs and O(1) for non-holomorphic ones (reported, not raised).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from crms.errors import DimensionMismatchError


@dataclass(frozen=True)
class PatchSamples:
    """Function samples on a uniform rectangular patch in the complex plane.

    ``values[i, j]`` is the sample at ``origin + h * (i + 1j * j)``; spacing
    is the same in the real and imaginary directions.  Only h is stored: the
    difference quotients do not depend on where the patch lies.
    """

    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.ndim != 2 or min(v.shape) < 5:
            raise DimensionMismatchError("patch must be 2-d with at least 5 points per side")
        if self.h <= 0.0:
            raise ValueError("spacing must be positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def sample_patch(f: Callable[[np.ndarray], np.ndarray], origin: complex, h: float, size: int) -> PatchSamples:
    """Sample a complex function on a size x size patch."""
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    pts = origin + h * (i + 1j * j)
    return PatchSamples(h, np.asarray(f(pts), dtype=complex))


def _centered(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    sl_plus = [slice(1, -1)] * 2
    sl_minus = [slice(1, -1)] * 2
    sl_plus[axis] = slice(2, None)
    sl_minus[axis] = slice(None, -2)
    return (values[tuple(sl_plus)] - values[tuple(sl_minus)]) / (2.0 * h)


def wirtinger(patch: PatchSamples) -> tuple[np.ndarray, np.ndarray]:
    """Discrete (d/dz, d/dz̄) on the interior of the patch."""
    dx = _centered(patch.values, 0, patch.h)
    dy = _centered(patch.values, 1, patch.h)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def cauchy_riemann_defect(patch: PatchSamples) -> float:
    """Sup-norm of the discrete antiholomorphic derivative on the interior."""
    _, dbar = wirtinger(patch)
    return float(np.max(np.abs(dbar)))


def transition_check(
    chart: PatchSamples,
    fiber_maps: Sequence[PatchSamples],
    momenta: np.ndarray,
) -> float:
    """Max discrete Cauchy-Riemann residual of the induced chart transition.

    Parameters
    ----------
    chart : PatchSamples
        Samples of the base chart map psi on a patch in t.
    fiber_maps : sequence of PatchSamples
        Samples of each coordinate map phi^a on a patch in q^a (the fiber
        map is diagonal per coordinate).
    momenta : complex array of shape (n,)
        Complexified momenta P1 - i P2 entering the transformation.

    Returns
    -------
    float
        The largest defect over all output components and complex input
        directions.  The momentum direction contributes exactly zero: the
        transformation is complex-linear in P by construction, so only the
        t- and q-holomorphy are at stake.
    """
    momenta = np.asarray(momenta, dtype=complex)
    if momenta.ndim != 1 or len(momenta) != len(fiber_maps):
        raise DimensionMismatchError("momenta length must match the number of fiber maps")

    defects = [cauchy_riemann_defect(chart)]
    dpsi, _ = wirtinger(chart)

    for fib, p in zip(fiber_maps, momenta):
        defects.append(cauchy_riemann_defect(fib))
        dphi, _ = wirtinger(fib)
        if float(np.min(np.abs(dphi))) == 0.0:
            raise ValueError("fiber map has a critical point on the patch; not a chart change")
        # Transformed momentum as a function of t (q frozen at the patch center).
        m1, m2 = dphi.shape
        center = dphi[m1 // 2, m2 // 2]
        defects.append(cauchy_riemann_defect(PatchSamples(chart.h, dpsi * (p / center))))
        # Transformed momentum as a function of q (t frozen at the patch center).
        k1, k2 = dpsi.shape
        psi_center = dpsi[k1 // 2, k2 // 2]
        defects.append(cauchy_riemann_defect(PatchSamples(fib.h, (psi_center * p) / dphi)))
    return float(max(defects))
