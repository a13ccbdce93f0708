"""Universal cover of the punctured plane, realized through the complex log.

The covering map is z = exp(w): a point w = u + iv projects to radius
exp(u) and angle v.  Lifting a trajectory is bookkeeping, u = log r and
v = the continuously unwrapped angle, but it turns the multivalued
angle into a single global coordinate, and the vortex energy T - v is
conserved on the cover with no chart hops at all.

Log germs make the same structure discrete: a germ is (anchor, sheet)
with value log|z| + i(Arg z + 2*pi*sheet), continued along paths by
angle unwrapping.  Values are always derived from the sheet integer,
never stored, so monodromy comes out exactly 2*pi*i per loop.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NumericError, SingularityError, ValidationError
from .fields import TAU, angle_change, angle_samples, unwrapped_angle

_SHEET_RESIDUAL_TOL = 1e-6
_ANCHOR_MATCH_TOL = 1e-9


class LiftTrajectory:
    """Arrays u = log r and v (the continued angle) of a run or path lifted
    about a center, from the offsets dx, dy of its points; plus per-state
    sheet indices."""

    def __init__(self, dx, dy, v):
        r = np.hypot(dx, dy)
        if float(np.min(r)) <= 0.0:
            raise SingularityError("the lifted points touch the center; no lift")
        self.u = np.log(r)
        self.v = v

    def sheets(self):
        return _sheets(self.v, np.arctan2(np.sin(self.v), np.cos(self.v)))


def _sheets(continued, principal):
    """The integers n with continued = principal + 2*pi*n, elementwise;
    NumericError if a continued angle misses its sheet by more than
    _SHEET_RESIDUAL_TOL turns."""
    raw = (continued - principal) / TAU
    n = np.rint(raw)
    miss = abs(raw - n)
    if np.count_nonzero(miss > _SHEET_RESIDUAL_TOL):
        raise NumericError(f"continued angle misses a sheet by {np.max(miss):.3e}")
    return n.astype(np.int64)


def lift_trajectory(tr):
    """Lift a planar trajectory through exp about the field's center c (its
    first singular point, or the origin), which the run must avoid.

    v starts at Arg(q0 - c) and accumulates the logged angle steps, so the
    projection c + exp(u)(cos v, sin v) reproduces the positions.
    """
    cx, cy = tr.field.center
    if tr.field.singular_points:
        v = tr.theta[:, 0].copy()
    else:
        v = unwrapped_angle(tr.positions())
    return LiftTrajectory(tr.qx - cx, tr.qy - cy, v)


def lift_path(path):
    """Lift a plain path (no dynamics): arrays u, v and sheet indices
    along its samples.  path is anything fields.unwrapped_angle takes,
    including an (n, 2) array of points."""
    pts, v = angle_samples(path)
    return LiftTrajectory(pts[:, 0], pts[:, 1], v)


@dataclass(frozen=True)
class CoverEnergyReport:
    energy: np.ndarray
    drift: float
    strength: float


def cover_energy(tr, lift):
    """Energy on the cover: the logged kinetic energy minus strength * v,
    the strength being the circulation about the lift's center over 2*pi.

    For the unit vortex the cover potential is -v and the result is
    T - v; for a field with no puncture the strength is zero and this
    reduces to the kinetic energy alone.  With n > 1 punctures the cover
    potential is -sum_i s_i v_i, one angle v_i per puncture, which the
    one-angle lift cannot give: ValidationError.  An energy past the
    double range is refused with NonFiniteError.
    """
    points = tr.field.singular_points
    if len(points) > 1:
        raise ValidationError(
            f"cover energy for {len(points)} punctures needs T - sum_i s_i v_i, one angle "
            "per puncture; it is computed for at most one puncture")
    strength = tr.field.circulations[0] / TAU if points else 0.0
    energy = tr.Tkin - strength * lift.v
    if not np.isfinite(energy).all():
        raise NonFiniteError("non-finite cover energy: the momenta left the double range")
    drift = float(np.max(np.abs(energy - energy[0])))
    return CoverEnergyReport(energy, drift, strength)


# ---------------------------------------------------------------------------
# log germs

@dataclass(frozen=True)
class LogGerm:
    """A branch of log at an anchor point, labeled by its sheet."""

    anchor: complex
    sheet: int

    def __post_init__(self):
        if self.anchor == 0 or not cmath.isfinite(self.anchor):
            raise ValidationError("log has germs only at finite nonzero points")

    @property
    def value(self):
        return complex(
            math.log(abs(self.anchor)),
            cmath.phase(self.anchor) + TAU * self.sheet,
        )


def continue_log(germ, path):
    """Analytic continuation of a log germ along a path from its anchor.

    The continuous angle advances by the unwrapped sweep of the path
    about the origin; the new sheet is the integer that keeps the
    continued angle consistent with the principal argument at the end.
    """
    start = path.start
    gap = abs(complex(start[0], start[1]) - germ.anchor)
    if not gap <= _ANCHOR_MATCH_TOL:
        raise ValidationError(
            f"path starts {gap:.3e} away from the germ anchor"
        )
    sweep = angle_change(path, (0.0, 0.0))
    end = path.end
    anchor_end = complex(end[0], end[1])
    turns = _sheets(cmath.phase(germ.anchor) + sweep, cmath.phase(anchor_end))
    return LogGerm(anchor_end, germ.sheet + int(turns))


def monodromy_log(n_loops):
    """Value shift of a log germ after n positive loops about the origin."""
    return complex(0.0, TAU * n_loops)
