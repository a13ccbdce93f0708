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

from .errors import NumericError, SingularityError, ValidationError
from .fields import TAU, angle_change, circulation, unwrapped_angle

_SHEET_RESIDUAL_TOL = 1e-6
_ANCHOR_MATCH_TOL = 1e-9


class LiftTrajectory:
    """Arrays (t, u, v) of a run lifted about a center, plus per-state sheet
    indices."""

    def __init__(self, t, u, v, center=(0.0, 0.0)):
        self.t = t
        self.u = u
        self.v = v
        self.center = center

    @property
    def n_states(self):
        return len(self.t)

    def sheets(self):
        principal = np.arctan2(np.sin(self.v), np.cos(self.v))
        raw = (self.v - principal) / TAU
        n = np.rint(raw).astype(np.int64)
        if float(np.max(np.abs(raw - n))) > _SHEET_RESIDUAL_TOL:
            raise NumericError("sheet index off-integer in lift")
        return n

    def reprojected(self):
        r = np.exp(self.u)
        return np.column_stack([self.center[0] + r * np.cos(self.v),
                                self.center[1] + r * np.sin(self.v)])


def lift_trajectory(tr):
    """Lift a planar trajectory through exp about the field's center c (its
    first singular point, or the origin), which the run must avoid.

    v starts at Arg(q0 - c) and accumulates the logged angle steps, so the
    projection c + exp(u)(cos v, sin v) reproduces the positions.
    """
    cx, cy = tr.field.center
    r = np.hypot(tr.qx - cx, tr.qy - cy)
    if float(np.min(r)) <= 0.0:
        raise SingularityError("trajectory touches the center; no lift")
    u = np.log(r)
    if tr.field.singular_points:
        v = tr.theta[:, 0].copy()
    else:
        v = unwrapped_angle(tr.positions())
    return LiftTrajectory(tr.t.copy(), u, v, (cx, cy))


def lift_path(path):
    """Lift a plain path (no dynamics): arrays u, v and sheet indices
    along its samples.  path is anything fields.unwrapped_angle takes,
    including an (n, 2) array of points."""
    pts = path.sample() if hasattr(path, "sample") else np.asarray(path, dtype=float)
    r = np.hypot(pts[:, 0], pts[:, 1])
    if float(np.min(r)) <= 0.0:
        raise SingularityError("path touches the origin; no lift")
    v = unwrapped_angle(path)
    return LiftTrajectory(np.arange(len(pts), dtype=float), np.log(r), v)


@dataclass(frozen=True)
class CoverEnergyReport:
    t: np.ndarray
    energy: np.ndarray
    drift: float
    strength: float


def cover_energy(tr, lift, m=None, strength=None):
    """Energy on the cover: kinetic part minus strength * v, the strength
    being the circulation about the lift's center over 2*pi.

    For the unit vortex the cover potential is -v and the result is
    T - v; for a field with no puncture the strength is zero and this
    reduces to the kinetic energy alone.
    """
    if m is None:
        m = tr.m
    if strength is None:
        strength = circulation(tr.field, 0) / TAU if tr.field.singular_points else 0.0
    Tkin = (tr.px ** 2 + tr.py ** 2) / (2.0 * m)
    energy = Tkin - strength * lift.v
    drift = float(np.max(np.abs(energy - energy[0])))
    return CoverEnergyReport(tr.t.copy(), energy, drift, strength)


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
    continued = cmath.phase(germ.anchor) + TAU * germ.sheet + sweep
    raw = (continued - cmath.phase(anchor_end)) / TAU
    sheet = int(round(raw))
    if abs(raw - sheet) > _SHEET_RESIDUAL_TOL:
        raise NumericError(
            f"continued angle misses a sheet by {abs(raw - sheet):.3e}"
        )
    return LogGerm(anchor_end, sheet)


def monodromy_log(n_loops):
    """Value shift of a log germ after n positive loops about the origin."""
    return complex(0.0, TAU * n_loops)
