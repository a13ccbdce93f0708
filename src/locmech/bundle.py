"""Principal R-bundle data exponentiated from the offset cocycle.

Transition factors are t_ij = exp(c_ij).  All products (holonomies,
triviality gauges) are computed as sums of c entries first and
exponentiated once, so inverses and cycle cancellations are exact in the
additive domain instead of accumulating multiplicative rounding.

Fiber convention: a point given in chart j with fiber a is represented
in chart i by fiber t_ij * a.
"""

import math
from dataclasses import dataclass

from .atlas import exactness_test
from .errors import TransitionOverflowError, ValidationError

_EXP_OVERFLOW = 700.0


class TransitionSystem:
    """exp of a cocycle: factors on overlaps plus the nerve graph."""

    def __init__(self, cocycle):
        self.cocycle = cocycle
        self.t = {}
        for (i, j) in cocycle.pairs():
            c = cocycle.value(i, j)
            if abs(c) > _EXP_OVERFLOW:
                raise TransitionOverflowError(
                    f"|c_{i}{j}| = {abs(c):.3f} > {_EXP_OVERFLOW}; "
                    "exp would overflow"
                )
            self.t[(i, j)] = math.exp(c)
            self.t[(j, i)] = math.exp(-c)

    def factor(self, i, j):
        if i == j:
            return 1.0
        try:
            return self.t[(i, j)]
        except KeyError:
            raise ValidationError(f"charts {i} and {j} do not overlap") from None

    def edges(self):
        return self.cocycle.pairs()


def transitions(cocycle):
    return TransitionSystem(cocycle)


def holonomy(ts, cycle):
    """Ordered product of transition factors along a chart cycle, computed
    as exp of the summed cocycle entries."""
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise ValidationError("a holonomy cycle must return to its start")
    log_h = ts.cocycle.cycle_sum(cycle)
    if abs(log_h) > _EXP_OVERFLOW:
        raise TransitionOverflowError("holonomy exponent overflows")
    return math.exp(log_h)


@dataclass(frozen=True)
class TrivialityReport:
    trivial: bool
    gauges: dict | None          # chart id -> s_i > 0 with t_ij = s_i / s_j


def is_trivial(ts):
    """Bundle triviality via the log-domain spanning-tree solve.

    Trivial means every independent nerve cycle has holonomy one; the
    returned positive fiber gauges then split every transition factor.
    """
    result = exactness_test(ts.cocycle)
    if result.exact:
        gauges = {}
        for cid, a in result.offsets.items():
            if abs(a) > _EXP_OVERFLOW:
                raise TransitionOverflowError("fiber gauge exponent overflows")
            gauges[cid] = math.exp(a)
        return TrivialityReport(True, gauges)
    return TrivialityReport(False, None)

