"""Exterior calculus on Euclidean 3-space over the coordinate basis.

Forms are stored as coefficient expressions (ScalarExpr trees over
x, y, z) against the fixed ordered bases 1; dx, dy, dz; dx^dy, dx^dz,
dy^dz; dx^dy^dz.  The musical maps and the Hodge star are pure
coefficient moves (the star follows the eight-row table below, exact up
to sign flips), wedge builds products and sums of the trees, and the
exterior derivative differentiates them exactly with ScalarExpr.diff.

Vector operators are deliberately not written as their textbook
formulas: grad = (d f)#, curl = (star d flat)#, div = star d star flat,
so the classical identities fall out of d and star rather than being
re-asserted.

    star 1          = dx^dy^dz        star dx^dy = dz
    star dx         = dy^dz           star dx^dz = -dy
    star dy         = -dx^dz          star dy^dz = dx
    star dz         = dx^dy           star dx^dy^dz = 1
"""

import sys

from .errors import ValidationError
from .exprlang import Num, ScalarExpr, fold, neg, parse_expr

_AXES = ("x", "y", "z")
LABELS = {
    0: ("1",),
    1: ("dx", "dy", "dz"),
    2: ("dx^dy", "dx^dz", "dy^dz"),
    3: ("dx^dy^dz",),
}
_INDICES = {lab: tuple(_AXES.index(c) for c in lab if c in _AXES)
            for labels in LABELS.values() for lab in labels}
_LABEL_OF = {v: k for k, v in _INDICES.items()}
# (a, b) -> (label, "+" or "-"): dx_a ^ dx_b = +-(label), for every pair
# of basis labels with no index in common
_WEDGE = {
    (la, lb): (_LABEL_OF[tuple(sorted(ia + ib))],
               "-" if sum(i > j for i in ia for j in ib) % 2 else "+")
    for la, ia in _INDICES.items() for lb, ib in _INDICES.items()
    if not set(ia) & set(ib)
}

HODGE_TABLE = {
    "1": ("dx^dy^dz", 1.0),
    "dx": ("dy^dz", 1.0),
    "dy": ("dx^dz", -1.0),
    "dz": ("dx^dy", 1.0),
    "dx^dy": ("dz", 1.0),
    "dx^dz": ("dy", -1.0),
    "dy^dz": ("dx", 1.0),
    "dx^dy^dz": ("1", 1.0),
}


_ZERO = ScalarExpr(Num(0.0), _AXES)


def _as_component(c):
    if isinstance(c, ScalarExpr):
        if c.variables == _AXES:
            return c
        if set(c.variables) - set(_AXES):
            raise ValidationError("form components use variables x, y, z")
        return ScalarExpr(c.root, _AXES)
    if isinstance(c, str):
        return parse_expr(c, _AXES)
    if isinstance(c, (int, float)):
        if not abs(c) <= sys.float_info.max:     # nan, inf or an int past the double range
            raise ValidationError("form components must be finite numbers")
        return ScalarExpr(Num(float(c)), _AXES)
    raise ValidationError(f"cannot use {c!r} as a form component")


def _form(degree, terms):
    """A FormField from a dict of label -> expression tree."""
    return FormField(degree, {lab: ScalarExpr(node, _AXES) for lab, node in terms.items()})


def _add_term(terms, wedge_entry, node):
    """terms[label] +-= node, for a (label, sign) entry of _WEDGE."""
    label, op = wedge_entry
    terms[label] = fold(op, terms.get(label, _ZERO.root), node)


class FormField:
    """A differential form of fixed degree with coefficient expressions."""

    def __init__(self, degree, components):
        if degree not in LABELS:
            raise ValidationError("degree must be 0, 1, 2, or 3")
        self.degree = degree
        comps = {}
        for label, c in components.items():
            if label not in LABELS[degree]:
                raise ValidationError(
                    f"label {label!r} is not in the degree-{degree} basis"
                )
            comps[label] = _as_component(c)
        self.components = comps

    def component(self, label):
        if label not in LABELS[self.degree]:
            raise ValidationError(
                f"label {label!r} is not in the degree-{self.degree} basis"
            )
        return self.components.get(label, _ZERO)

    def evaluate(self, p):
        return {lab: self.component(lab).evaluate(*p) for lab in LABELS[self.degree]}

    def __repr__(self):
        return f"FormField(degree={self.degree}, {sorted(self.components)})"


class VectorField3:
    def __init__(self, vx, vy, vz):
        self.vx = _as_component(vx)
        self.vy = _as_component(vy)
        self.vz = _as_component(vz)

    def evaluate(self, p):
        return (self.vx.evaluate(*p), self.vy.evaluate(*p), self.vz.evaluate(*p))

    def __repr__(self):
        return "VectorField3(...)"


def basis_form(label, coefficient=1.0):
    for degree, labels in LABELS.items():
        if label in labels:
            return FormField(degree, {label: coefficient})
    raise ValidationError(f"unknown basis label {label!r}")


def flat(v):
    """Index lowering: (vx, vy, vz) -> vx dx + vy dy + vz dz."""
    return FormField(1, {"dx": v.vx, "dy": v.vy, "dz": v.vz})


def sharp(a):
    """Index raising of a one-form; the inverse of flat."""
    if a.degree != 1:
        raise ValidationError("sharp applies to one-forms")
    return VectorField3(a.component("dx"), a.component("dy"), a.component("dz"))


def hodge(a):
    """The star of the fixed table; an involution on every degree here."""
    out_degree = 3 - a.degree
    comps = {}
    for label, expr in a.components.items():
        target, sign = HODGE_TABLE[label]
        comps[target] = expr.root if sign > 0 else neg(expr.root)
    return _form(out_degree, comps)


def wedge(a, b):
    """Antisymmetrized product; degrees add (empty above 3)."""
    degree = a.degree + b.degree
    if degree > 3:
        raise ValidationError("wedge degree exceeds the dimension")
    terms = {}
    for la, fa in a.components.items():
        for lb, fb in b.components.items():
            if (la, lb) in _WEDGE:
                _add_term(terms, _WEDGE[la, lb], fold("*", fa.root, fb.root))
    return _form(degree, terms)


def ext_d(a):
    """Exterior derivative, exact: every coefficient is differentiated by
    ScalarExpr.diff."""
    if a.degree == 3:
        raise ValidationError("top-degree forms have no exterior derivative here")
    terms = {}
    for label, expr in a.components.items():
        for axis, d_axis in zip(_AXES, LABELS[1]):
            if (d_axis, label) in _WEDGE:
                _add_term(terms, _WEDGE[d_axis, label], expr.diff(axis).root)
    return _form(a.degree + 1, terms)


def grad(f):
    """(df)# for a scalar, given as a 0-form, an expression in x, y, z or
    its source."""
    if not isinstance(f, FormField):
        f = FormField(0, {"1": f})
    if f.degree != 0:
        raise ValidationError("grad applies to scalars")
    return sharp(ext_d(f))


def curl(v):
    """[star d (v flat)]#."""
    return sharp(hodge(ext_d(flat(v))))


def div(v):
    """star d star (v flat), returned as a scalar expression."""
    return hodge(ext_d(hodge(flat(v)))).component("1")


def star_table():
    """The fixed star action on basis labels, signs rendered inline."""
    return {
        label: (target if sign > 0 else f"-{target}")
        for label, (target, sign) in HODGE_TABLE.items()
    }
