"""Exterior calculus on E3: star table, wedge, d, and the vector wrappers."""

import math

import numpy as np
import pytest

from locmech.errors import ValidationError
from locmech.exprlang import ScalarExpr, parse_expr
from locmech.forms3 import (
    HODGE_TABLE,
    FormField,
    VectorField3,
    basis_form,
    curl,
    div,
    ext_d,
    flat,
    grad,
    hodge,
    sharp,
    star_table,
    wedge,
)

PROBE = (0.3, -0.7, 1.1)


def comp(form, label, p=PROBE):
    return form.component(label)(*p)


@pytest.mark.parametrize("make", [
    lambda: VectorField3(math.inf, 1, "x"),
    lambda: curl(VectorField3(math.nan, "x*y", 0)),
    lambda: basis_form("dx", 10**400),
], ids=["inf", "nan-curl", "int-past-double-range"])
def test_non_finite_number_components_are_refused(make):
    with pytest.raises(ValidationError, match="finite"):
        make()


def test_star_table_is_exact_on_basis_forms():
    for label, (target, sign) in HODGE_TABLE.items():
        starred = hodge(basis_form(label))
        assert set(starred.components) == {target}
        assert comp(starred, target) == float(sign)


def test_star_table_rendering():
    table = star_table()
    assert table["1"] == "dx^dy^dz"
    assert table["dx"] == "dy^dz"
    assert table["dy"] == "-dx^dz"
    assert table["dz"] == "dx^dy"
    assert table["dx^dy"] == "dz"
    assert table["dx^dz"] == "-dy"
    assert table["dy^dz"] == "dx"
    assert table["dx^dy^dz"] == "1"


def test_double_star_is_identity():
    for label in HODGE_TABLE:
        twice = hodge(hodge(basis_form(label)))
        assert set(twice.components) == {label}
        assert comp(twice, label) == 1.0


def test_star_carries_function_coefficients():
    a = FormField(1, {"dy": "x*z"})
    starred = hodge(a)
    assert starred.degree == 2
    assert comp(starred, "dx^dz") == -(PROBE[0] * PROBE[2])


def test_flat_sharp_round_trip():
    v = VectorField3("x+y", "z", -2.0)
    back = sharp(flat(v))
    assert back.evaluate(PROBE) == v.evaluate(PROBE)


def test_wedge_basics():
    dx = basis_form("dx")
    dy = basis_form("dy")
    assert comp(wedge(dx, dx), "dx^dy") == 0.0
    assert comp(wedge(dx, dy), "dx^dy") == 1.0
    assert comp(wedge(dy, dx), "dx^dy") == -1.0
    vol = wedge(wedge(dx, dy), basis_form("dz"))
    assert comp(vol, "dx^dy^dz") == 1.0
    with pytest.raises(ValidationError):
        wedge(vol, dx)


def test_vector_identities_on_random_constants():
    rng = np.random.default_rng(910)
    worst = 0.0
    for _ in range(100):
        u, v, w = rng.uniform(-2.0, 2.0, size=(3, 3))
        fu, fv, fw = (VectorField3(*vec) for vec in (u, v, w))
        p = tuple(rng.uniform(-1.0, 1.0, size=3))

        dot = hodge(wedge(flat(fu), hodge(flat(fv)))).component("1")(*p)
        worst = max(worst, abs(dot - float(np.dot(u, v))))

        cross = np.array(sharp(hodge(wedge(flat(fu), flat(fv)))).evaluate(p))
        worst = max(worst, float(np.max(np.abs(cross - np.cross(u, v)))))

        abba = np.array(sharp(hodge(wedge(flat(fv), flat(fu)))).evaluate(p))
        worst = max(worst, float(np.max(np.abs(abba + cross))))

        self_cross = np.array(sharp(hodge(wedge(flat(fu), flat(fu)))).evaluate(p))
        worst = max(worst, float(np.max(np.abs(self_cross))))

        triple = hodge(
            wedge(wedge(flat(fu), flat(fv)), flat(fw))
        ).component("1")(*p)
        det = float(np.linalg.det(np.array([u, v, w])))
        worst = max(worst, abs(triple - det))
    assert worst < 1e-12


def test_exterior_derivative_of_scalar_matches_partials():
    f = FormField(0, {"1": "sin(x)*y+z^2"})
    df = ext_d(f)
    x, y, z = PROBE
    assert comp(df, "dx") == pytest.approx(np.cos(x) * y, rel=1e-15)
    assert comp(df, "dy") == pytest.approx(np.sin(x), rel=1e-15)
    assert comp(df, "dz") == pytest.approx(2 * z, rel=1e-15)


def test_d_squared_vanishes_on_one_forms():
    a = FormField(1, {"dx": "x*y*z", "dy": "sin(z)", "dz": "exp(0.2*x)"})
    dda = ext_d(ext_d(a))
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = tuple(rng.uniform(-1.0, 1.0, size=3))
        assert abs(comp(dda, "dx^dy^dz", p)) < 1e-12


def test_top_degree_has_no_exterior_derivative():
    with pytest.raises(ValidationError):
        ext_d(basis_form("dx^dy^dz"))


def test_grad_curl_div_against_hand_results():
    g = grad("x^2+y^2+z^2")
    x, y, z = PROBE
    gx, gy, gz = g.evaluate(PROBE)
    assert (gx, gy, gz) == (2 * x, 2 * y, 2 * z)

    c = curl(VectorField3("0-y", "x", 0.0))
    cx, cy, cz = c.evaluate(PROBE)
    assert (cx, cy, cz) == (0.0, 0.0, 2.0)

    d = div(VectorField3("x", "y", "z"))
    assert d(*PROBE) == 3.0


def test_curl_grad_and_div_curl_vanish():
    cg = curl(grad("sin(x)*cos(y)*exp(0.3*z)"))
    dc = div(curl(VectorField3("sin(y*z)", "x*z", "exp(0.2*x)*y")))
    rng = np.random.default_rng(77)
    for _ in range(20):
        p = tuple(rng.uniform(-1.0, 1.0, size=3))
        assert float(np.max(np.abs(np.array(cg.evaluate(p))))) < 1e-12
        assert abs(dc(*p)) < 1e-12


def test_component_validation():
    with pytest.raises(ValidationError):
        FormField(1, {"dx^dy": 1.0})
    with pytest.raises(ValidationError):
        FormField(5, {})
    with pytest.raises(ValidationError):
        basis_form("du")
    with pytest.raises(ValidationError):
        sharp(basis_form("dx^dy"))


def test_missing_components_default_to_zero():
    a = FormField(1, {"dx": 1.0})
    assert comp(a, "dy") == 0.0
    assert a.evaluate(PROBE)["dz"] == 0.0


def test_components_are_expressions_and_d_is_symbolic():
    g = grad("x*y*z+2*x")
    assert all(isinstance(c, ScalarExpr) for c in (g.vx, g.vy, g.vz))
    assert g.vx.to_source() == "y*z+2.0"
    assert g.vz.to_source() == "x*y"
    # products of constants fold to a number
    dot = hodge(wedge(flat(VectorField3(2.0, 0.0, 0.0)), hodge(flat(VectorField3(3.0, 1.0, 0.0)))))
    assert dot.component("1").to_source() == "6.0"
    with pytest.raises(ValidationError):
        FormField(0, {"1": lambda x, y, z: x})
    with pytest.raises(ValidationError):
        FormField(0, {"1": parse_expr("t", ("t",))})
