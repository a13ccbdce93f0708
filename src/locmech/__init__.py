"""Mechanics of locally conservative force fields on punctured planar domains.

Work integrals and winding numbers, chart-local potentials with their
offset cocycle, the exponentiated transition bundle, symplectic
trajectory integration with per-chart energy ledgers, universal-cover
lifts, log germs, and a small exterior-calculus toolbox on E3.
"""

from .atlas import (
    Atlas,
    CechCocycle,
    Chart,
    PotentialSet,
    check_star_shaped,
    cocycle,
    exactness_test,
    gauge_shift,
    potential_gradient_report,
    quadrant_atlas,
)
from .bundle import (
    BundlePoint,
    TransitionSystem,
    canonical_point,
    holonomy,
    is_trivial,
    transitions,
)
from .cover import (
    LiftState,
    LogGerm,
    continue_log,
    cover_energy,
    lift_path,
    lift_trajectory,
    monodromy_log,
    sheet_of,
)
from .dynamics import (
    SimConfig,
    Trajectory,
    energy_ledger,
    hamiltonian,
    lagrangian,
    legendre_check,
    polar_diagnostics,
    simulate,
)
from .exprlang import parse_expr
from .fields import (
    FieldOneForm,
    ParametricPath,
    PolylinePath,
    WindingResult,
    angle_change,
    circle_path,
    classify,
    concatenate,
    from_components,
    is_closed,
    segment_work,
    unwrapped_angle,
    vortex,
    winding_number,
    work,
    zero_field,
)
from .verify import CheckResult, VerifyReport, run_all
from .forms3 import (
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

__version__ = "0.1.0"
