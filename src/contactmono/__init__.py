"""Workbench for the monopole equations of homogeneous contact 3-manifolds.

Exact invariant exterior calculus over a constant-coefficient coframe,
pseudohermitian invariants (connection form, torsion, Webster curvature),
the canonical spin-c bundle with its two Clifford representations, field
backends (exact invariant sector and a twisted-periodic Heisenberg grid),
and a Gauss-Newton solver for the contact monopole system and its
eps-family deformation, including the adiabatic sweep.
"""

__version__ = "0.1.0"

from .algebra import (
    InvariantForm,
    ModelStructure,
    catalog_model,
    exterior_d,
    gen_model,
    hodge_star_eps,
    interior,
    make_model,
    model_from_json,
    wedge,
)
from .clifford import (
    CliffordRep,
    ConnCoeffs,
    clifford_axiom_check,
    compatibility_check,
    conn_coeffs,
    gamma_can,
    rho_eps,
    unitarity_diagnostic,
)
from .exact import ExactComplex
from .fields import (
    GaugeField,
    HeisGridBackend,
    InvariantBackend,
    SpinorField,
    cov_deriv,
    dirac_eps,
    dirac_xi,
)
from .pseudohermitian import (
    PhInvariants,
    RiemannData,
    compare_scalar_curvature,
    derive_ph_invariants,
    frame_bracket_check,
    riemannian_connection,
    scalar_curvature,
)
from .solver import (
    MonopoleState,
    ResidualReport,
    HeisenbergFamily,
    SolveOpts,
    SweepRecord,
    loglog_slope,
    random_monopole_state,
    residual_contact,
    residual_sw,
    solve,
    sweep,
    vanishing_certificate,
)

__all__ = [
    "__version__",
    "InvariantForm",
    "ModelStructure",
    "catalog_model",
    "exterior_d",
    "gen_model",
    "hodge_star_eps",
    "interior",
    "make_model",
    "model_from_json",
    "wedge",
    "CliffordRep",
    "ConnCoeffs",
    "clifford_axiom_check",
    "compatibility_check",
    "conn_coeffs",
    "gamma_can",
    "rho_eps",
    "unitarity_diagnostic",
    "ExactComplex",
    "GaugeField",
    "HeisGridBackend",
    "InvariantBackend",
    "SpinorField",
    "cov_deriv",
    "dirac_eps",
    "dirac_xi",
    "PhInvariants",
    "RiemannData",
    "compare_scalar_curvature",
    "derive_ph_invariants",
    "frame_bracket_check",
    "riemannian_connection",
    "scalar_curvature",
    "MonopoleState",
    "ResidualReport",
    "HeisenbergFamily",
    "SolveOpts",
    "SweepRecord",
    "loglog_slope",
    "random_monopole_state",
    "residual_contact",
    "residual_sw",
    "solve",
    "sweep",
    "vanishing_certificate",
]
