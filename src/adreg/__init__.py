"""Adaptive internal-model output regulation for normal-form plants.

Hybrid closed-loop simulation (clock-triggered jumps, fixed-step RK4 flows),
a saturated stabilizer with an extended high-gain observer, an adaptive
internal-model unit, and pluggable discrete-time identifiers.
"""

from .errors import (
    AdregError,
    BranchPointError,
    IntegrationBlowupError,
    InvalidConfigError,
    InvalidInputError,
)
from .hybrid import ClockConfig, HybridArc, next_jump_time, simulate, validate_arc
from .identifier import (
    LsIdentifier,
    MiniBatchIdentifier,
    PolyRegressor,
    batch_solver_ls,
    build_poly_regressor,
)
from .numerics import (
    is_controllable,
    is_hurwitz,
    place_poles,
    pseudoinverse,
    rk4_step,
)
from .plant import (
    PlantSpec,
    build_chain_matrices,
    build_vdp_scenario,
    lie_derivatives_p1star,
    triangular_output,
)
from .regulator import (
    InternalModelConfig,
    ObserverConfig,
    StabilizerConfig,
    default_internal_model,
    saturate,
)
from .harness import (
    CoreProcessRun,
    brute_force_cost_minimizer,
    run_core_process,
    verify_identifier_requirement,
)
from .scenario import (
    ScenarioConfig,
    ScenarioResult,
    build_synthetic_linear_plant,
    run_scenario,
    run_sweep,
)

__version__ = "0.1.0"
