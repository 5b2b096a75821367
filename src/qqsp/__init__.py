"""Numerical laboratory for quantum quadratic stochastic processes.

Finite-dimensional throughout: states are density matrices, processes are
families of unital completely positive flip-symmetric maps P^{s,t} from
M into M (x) M on an integer time lattice, and every structural identity
of the theory is an executable check rather than a proof.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    ChoiReport,
    State,
    SuperMap,
    certify_unital_cp,
    conditional_expectation,
    expectation_supermap,
    flip_symmetry_residual,
    predual,
    supermap_tensor,
    tensor,
    trace_norm_distance,
)
from .classical import (
    ClassicalQSP,
    Distribution,
    classical_propagate,
    classical_validate,
    copy_second_parent_tensor,
    lift_to_quantum,
    mendel_tensor,
    project_to_classical,
    volterra_tensor,
)
from .ergodic import (
    ContractionEstimate,
    DecayTrace,
    ErgodicConfig,
    ErgodicReport,
    contraction_coefficient,
    decay_trace,
    ergodic_verdict,
    state_pair_ensemble,
)
from .marginal import (
    AxiomReport,
    build_H,
    build_Q,
    build_Z,
    build_h,
    build_z,
    check_markov,
    reconstruct_qqsp,
    slice_residuals,
    state_consistency_residual,
    verify_marginal_axioms,
)
from .process import (
    Family,
    QQSPSeed,
    ResidualTable,
    ValidationFailure,
    interact_states,
    kc_consistency,
    propagate,
    seed_diagnostics,
    validate_seed,
)
from .scenarios import Scenario, ScenarioError, builtin_scenarios, parse_scenario, run_scenario
