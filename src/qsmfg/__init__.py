"""Numerical solvers for quasi-stationary mean field games of controls on T^d."""

from .coupling import (
    CouplingConfig,
    MuFixedPointResult,
    TrajectorySolution,
    regularity_report,
    solve_field_iteration,
    solve_joint_measure,
    solve_measure_iteration,
    solve_system,
    solve_vanishing_discount,
)
from .fp import fp_evolve, fp_step, transport_generator
from .grid import Grid, gradient_central, gradient_upwind, laplacian, torus_distance
from .hjb import (
    HjbSolution,
    equation_residual,
    solve_discounted,
    solve_ergodic,
)
from .measure import (
    DensityField,
    JointMeasure,
    pushforward,
    two_bump_density,
    uniform_density,
    von_mises_density,
    wasserstein1_joint,
    wasserstein1_state,
)
from .model import (
    ControlSet,
    ModelSpec,
    brute_force_argmax,
    check_model,
    example_one,
    example_two,
    hamiltonian_gradient_p,
    hamiltonian_value,
    memory_aggregate,
    optimal_control,
    policy_field,
    separated_cost,
    slice_measure,
)

__version__ = "0.1.0"
