"""Safe extremum seeking with an assignable attractivity rate.

Model-free minimization of a sampled quadratic objective subject to a
sampled linear safety metric staying nonnegative, with the approach rate
toward either side of the safety boundary assigned by the user.  The
package provides the algorithm dynamics (gradient, Newton for one
parameter, and a classical unconstrained baseline), the averaged, reduced
and boundary-layer analysis models, closed-form equilibria and spectral
checks, a deterministic fixed-step integrator, and a scenario-driven CLI.
"""

from .dynamics import (
    AlgorithmConfig,
    FullState,
    Variant,
    boundary_layer_rhs,
    make_average_rhs,
    make_reduced_rhs,
    make_rhs,
    reduced_rhs,
)
from .analysis import (
    Equilibrium,
    SafetyReport,
    SpectralReport,
    average_equilibrium,
    finite_diff_jacobian,
    jacobian_j11,
    reduced_jacobian,
    safety_report,
    spectral_check,
)
from .integrate import (
    IntegrationSettings,
    Trajectory,
    exact_initial_state,
    integrate,
    numeric_average,
    warmup,
)
from .problem import (
    ConstrainedOptimum,
    LinearBarrier,
    PlantModel,
    QuadraticObjective,
    constrained_minimum,
    eval_barrier,
    eval_objective,
    nb_eigenvector_condition,
    validate_plant,
)
from .signals import (
    DitherConfig,
    common_period,
    dither,
    signal_period,
    smooth_max,
    validate_frequencies,
)

__version__ = "0.1.0"
