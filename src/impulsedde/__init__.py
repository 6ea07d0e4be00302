"""Linear impulsive delay differential equations: simulation and bounds.

The package covers one pipeline end to end for systems

    x'(t) + sum_i A_i(t) x[h_i(t)] = r(t),    x(tau_j) = B_j x(tau_j - 0) + alpha_j,

with piecewise-constant data and the max-norm throughout:

* `system`:    typed problem statements and hypothesis checks,
* `integrate`: method-of-steps RK4 with exact jump handling, trajectories
               and the fundamental matrix X(t, s),
* `represent`: the variation-of-constants form and its residual,
* `stability`: a-priori envelopes and an executable exponential-stability
               certificate,
* `cli`:       the `impulsedde` command-line front end.
"""

from .system import (
    ConstantLag,
    DelayTerm,
    FrozenTime,
    HypothesesReport,
    ImpulseSchedule,
    MatrixTable,
    SystemSpec,
    VectorTable,
    count_impulses,
    evaluate_delay,
    hypotheses_report,
    mat_norm,
    validate,
    vec_norm,
)
from .integrate import (
    FundamentalMatrix,
    NumericalError,
    StepControl,
    Trajectory,
    fundamental_grid,
    fundamental_matrix,
    solve,
)
from .represent import (
    RepresentationInput,
    cauchy_apply,
    represent_solution,
    representation_residual,
    representation_residuals,
)
from .stability import (
    RateEstimate,
    StabilityCertificate,
    c0_closed_form,
    c0_estimate,
    certify,
    estimate_rate,
    gronwall_bound,
)
from .cli import RunConfig, dump_spec, load_spec, run

__version__ = "1.0.0"

__all__ = [
    "ConstantLag",
    "DelayTerm",
    "FrozenTime",
    "HypothesesReport",
    "ImpulseSchedule",
    "MatrixTable",
    "SystemSpec",
    "VectorTable",
    "count_impulses",
    "evaluate_delay",
    "hypotheses_report",
    "mat_norm",
    "validate",
    "vec_norm",
    "FundamentalMatrix",
    "NumericalError",
    "StepControl",
    "Trajectory",
    "fundamental_grid",
    "fundamental_matrix",
    "solve",
    "RepresentationInput",
    "cauchy_apply",
    "represent_solution",
    "representation_residual",
    "representation_residuals",
    "RateEstimate",
    "StabilityCertificate",
    "c0_closed_form",
    "c0_estimate",
    "certify",
    "estimate_rate",
    "gronwall_bound",
    "RunConfig",
    "dump_spec",
    "load_spec",
    "run",
    "__version__",
]
