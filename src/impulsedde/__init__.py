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

A name is public if and only if it is in its module's `__all__`; the
package re-exports exactly those.  A name without an underscore outside
every `__all__` (`require_valid`, `kernel_rows`, ...) is shared between
modules but not exported.
"""

from . import system, integrate, represent, stability, cli
from .system import *
from .integrate import *
from .represent import *
from .stability import *
from .cli import *

__version__ = "1.0.0"

__all__ = [*system.__all__, *integrate.__all__, *represent.__all__,
           *stability.__all__, *cli.__all__, "__version__"]
