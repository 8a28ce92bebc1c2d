"""riskcounts: population-scale risk accounting for two-arm exposure questions.

The package answers questions of the form "if one group of people carries a
higher per-person risk than another, what actually happens when you count
cases across whole populations?"  It builds exact (to a declared tolerance)
count distributions for each arm, compares them head-to-head, folds in
uncertainty about the per-person risks through beta priors, runs the
classical two-proportion test for contrast, and generates synthetic cohorts
that show what that test can and cannot establish about cause.

Numerics are deterministic: distribution construction is closed-form
log-space arithmetic with explicit truncation budgets, and every simulation
is driven by counter-based streams keyed on a declared seed.

Every name a module lists in its ``__all__`` is importable from here: each
public name is declared once, in its own module.
"""

# Set before the submodule imports: figures stamps it into CSV headers.
__version__ = "0.1.0"

from . import classical, cohort, comparison, distributions, figures, predictive, scenarios
from .distributions import *
from .comparison import *
from .predictive import *
from .classical import *
from .cohort import *
from .figures import *
from .scenarios import *

__all__ = list(dict.fromkeys(["__version__", *(
    name
    for module in (distributions, comparison, predictive, classical, cohort, figures, scenarios)
    for name in module.__all__
)]))
