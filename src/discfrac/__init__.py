"""Discrete fractional calculus on shifted integer grids.

Delta and nabla, left and right, Riemann and Caputo fractional sums and
differences under interchangeable floating and exact-rational scalar
backends, plus executable checkers for the dual identities, reflection
identities, Riemann-Caputo relations, and a registry of monotonicity
theorems with an exhaustive counterexample search.
"""

from .backends import FLOATING, RATIONAL, GammaValue, as_fraction, get_backend
from .errors import (
    BackendOverflow,
    BudgetExceeded,
    DirectFormIntegerOrder,
    DiscfracError,
    DomainError,
    EmptyValues,
    GridTooShort,
    PoleAmbiguous,
    UnitMismatch,
    UsageError,
)
from .grids import Direction, GridFunction, integer_difference, make_grid_function, q_reflect
from .kernels import binomial_weight, falling, gamma_ratio, rising
from .operators import (
    Family,
    Formulation,
    Kind,
    OperatorSpec,
    apply_operator,
    caputo_difference,
    caputo_from_riemann,
    caputo_inversion_residual,
    fractional_sum,
    order_ceiling,
    riemann_difference,
)
from .dualities import CheckReport, IdentityId, check_identity, run_identity_suite

# The theorem engine, and numpy with it, loads on first use of one of its
# names, so that ``check`` and ``apply`` start without it.
_MONOTONE_NAMES = frozenset({
    "TheoremCase", "TheoremVerdict", "THEOREMS", "evaluate_theorem", "make_case",
})


def __getattr__(name):
    if name in _MONOTONE_NAMES:
        from . import monotone
        return getattr(monotone, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "FLOATING",
    "RATIONAL",
    "GammaValue",
    "as_fraction",
    "get_backend",
    "DiscfracError",
    "DomainError",
    "PoleAmbiguous",
    "BackendOverflow",
    "UnitMismatch",
    "GridTooShort",
    "EmptyValues",
    "UsageError",
    "DirectFormIntegerOrder",
    "BudgetExceeded",
    "Direction",
    "GridFunction",
    "make_grid_function",
    "integer_difference",
    "q_reflect",
    "falling",
    "rising",
    "gamma_ratio",
    "binomial_weight",
    "Kind",
    "Family",
    "Formulation",
    "OperatorSpec",
    "order_ceiling",
    "apply_operator",
    "fractional_sum",
    "riemann_difference",
    "caputo_difference",
    "caputo_from_riemann",
    "caputo_inversion_residual",
    "IdentityId",
    "CheckReport",
    "check_identity",
    "run_identity_suite",
    "THEOREMS",
    "TheoremCase",
    "TheoremVerdict",
    "make_case",
    "evaluate_theorem",
    "__version__",
]
