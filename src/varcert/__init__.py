"""Certified local-minimality checks for one-dimensional integral functionals.

The package decides weak local minimality of a stationary path (against
competitors close in value and in slope; strong, against competitors close
in value alone, when f is at most quadratic in the slope) from an
interval-length criterion on the second-order coefficients along the path,
returns an explicit quadratic growth constant when it certifies, and ships a
classical conjugate-point computation for cross-validation plus a generator
that manufactures problems whose designated path is an exact extremal.
"""

__version__ = "0.1.0"

from .calculus import (
    Grid,
    SampledPath,
    friedrichs_coefficient,
    friedrichs_margin,
    h1_norm_sq,
    integrate,
)
from .certify import (
    MINIMUM_KINDS,
    RANDOM_SPLINE,
    SINE_BASIS,
    Certificate,
    EmpiricalReport,
    PerturbationCheck,
    PerturbationFamily,
    Verdict,
    VerdictKind,
    certify,
    classify,
    empirical_verify,
    functional_value,
    length_bound,
    quad_coefficient,
)
from .expr import (
    EvalDomainError,
    Expr,
    ParseError,
    const,
    diff,
    evaluate,
    free_vars,
    parse,
    simplify,
    substitute,
    unparse,
    var,
)
from .generator import (
    BuildInfo,
    GeneratorError,
    GeneratorSpec,
    antiderivative,
    build,
    sample_corpus,
)
from .jacobi import (
    AccessoryIntegrationError,
    AccessorySolution,
    compare_criteria,
    first_conjugate_point,
    solve_accessory,
)
from .variational import (
    Extremal,
    Integrand,
    LegendreError,
    shift,
)

__all__ = [
    "AccessoryIntegrationError",
    "AccessorySolution",
    "BuildInfo",
    "Certificate",
    "EmpiricalReport",
    "EvalDomainError",
    "Expr",
    "Extremal",
    "GeneratorError",
    "GeneratorSpec",
    "Grid",
    "Integrand",
    "LegendreError",
    "MINIMUM_KINDS",
    "ParseError",
    "PerturbationCheck",
    "PerturbationFamily",
    "RANDOM_SPLINE",
    "SINE_BASIS",
    "SampledPath",
    "Verdict",
    "VerdictKind",
    "antiderivative",
    "build",
    "certify",
    "classify",
    "compare_criteria",
    "const",
    "diff",
    "empirical_verify",
    "evaluate",
    "first_conjugate_point",
    "free_vars",
    "friedrichs_coefficient",
    "friedrichs_margin",
    "functional_value",
    "h1_norm_sq",
    "integrate",
    "length_bound",
    "parse",
    "quad_coefficient",
    "sample_corpus",
    "shift",
    "simplify",
    "solve_accessory",
    "substitute",
    "unparse",
    "var",
    "__version__",
]
