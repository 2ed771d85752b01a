"""cliffex: Appell polynomials and the Fueter-Sce transform, exactly.

The package constructs the monogenic Appell sequence P_k^n over the
Clifford algebra Cl(0,n), applies the Fueter-Sce transform to complex
monomials and power series with rational coefficients, and verifies
machine-checkable identities connecting the two: the transformed
monomial z^(k+n-1) equals P_k^n, a simple factorial recurrence decides
when the two series extensions coincide, and the recurrence class has
a generalized hypergeometric closed form.

All identity-level computation is exact (stdlib fractions); floating
point appears only in numeric evaluation and convergence checks.
"""

from .appell import appell_polynomial, appell_property_check, appell_sequence, c_coeff, c_table
from .axial import (
    AxialPolynomial,
    BivariatePoly,
    apply_radial_powers,
    evaluate,
    format_rational,
    radial_lower_even,
    radial_lower_odd,
    text_form,
    vekua_residual,
)
from .clifford import Multivector, Paravector, paravector_power
from .exact import binomial, double_factorial, factorial, pochhammer
from .fueter import (
    BetaTerm,
    MonomialSplit,
    alpha_monomial,
    beta,
    default_alpha,
    fueter_sce_monomial,
    fueter_sce_series,
    monomial_split,
)
from .polycheck import (
    CliffordPolynomial,
    cauchy_riemann_apply,
    from_axial,
    is_monogenic,
)
from .series import (
    BUILTIN_SERIES,
    ClassParameters,
    ComparisonReport,
    ConvergenceError,
    RecurrenceReport,
    SeriesSpec,
    appell_extension,
    closed_form_coefficient,
    closed_form_eval,
    compare_extensions,
    exp_decomposition_check,
    exp_params,
    from_coefficients,
    get_series,
    hypergeometric_1f,
    iterate_recurrence,
    monomial,
    recurrence_check,
    solve_recurrence,
    solve_recurrence_shifted,
)

__version__ = "0.1.0"

__all__ = [
    "AxialPolynomial",
    "BetaTerm",
    "BivariatePoly",
    "BUILTIN_SERIES",
    "ClassParameters",
    "CliffordPolynomial",
    "ComparisonReport",
    "ConvergenceError",
    "MonomialSplit",
    "Multivector",
    "Paravector",
    "RecurrenceReport",
    "SeriesSpec",
    "alpha_monomial",
    "appell_extension",
    "appell_polynomial",
    "appell_property_check",
    "appell_sequence",
    "apply_radial_powers",
    "beta",
    "binomial",
    "c_coeff",
    "c_table",
    "cauchy_riemann_apply",
    "closed_form_coefficient",
    "closed_form_eval",
    "compare_extensions",
    "default_alpha",
    "double_factorial",
    "evaluate",
    "exp_decomposition_check",
    "exp_params",
    "factorial",
    "format_rational",
    "from_axial",
    "from_coefficients",
    "fueter_sce_monomial",
    "fueter_sce_series",
    "get_series",
    "hypergeometric_1f",
    "is_monogenic",
    "iterate_recurrence",
    "monomial",
    "monomial_split",
    "paravector_power",
    "pochhammer",
    "radial_lower_even",
    "radial_lower_odd",
    "recurrence_check",
    "solve_recurrence",
    "solve_recurrence_shifted",
    "text_form",
    "vekua_residual",
]
