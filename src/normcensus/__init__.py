"""Integral-point census for binary norm equations over real quadratic fields.

Decides integral solvability of N(a1*x + a2*y) = m through a character-sum
criterion on the narrow class group, predicts the logarithmic growth rate of
the integral point count, and cross-validates both against exact orbit-based
counts.
"""

from .arith import (
    Factorization,
    InvariantError,
    factorize,
    hilbert_symbol,
    is_perfect_square,
    is_prime,
    kronecker,
    sqrt_mod_prime_power,
)
from .quadfield import FieldData, QuadElem, field_data
from .classgroup import (
    Form,
    NarrowClassGroup,
    class_group,
    compose,
    frobenius_class,
    reduce_form,
    sign_class,
)
from .census import (
    CensusVerdict,
    EquationSpec,
    c_m,
    equation_spec,
    neg_pell_solvable,
    verdict,
)
from .counting import (
    SolutionOrbits,
    fundamental_solutions,
)
from .localdata import (
    arch_volume_hyperbola,
    lemvol_coefficient,
    local_density,
    locally_solvable,
)
from .hassewitt import (
    CnaReport,
    QuadraticSpace,
    arch_h_limit,
    c_n_a,
    diagonalize,
    hasse_invariant,
    isometry_count_mod8,
)

__all__ = [
    "Factorization",
    "InvariantError",
    "factorize",
    "hilbert_symbol",
    "is_perfect_square",
    "is_prime",
    "kronecker",
    "sqrt_mod_prime_power",
    "FieldData",
    "QuadElem",
    "field_data",
    "Form",
    "NarrowClassGroup",
    "class_group",
    "compose",
    "frobenius_class",
    "reduce_form",
    "sign_class",
    "CensusVerdict",
    "EquationSpec",
    "c_m",
    "equation_spec",
    "neg_pell_solvable",
    "verdict",
    "SolutionOrbits",
    "fundamental_solutions",
    "arch_volume_hyperbola",
    "lemvol_coefficient",
    "local_density",
    "locally_solvable",
    "CnaReport",
    "QuadraticSpace",
    "arch_h_limit",
    "c_n_a",
    "diagonalize",
    "hasse_invariant",
    "isometry_count_mod8",
]
