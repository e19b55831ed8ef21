"""Exact-arithmetic double-cross-sum factorisations, semidual Lie
bialgebras and their classical r-matrices, with Bianchi classification."""

from .linalg import Matrix, Tensor3, rat, rat_str, vec
from .lie import (
    LieAlgebra,
    complexify,
    make_lie_algebra,
    null_basis,
    outer,
    so21,
    so3,
    theta,
)
from .factorize import (
    DoubleCrossSum,
    SVSplit,
    adjugate,
    dcs_constants,
    factorization_check,
    lemma_kernel_checks,
    projected_equations,
    quadratic_condition,
    split_sv,
    verify_closure_in_complexification,
)
from .bialgebra import (
    RMatrix,
    coboundary_delta,
    mcybe_check,
    omega,
    r_matrix,
    schouten,
    semidual_algebra,
)
from .solutions import (
    Family,
    SolutionInstance,
    double_solution,
    generalized_kappa,
    kappa_solution,
    large_jordan,
    light_jordan,
    rank_one,
    rho_theta,
    small_jordan,
    standard_sweep,
    zero_solution,
)
from .bianchi import BianchiType, behr_decompose, classify

__all__ = [
    "Matrix", "Tensor3", "rat", "rat_str", "vec",
    "LieAlgebra", "complexify", "make_lie_algebra", "null_basis", "outer",
    "so21", "so3", "theta",
    "DoubleCrossSum", "SVSplit", "adjugate", "dcs_constants",
    "factorization_check", "lemma_kernel_checks", "projected_equations",
    "quadratic_condition", "split_sv", "verify_closure_in_complexification",
    "RMatrix", "coboundary_delta", "mcybe_check", "omega",
    "r_matrix", "schouten", "semidual_algebra",
    "Family", "SolutionInstance", "double_solution", "generalized_kappa",
    "kappa_solution", "large_jordan", "light_jordan", "rank_one", "rho_theta",
    "small_jordan", "standard_sweep", "zero_solution",
    "BianchiType", "behr_decompose", "classify",
]
