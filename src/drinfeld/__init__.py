"""Exact Frobenius invariants of Drinfeld F_q[T]-modules at primes of good
reduction, with brute-force oracles for every computed quantity."""

from .config import SurveyOptions
from .division import (
    AbhyankarPolynomial,
    FrobeniusClassMatrix,
    ModuleStructure,
    abhyankar_poly,
    abhyankar_splits_mod,
    frobenius_class_matrix,
    jm_splits,
    module_structure,
    splits_completely,
)
from .errors import DrinfeldError
from .fields import FFElem, FieldId, FieldTower, frobenius_power, make_extension, norm_to_base
from .invariants import (
    EndLattice,
    InvariantFactors,
    Rank2Invariants,
    WeilPolynomial,
    b_invariants,
    disc_check,
    end_lattice,
    invariant_factors,
    motive_invariant_factors,
    rank2_invariants,
    u_invariant,
    weil_general,
    weil_identity_holds,
    weil_motive,
    weil_rank2,
)
from .modules import DrinfeldModule, ReducedModule, good_reduction_at, psi_of, reduce_at
from .polys import (
    FactorizationA,
    Poly,
    SquarefreeSplit,
    count_monic_irreducibles,
    crt,
    enumerate_monic_irreducibles,
    factorize,
    is_irreducible,
    mobius,
    squarefree_split,
)
from .amatrix import rational_canonical_form, smith_normal_form
from .quotients import QuotElem, QuotRing
from .skew import SkewPoly, skew_commutes, skew_eval, skew_mul, skew_right_divmod
from .survey import (
    DensityEstimate,
    SurveyRecord,
    cm_example,
    density_report,
    noncm_truncated_sum,
    run_survey,
)
from .torsion import TorsionBasis, module_structure_oracle, torsion_basis

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
