"""Finite-group character toolkit: exact cyclotomics, class functions,
induction/restriction, Mackey decomposition, and Galois conjugation."""

from .campaigns import (
    SUITE_NAMES,
    CampaignReport,
    frobenius_campaign,
    invariance_campaign,
    mackey_campaign,
    random_brauer_spec,
    suite_groups,
)
from .characters import (
    BrauerSpec,
    BrauerSummand,
    CharacterError,
    ClassFunction,
    InvarianceReport,
    MackeyReport,
    brauer_combination,
    induce,
    inner_product,
    is_irreducible,
    linear_character_of_cyclic,
    mackey_check,
    restrict,
    verify_conjugation_invariance,
)
from .cyclotomic import Cyclo, cyclotomic_polynomial
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GroupError,
    Subgroup,
    builtin_group,
    conjugate_subgroup,
    cyclic,
    dihedral,
    double_cosets,
    full_subgroup,
    generated_subgroup,
    load_group,
    quaternion,
    symmetric,
    trivial_subgroup,
)
