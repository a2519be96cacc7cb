"""Finite multiplicative groups, hexagon nullsets, and the hyperfields
they reconstruct: enumeration, sampling, censuses, quotient recognition,
products, and the non-commutative orbit counts.
"""

from .batch import (EVENT_NAMES, Kernels, ints_to_bits, kernels_for,
                    pasture_verdicts)
from .errors import CapacityError
from .galois import (FiniteField, QuotientSpec, QuotientVerdict, build_field,
                     factor_prime_power, is_quotient_of_finite_field,
                     one_minus_one_is_everything, quotient_hyperfield)
from .groups import (AbelianGroup, GroupAutomorphism, GroupElement,
                     abelian_groups_up_to, automorphisms_fixing)
from .hexagons import HexagonTable, build_table, hexagon_count_formula
from .lottery import (Census, ClassRow, Estimate, LotterySpec, census,
                      class_table, estimate, sample_bits, sample_pasture,
                      thread_count, wilson_interval)
from .morphisms import (CanonicalForm, are_isomorphic, canonical_form,
                        is_morphism, pasture_automorphisms)
from .pastures import (AdditionTable, Pasture, all_pastures, axiom_oracle,
                       fetvins_exhaustive, field_f2, field_f3,
                       is_hyperfield_fast, krasner, reconstruct_addition,
                       satisfies_star, sign_hyperfield)
from .products import product, product_group, product_theorem_verdict
from .serialize import (dumps_pasture, load_pasture_file, loads_pasture,
                        pasture_from_dict, pasture_to_dict)
from .skew import (BUILTIN_GROUPS, CayleyGroup, alternating_4,
                   burnside_orbit_count, dihedral, from_abelian, quaternion_8,
                   skew_axiom_oracle, skew_bound, skew_hexagons, symmetric_3)

__all__ = [
    "AbelianGroup", "AdditionTable", "BUILTIN_GROUPS", "CanonicalForm",
    "CapacityError", "CayleyGroup", "Census", "ClassRow",
    "EVENT_NAMES", "Estimate", "FiniteField", "GroupAutomorphism",
    "GroupElement", "HexagonTable", "Kernels", "LotterySpec",
    "Pasture", "QuotientSpec", "QuotientVerdict",
    "abelian_groups_up_to", "all_pastures",
    "alternating_4", "are_isomorphic", "automorphisms_fixing", "axiom_oracle",
    "build_field", "build_table", "burnside_orbit_count",
    "canonical_form", "census", "class_table", "dihedral", "dumps_pasture",
    "estimate", "factor_prime_power", "fetvins_exhaustive", "field_f2",
    "field_f3", "from_abelian", "hexagon_count_formula",
    "ints_to_bits", "is_hyperfield_fast", "is_morphism",
    "is_quotient_of_finite_field", "kernels_for", "krasner",
    "load_pasture_file", "loads_pasture", "one_minus_one_is_everything",
    "pasture_automorphisms", "pasture_from_dict", "pasture_to_dict",
    "pasture_verdicts", "product", "product_group",
    "product_theorem_verdict", "quaternion_8",
    "quotient_hyperfield", "reconstruct_addition", "sample_bits",
    "sample_pasture", "satisfies_star", "sign_hyperfield", "skew_axiom_oracle",
    "skew_bound", "skew_hexagons", "symmetric_3", "thread_count",
    "wilson_interval",
]
