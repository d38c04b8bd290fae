"""Screening group orders for insolvable regular subgroups of holomorphs.

The package has three layers.  The bottom layer is finite group machinery
over explicit multiplication tables: permutation groups listed by
closure (:mod:`.perms`), group tables and homomorphisms (:mod:`.tables`),
subgroup lattices (:mod:`.lattice`), automorphism groups
(:mod:`.automorphisms`), and isomorphism testing (:mod:`.isomorphism`).
The middle layer builds holomorphs and enumerates their regular subgroups
(:mod:`.holomorph`) with one search kernel (:mod:`._kernel`).  The top
layer is the arithmetic order classifier (:mod:`.numbers`), the group
corpus format (:mod:`.corpus`), the screening pipeline
(:mod:`.screening`), and the command line (:mod:`.cli`).
"""

__version__ = "0.1.0"

from ._kernel import BACKEND_NAME, HAVE_COMPILED
from .automorphisms import (AutGroup, automorphism_group,
                            characteristic_subgroups, inner_and_outer)
from .corpus import (CorpusManifest, CorpusReport, GroupRecord, construct,
                     corpus_hash, load_group, load_manifest, parse_group_text,
                     regular_generators, save_group, serialize_group,
                     validate_corpus, write_index)
from .errors import CapExceeded, CorpusError, HoloscreenError
from .holomorph import (DEFAULT_NODE_BUDGET, HOL_ORDER_CAP, HolomorphGroup,
                        RegularClass, RegularEnumeration,
                        enumerate_regular_subgroups, holomorph,
                        subgroup_table)
from .isomorphism import are_isomorphic
from .lattice import SUBGROUP_CAP, all_subgroups, fitting_subgroup
from .numbers import (DoublingFamilyConditions, OrderClassification,
                      SimpleOrderTable, SuzukiExponentCheck, classify_order,
                      default_table, doubling_family_base,
                      doubling_family_conditions, is_cube_free,
                      is_solvable_number, square_free_status,
                      suzuki_exponent_check, suzuki_order, wieferich_scan)
from .perms import PermutationGroup
from .screening import (GroupTrace, ScreenReport, SubgroupOrderSets,
                        build_order_sets, render_report, screen_order)
from .tables import GroupTable, Homomorphism, Subgroup, from_permutation_group

__all__ = [
    "AutGroup", "BACKEND_NAME", "CapExceeded", "CorpusError",
    "CorpusManifest", "CorpusReport", "DEFAULT_NODE_BUDGET",
    "DoublingFamilyConditions", "GroupRecord", "GroupTable", "GroupTrace",
    "HAVE_COMPILED", "HOL_ORDER_CAP", "HolomorphGroup", "HoloscreenError",
    "Homomorphism", "OrderClassification", "PermutationGroup", "RegularClass",
    "RegularEnumeration", "SUBGROUP_CAP",
    "ScreenReport", "SimpleOrderTable", "Subgroup", "SubgroupOrderSets",
    "SuzukiExponentCheck", "all_subgroups", "are_isomorphic",
    "automorphism_group", "build_order_sets", "characteristic_subgroups",
    "classify_order", "construct", "corpus_hash", "default_table",
    "doubling_family_base", "doubling_family_conditions",
    "enumerate_regular_subgroups", "fitting_subgroup",
    "from_permutation_group", "holomorph", "inner_and_outer", "is_cube_free",
    "is_solvable_number", "load_group", "load_manifest", "parse_group_text",
    "regular_generators", "render_report", "save_group", "screen_order",
    "serialize_group", "square_free_status", "subgroup_table",
    "suzuki_exponent_check", "suzuki_order", "validate_corpus",
    "wieferich_scan", "write_index",
]
