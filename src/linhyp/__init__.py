"""linhyp: regular linear hypermaps as finite groups with involution triples.

The package validates linear hypermaps given either as three involutions on
an explicit flag set or as a group plus an ordered involution triple,
computes their surface invariants, and exhaustively classifies the regular
ones on a given group up to isomorphism.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

from .errors import LinhypError, InternalCheckFailed
from .permgroup import (
    ElementSet,
    FiniteGroup,
    GroupAutomorphism,
    Permutation,
    automorphism_group,
    closure,
    conjugate_set,
    generated_subgroup,
    involutions,
    normal_core,
    parse_cycles,
    product_set,
    subgroup_index,
)
from .report import CheckResult, ValidationReport
from .hypermap import (
    CellStructure,
    ConfigurationReport,
    FlagHypermap,
    LinearHypergraph,
    SurfaceInvariant,
    configuration_check,
    extract_cells,
    genus_from_euler,
    orientability,
    surface_invariant,
    underlying_hypergraph,
    validate_hypermap,
)
from .regular import (
    CoreType,
    InvolutionTriple,
    MSequence,
    RegularLinearHypermap,
    core_dichotomy,
    dual,
    is_isomorphic,
    m_sequence,
    to_flag_hypermap,
    triple_from_words,
    validate_regular,
)
from .classify import (
    CensusReport,
    ClassificationResult,
    ClassifiedHypermap,
    admissible_triples,
    canonical_key,
    census,
    classify,
)
from .catalog import CatalogEntry, load_catalog, load_flag_hypermap


# only ``lhm family`` needs the family builders, so they load on first use
_CONSTRUCTIONS = (
    "FamilySpec",
    "RegularMapTriple",
    "build_dihedral_family",
    "build_half_twist_family",
    "digon",
    "matches_sphere_table",
    "medial",
    "platonic_map",
    "simple_graph_check",
)


def __getattr__(name: str):
    if name != "constructions" and name not in _CONSTRUCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import``: its fromlist lookup would call back in here
    constructions = importlib.import_module(".constructions", __name__)
    if name == "constructions":
        return constructions
    value = globals()[name] = getattr(constructions, name)
    return value


__all__ = [
    "LinhypError", "InternalCheckFailed",
    "ElementSet", "FiniteGroup", "GroupAutomorphism", "Permutation",
    "automorphism_group", "closure", "conjugate_set", "generated_subgroup",
    "involutions", "normal_core", "parse_cycles", "product_set",
    "subgroup_index",
    "CheckResult", "ValidationReport",
    "CellStructure", "ConfigurationReport", "FlagHypermap",
    "LinearHypergraph", "SurfaceInvariant", "configuration_check",
    "extract_cells", "genus_from_euler", "orientability", "surface_invariant",
    "underlying_hypergraph", "validate_hypermap",
    "CoreType", "InvolutionTriple", "MSequence", "RegularLinearHypermap",
    "core_dichotomy", "dual", "is_isomorphic", "m_sequence",
    "to_flag_hypermap", "triple_from_words", "validate_regular",
    "CensusReport", "ClassificationResult", "ClassifiedHypermap",
    "admissible_triples", "canonical_key", "census", "classify",
    *_CONSTRUCTIONS,
    "CatalogEntry", "load_catalog", "load_flag_hypermap",
]
