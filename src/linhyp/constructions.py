"""Builders for the named hypermap families and polyhedral derivations.

Two infinite dihedral families realize the central-core case, and the five
Platonic symmetry groups yield, through the medial and digon derivations,
every sphere hypermap that is not dihedral.  Platonic triples are pinned in
a checked-in table; the constrained search that discovered them is exposed
so the test suite can re-derive the table from scratch.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from .errors import BadParameter, NotSimple, SearchFailed, UnknownSolid
from .permgroup import (
    CLOSURE_CAP_ENV,
    FiniteGroup,
    Permutation,
    closure,
    closure_cap,
    conjugate_set,
    generated_subgroup,
    involutions,
    parse_cycles,
)
from .regular import InvolutionTriple, MSequence, RegularLinearHypermap, _span


# --- dihedral families ---------------------------------------------------------


def _rotation_reflections(n: int) -> tuple[Permutation, Permutation]:
    """Reflections r0: x -> 1-x and r1: x -> -x on residues mod n."""
    r0 = Permutation([(1 - x) % n for x in range(n)])
    r1 = Permutation([(-x) % n for x in range(n)])
    return r0, r1


def _check_order(order: int, parameter: str) -> None:
    """Refuse a family group over the closure cap before any permutation is
    built, as ``.grp`` files are refused for their ``degree:``."""
    cap = closure_cap()
    if order > cap:
        raise BadParameter(f"{parameter} gives a group of order {order}, over "
                           f"the cap of {cap} ({CLOSURE_CAP_ENV})")


def dihedral_times_z2_group(n: int) -> tuple[FiniteGroup, int, int, int]:
    """The dihedral group on n points with an adjoined central involution.

    Returns the group and the indices of the two reflections and the
    central swap of the two extra points.
    """
    if n < 3:
        raise BadParameter(f"n = {n}; the dihedral family needs n >= 3")
    _check_order(4 * n, f"n = {n}")
    r0, r1 = _rotation_reflections(n)
    r0, r1 = r0.extended(n + 2), r1.extended(n + 2)
    a = parse_cycles(f"({n + 1} {n + 2})", n + 2)
    group = closure([r0, r1, a])
    assert group.order == 4 * n
    return group, group.index_of(r0), group.index_of(r1), group.index_of(a)


def build_dihedral_family(n: int, variant: str = "m1") -> RegularLinearHypermap:
    """The two hypermap families on the dihedral-times-Z2 groups.

    Variant ``m1`` is the sphere family (any n >= 3); variant ``m2``
    replaces r1 by r1*r2 and lands on the projective plane (odd n only).
    """
    variant = variant.lower()
    if variant not in ("m1", "m2"):
        raise BadParameter(f"unknown variant {variant!r}; expected m1 or m2")
    group, r0, r1, a = dihedral_times_z2_group(n)
    if variant == "m1":
        triple = InvolutionTriple(group, r0, r1, a)
    else:
        if n % 2 == 0:
            raise BadParameter(f"variant m2 requires odd n, got {n}")
        triple = InvolutionTriple(group, r0, group.mul(r1, a), a)
    return RegularLinearHypermap.from_triple(triple)


@dataclass(frozen=True)
class FamilySpec:
    """A parsed family request: which family plus its parameter.

    ``family`` is one of ``z2xd2n`` (parameter n, optional variant m2),
    ``d2m`` (parameter m) or ``platonic`` (parameter is the solid name).
    """

    family: str
    n: int | None = None
    m: int | None = None
    variant: str = "m1"
    solid: str | None = None

    def build(self) -> RegularLinearHypermap | RegularMapTriple:
        if self.family == "z2xd2n":
            if self.n is None:
                raise BadParameter("family z2xd2n needs the parameter n")
            return build_dihedral_family(self.n, self.variant)
        if self.family == "d2m":
            if self.m is None:
                raise BadParameter("family d2m needs the parameter m")
            return build_half_twist_family(self.m)
        if self.family == "platonic":
            if self.solid is None:
                raise BadParameter("family platonic needs a solid name")
            return platonic_map(self.solid)
        raise BadParameter(f"unknown family {self.family!r}")


def build_half_twist_family(m: int) -> RegularLinearHypermap:
    """The dihedral family with the central rotation (r0 r1)^(m/2) as r2.

    Only multiples of 4 are built: for m = 2 mod 4 the group splits as a
    direct product and the hypermap duplicates the odd m2 family, so those
    parameters are rejected rather than silently remapped.
    """
    if m < 6 or m % 4 != 0:
        raise BadParameter(
            f"m = {m}; the half-twist family needs m >= 6 with 4 | m")
    _check_order(2 * m, f"m = {m}")
    r0, r1 = _rotation_reflections(m)
    group = closure([r0, r1])
    assert group.order == 2 * m
    half_turn = Permutation([(x + m // 2) % m for x in range(m)])
    assert half_turn == (r0 * r1) ** (m // 2)
    triple = InvolutionTriple(
        group, group.index_of(r0), group.index_of(r1),
        group.index_of(half_turn))
    return RegularLinearHypermap.from_triple(triple)


# --- Platonic maps ---------------------------------------------------------------


PLATONIC_SCHLAFLI: dict[str, tuple[int, int]] = {
    "tetrahedron": (3, 3),
    "cube": (4, 3),
    "octahedron": (3, 4),
    "dodecahedron": (5, 3),
    "icosahedron": (3, 5),
}

# generator words for the full symmetry group of each solid, by family
_SYMMETRY_GENERATORS: dict[str, tuple[int, tuple[str, ...]]] = {
    "tetrahedron": (4, ("(1 2)", "(1 2 3 4)")),
    "cube": (6, ("(1 2)", "(1 2 3 4)", "(5 6)")),
    "octahedron": (6, ("(1 2)", "(1 2 3 4)", "(5 6)")),
    "dodecahedron": (7, ("(1 2 3 4 5)", "(1 2 3)", "(6 7)")),
    "icosahedron": (7, ("(1 2 3 4 5)", "(1 2 3)", "(6 7)")),
}

# triples found by search_platonic_triple; the test suite re-derives these
_PLATONIC_TRIPLES: dict[str, tuple[str, str, str]] = {
    "tetrahedron": ("(3 4)", "(2 3)", "(1 2)"),
    "cube": ("(1 2)(3 4)(5 6)", "(2 3)", "(3 4)"),
    "octahedron": ("(3 4)", "(2 3)", "(1 2)(3 4)(5 6)"),
    "dodecahedron": ("(2 3)(4 5)(6 7)", "(1 2)(3 4)(6 7)", "(2 5)(3 4)(6 7)"),
    "icosahedron": ("(2 3)(4 5)(6 7)", "(1 2)(4 5)(6 7)", "(2 4)(3 5)(6 7)"),
}

_group_cache: dict[tuple[int, tuple[str, ...]], FiniteGroup] = {}
_group_cache_lock = threading.Lock()


def _symmetry_group(solid: str) -> FiniteGroup:
    """The solid's symmetry group, built once and shared by every caller."""
    degree, words = _SYMMETRY_GENERATORS[solid]
    key = (degree, words)
    with _group_cache_lock:
        if key not in _group_cache:
            _group_cache[key] = closure(
                [parse_cycles(w, degree) for w in words])
        return _group_cache[key]


@dataclass(frozen=True)
class RegularMapTriple:
    """A polyhedral map: |r0 r1| = face size p, |r1 r2| = vertex valency q."""

    group: FiniteGroup
    r0: int
    r1: int
    r2: int
    schlafli: tuple[int, int]

    @property
    def indices(self) -> tuple[int, int, int]:
        return (self.r0, self.r1, self.r2)

    def words(self) -> tuple[str, str, str]:
        return tuple(self.group.word(i) for i in self.indices)


def simple_graph_check(t: RegularMapTriple) -> bool:
    """Certificate that the map's underlying graph is simple.

    Requires |<r0,r2>| = 4, the vertex and edge stabilizers meeting in
    <r2> alone, and the vertex stabilizer meeting its r0-conjugate in
    <r2> alone (no two vertices joined by a double edge).
    """
    g = t.group
    h = generated_subgroup(g, [t.r1, t.r2])
    k = generated_subgroup(g, [t.r0, t.r2])
    pair = 1 | 1 << t.r2
    if len(k) != 4:
        return False
    if h.bits & k.bits != pair:
        return False
    conj = conjugate_set(g, h, t.r0)
    return h.bits & conj.bits == pair


def _is_simple_platonic(t: RegularMapTriple) -> bool:
    """|r0 r1| = p, |r0 r2| = 2, |r1 r2| = q, generation and a simple
    underlying graph, cheapest first."""
    g, (p, q) = t.group, t.schlafli
    return (g.element_order(g.mul(t.r0, t.r1)) == p
            and g.element_order(g.mul(t.r0, t.r2)) == 2
            and g.element_order(g.mul(t.r1, t.r2)) == q
            and _span(g, *t.indices, {}) == g.order
            and simple_graph_check(t))


def search_platonic_triple(group: FiniteGroup, p: int, q: int
                           ) -> tuple[int, int, int] | None:
    """First involution triple (lex order) realizing a simple {p, q} map."""
    return next((c for c in itertools.permutations(involutions(group), 3)
                 if _is_simple_platonic(RegularMapTriple(group, *c, (p, q)))),
                None)


def platonic_map(solid: str) -> RegularMapTriple:
    """The pinned regular map of one of the five Platonic solids."""
    solid = solid.lower()
    if solid not in PLATONIC_SCHLAFLI:
        raise UnknownSolid(
            f"{solid!r}; expected one of {sorted(PLATONIC_SCHLAFLI)}")
    group = _symmetry_group(solid)
    r0, r1, r2 = (group.index_of(parse_cycles(w, group.degree))
                  for w in _PLATONIC_TRIPLES[solid])
    t = RegularMapTriple(group, r0, r1, r2, PLATONIC_SCHLAFLI[solid])
    if not _is_simple_platonic(t):
        raise SearchFailed(
            f"pinned triple for {solid} fails verification; "
            "the group realization is wrong")
    return t


def medial(t: RegularMapTriple) -> RegularLinearHypermap:
    """Hyperedges around the map's vertices: the triple with r0, r1 swapped."""
    if not simple_graph_check(t):
        raise NotSimple("medial derivation needs a simple underlying graph")
    return RegularLinearHypermap.from_triple(
        InvolutionTriple(t.group, t.r1, t.r0, t.r2))


def digon(t: RegularMapTriple) -> RegularLinearHypermap:
    """Each map edge becomes a two-valent hyperedge: the triple unchanged."""
    if not simple_graph_check(t):
        raise NotSimple("digon derivation needs a simple underlying graph")
    return RegularLinearHypermap.from_triple(
        InvolutionTriple(t.group, t.r0, t.r1, t.r2))


# --- the sphere table ------------------------------------------------------------

# all M-sequences a sphere hypermap can have, beyond the dihedral family
_SPHERE_ROWS: frozenset[tuple[int, ...]] = frozenset({
    (0, 3, 2, 3, 4, 6, 4, 24),
    (0, 2, 3, 3, 6, 4, 4, 24),
    (0, 3, 2, 4, 8, 12, 6, 48),
    (0, 2, 3, 4, 12, 8, 6, 48),
    (0, 4, 2, 3, 6, 12, 8, 48),
    (0, 2, 4, 3, 12, 6, 8, 48),
    (0, 3, 2, 5, 20, 30, 12, 120),
    (0, 2, 3, 5, 30, 20, 12, 120),
    (0, 5, 2, 3, 12, 30, 20, 120),
    (0, 2, 5, 3, 30, 12, 20, 120),
})


def matches_sphere_table(ms: MSequence) -> bool:
    """True iff the sequence is one a sphere hypermap can have.

    Besides the ten exceptional rows there is the dihedral family
    [0;2,2,j;j,j,2;4j] with j >= 3; every sphere sequence has at least
    12 flags.
    """
    if ms.genus != 0 or not ms.orientable or ms.flags < 12:
        return False
    row = (ms.genus, ms.k, ms.m, ms.n,
           ms.vertices, ms.hyperedges, ms.hyperfaces, ms.flags)
    if row in _SPHERE_ROWS:
        return True
    j = ms.flags // 4
    return (ms.flags == 4 * j and j >= 3
            and (ms.k, ms.m, ms.n) == (2, 2, j)
            and (ms.vertices, ms.hyperedges, ms.hyperfaces) == (j, j, 2))
