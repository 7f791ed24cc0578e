"""Regular linear hypermaps as a group with an ordered involution triple.

When the three flag involutions generate a group acting regularly on the
flags, the flags can be identified with the group elements and everything
becomes index arithmetic: the triple (r0, r1, r2) determines vertex,
hyperedge and hyperface stabilizers H = <r1,r2>, K = <r0,r2>, L = <r0,r1>,
and the whole invariant vector of the hypermap follows from element orders
(see ``m_sequence``), from one closure of the span S = <r0, r1, r2> and
from the square subgroup G^2, which the group closes once and keeps.  A
generating triple is orientable when some homomorphism G -> Z2 sends each
r_i to the generator.  Every such homomorphism factors through the
elementary abelian G/G^2, so it exists exactly when no odd subset of the
images of r0, r1, r2 sums to zero there: when none of r0, r1, r2 and
r0 r1 r2 lies in G^2.

Admissibility is coded once, in ``_conditions``: the two subgroup
conditions ``H & K = <r2>`` and ``HK & KH = H | K``, then generation from
the closure of S.  It yields the checks cheapest first, because the
subgroup conditions need only the two pair subgroups, which a caller
checking many triples of one group shares through its memo.
``validate_regular`` runs it to the end; ``classify`` and
``admissible_triples`` stop at the first failure.  A hypermap is built
only from a triple that passed, with the memo its check filled, so H and
K are not closed again; the report itself carries only the checks.

Each closure works from the rotations ``ρ = r1 r2`` and ``σ = r0 r2``.
H is dihedral: the powers of ρ, one walk along a table row, and their
products with r1 or r2, one gather; so is K, from σ.  Since
``H = <ρ><r2>`` and ``r2 K = K``, HK is the union of the cosets
``ρ^i K``: k gathers for ``|H| = 2k``, and KH, the inverses of HK, one
gather more.  The span's walk resumes from the largest of H, K and
``L = <r0,r1>`` and adds the third involution.  Every subgroup holding
the triple has a multiple of ``lcm(|H|, |K|, |L|)`` and of each of the
triple's orbit lengths on the points as its order, and S fixes the
points the three involutions fix.  So S lies in ``Y``, the part of the
subgroup M its closure exits name that fixes those points, and the walk
stops once no proper subgroup of Y can hold what it found: S is then Y.

Each triple is checked once, also when a caller validates it and then
builds it.  A group keeps one slot for ``validate_regular`` and
``from_triple``: the memo of its latest check, under the sorted triple.
It holds one triple's closures and never a verdict, so ``from_triple``
right after ``validate_regular`` evaluates all three conditions again but
closes no subgroup.
"""

from __future__ import annotations

import enum
import operator
from math import lcm
from typing import Iterator

from ._frozen import dataclass, field
from .errors import (
    DichotomyViolated,
    GroupMismatch,
    IndexOutOfRange,
    InvalidHypermap,
    InvalidTriple,
    ParseError,
)
from .hypermap import FlagHypermap, genus_from_euler
from .permgroup import (
    ElementSet,
    FiniteGroup,
    Permutation,
    _bits_of,
    _cayley_walk,
    _normal_core,
    automorphism_group,
    parse_cycles,
)
from .report import CheckResult, ValidationReport


@dataclass(frozen=True)
class InvolutionTriple:
    """An ordered triple of distinct involutions, given by element indices."""

    group: FiniteGroup
    r0: int
    r1: int
    r2: int

    def __post_init__(self):
        for i in (self.r0, self.r1, self.r2):
            if not 0 <= i < self.group.order:
                raise IndexOutOfRange(f"element index {i} out of range")
            if not self.group.is_involution_index(i):
                raise InvalidTriple(
                    f"element {self.group.word(i)} does not have order 2")
        if len({self.r0, self.r1, self.r2}) != 3:
            raise InvalidTriple("the three involutions must be distinct")

    @property
    def indices(self) -> tuple[int, int, int]:
        return (self.r0, self.r1, self.r2)

    def words(self) -> tuple[str, str, str]:
        return tuple(self.group.word(i) for i in self.indices)

    def __repr__(self) -> str:
        return "InvolutionTriple(%s; %s; %s)" % self.words()


def triple_from_words(group: FiniteGroup, text: str) -> InvolutionTriple:
    """Parse a semicolon-separated triple literal like ``"(1 2);(1 3);(2 3)"``."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ParseError(
            f"expected three cycle words separated by ';', got {len(parts)}")
    idx = [group.index_of(parse_cycles(p, group.degree)) for p in parts]
    return InvolutionTriple(group, *idx)


@dataclass(frozen=True)
class MSequence:
    """The invariant vector [genus; k,m,n; V,E,F; flags] plus orientability."""

    genus: int
    k: int
    m: int
    n: int
    vertices: int
    hyperedges: int
    hyperfaces: int
    flags: int
    orientable: bool

    @property
    def type(self) -> tuple[int, int, int]:
        return (self.k, self.m, self.n)

    @property
    def proper(self) -> bool:
        return min(self.k, self.m, self.n) >= 3

    def __str__(self) -> str:
        return "[%d;%d,%d,%d;%d,%d,%d;%d]" % (
            self.genus, self.k, self.m, self.n,
            self.vertices, self.hyperedges, self.hyperfaces, self.flags)


class CoreType(enum.Enum):
    """The two possible cores of the vertex stabilizer."""

    TRIVIAL_CORE = "trivial"
    CENTRAL_R2 = "central-r2"


def _least_word(group: FiniteGroup, bits: int) -> str:
    """Cycle notation of the least element in a nonempty bitset."""
    return group.word((bits & -bits).bit_length() - 1)


def _conditions(group: FiniteGroup, r0: int, r1: int, r2: int,
                memo: dict) -> Iterator[CheckResult]:
    """The admissibility checks of ``(r0, r1, r2)``, cheapest first.

    ``memo`` is owned by the caller and shared across triples of one
    group: it keeps each pair subgroup (H and K, and L when a span starts
    from it) as :func:`_pair` builds it under its sorted index pair, each
    span S under its sorted index triple and, under ``("HK", H, K)`` for
    the sorted bitset pair, the elements of ``HK & KH`` outside ``H | K``.
    A failed check names the least such element in its detail.
    """
    h = _pair(group, r1, r2, memo)
    k = _pair(group, r0, r2, memo)
    meet, cyclic = h[0] & k[0], 1 | 1 << r2
    yield CheckResult(
        "stabilizer-intersection", meet == cyclic,
        "" if meet == cyclic else
        f"<r1,r2> meets <r0,r2> in {meet.bit_count()} elements; least "
        f"outside <r2>: {_least_word(group, meet & ~cyclic)}")

    key = ("HK", h[0], k[0]) if h[0] < k[0] else ("HK", k[0], h[0])
    extra = memo.get(key)
    if extra is None:
        extra = memo[key] = _product_excess(group, h, k)
    yield CheckResult(
        "product-intersection", not extra,
        "" if not extra else
        "HK and KH overlap beyond H union K; least outside H union K: "
        + _least_word(group, extra))

    span = _span_bits(group, r0, r1, r2, memo).bit_count()
    yield CheckResult(
        "generates", span == group.order,
        "" if span == group.order else
        f"triple generates a subgroup of order {span} < {group.order}")


def _pair(group: FiniteGroup, a: int, b: int,
          memo: dict) -> tuple[int, list[int], list[int]]:
    """The dihedral group ``<a, b>`` of two involutions, kept in ``memo``
    under the sorted pair ``a < b``: its bitset, its rotations ``ρ^i`` for
    ``ρ = ab``, and its elements, the rotations and then the reflections
    ``aρ^i``, so that a and b come first among those.  One walk along
    table row ρ, then one gather of row a."""
    key = (a, b) if a < b else (b, a)
    pair = memo.get(key)
    if pair is None:
        rotations = group._powers(group.mul(*key))
        elements = [*rotations, *group._left(key[0], rotations)]
        pair = memo[key] = (_bits_of(elements, group.order), rotations,
                            elements)
    return pair


def _product_excess(group: FiniteGroup, h: tuple, k: tuple) -> int:
    """The elements of ``HK & KH`` outside ``H | K``, as a bitset, for two
    pair subgroups as :func:`_pair` keeps them.

    HK is the union of the cosets xK over the rotations x of H: H is its
    rotations times ``<a>`` for either of its generators a, and ``aK = K``
    when a lies in K, as r2 does for a triple's H and K; so HK takes one
    gather of K per rotation of H.  When neither generator of H lies in K,
    ``K | aK`` takes the place of K.  ``(HK)^-1 = KH``, so KH is one more
    gather, of the inverses at HK, and the two product sets are met and
    cut down by set operations in C.
    """
    _, rotations, elements = h
    k_bits, _, ks = k
    a, b = elements[len(rotations):len(rotations) + 2]
    if not (k_bits >> a & 1 or k_bits >> b & 1):
        ks = [*ks, *group._left(a, ks)]
    hk = group._products(rotations, ks)
    hk.intersection_update(operator.itemgetter(*hk)(group._inverse))
    hk.difference_update(elements, k[2])
    return _bits_of(hk, group.order)


def _span_bits(group: FiniteGroup, r0: int, r1: int, r2: int,
               memo: dict) -> int:
    """The span ``S = <r0, r1, r2>`` as a bitset.

    The walk resumes from the largest of the pair subgroups ``H = <r1,r2>``,
    ``K = <r0,r2>`` and ``L = <r0,r1>``: H and K the checks have closed,
    and L is closed, and kept, only when it is the largest.  The third
    involution is then added coset by coset.  S holds H, K and L, so
    ``|S|`` is a multiple of ``lcm(|H|, |K|, |L|)``, and of each length of
    the triple's orbits on the points, which the walk reads first unless
    there are more points than the walk could gather elements; S lies
    in the pointwise stabiliser of the points the triple fixes.  The walk
    stops at the Lagrange exit these give (:meth:`FiniteGroup._closure_bits`).
    A span keeps its exact bits.
    """
    key = tuple(sorted((r0, r1, r2)))
    bits = memo.get(key)
    if bits is None:
        h, k = _pair(group, r1, r2, memo)[2], _pair(group, r0, r2, memo)[2]
        n = group.element_order(group.mul(r0, r1))
        if 2 * n > max(len(h), len(k)):
            start, z = (_pair(group, r0, r1, memo)[2], (r0, r1)), r2
        elif len(h) >= len(k):
            start, z = (h, (r1, r2)), r0
        else:
            start, z = (k, (r0, r2)), r1
        bits = memo[key] = group._closure_bits(
            (z,), None, start, lcm(len(h), len(k), 2 * n))
    return bits


def _orientable(group: FiniteGroup, r0: int, r1: int, r2: int) -> bool:
    """Whether some homomorphism G -> Z2 sends r0, r1 and r2 to the
    generator, for a triple that generates G: exactly when none of r0,
    r1, r2 and r0 r1 r2 lies in the group's kept square subgroup G^2."""
    squares = group._square_bits()
    r012 = group.mul(group.mul(r0, r1), r2)
    return not any(squares >> x & 1 for x in (r0, r1, r2, r012))


def _report(t: InvolutionTriple, memo: dict) -> ValidationReport:
    """Generation plus the two subgroup conditions, as report entries;
    the subgroups the checks close go into ``memo``."""
    checks = {c.name: c for c in _conditions(t.group, *t.indices, memo)}
    return ValidationReport(tuple(checks[name] for name in (
        "generates", "stabilizer-intersection", "product-intersection")))


def _check(t: InvolutionTriple) -> tuple[ValidationReport, dict]:
    """The report of ``t`` and the memo its check filled, kept in the
    group's ``_checked`` slot under the sorted triple.  Checking the same
    three involutions again, in any order, reuses that memo; any other
    triple replaces it with a fresh one.  Each memo entry depends on the
    group alone, so the key only bounds the slot to one triple's closures.
    A passing check also closes ``<r0, r1>``, the one stabilizer its
    hypermap needs that the conditions do not."""
    group, key = t.group, tuple(sorted(t.indices))
    checked = group._checked
    memo = checked[1] if checked is not None and checked[0] == key else {}
    group._checked = (key, memo)
    report = _report(t, memo)
    if report.ok:
        _pair(group, t.r0, t.r1, memo)
    return report, memo


def validate_regular(t: InvolutionTriple) -> ValidationReport:
    """Generation plus the two subgroup conditions, as report entries.

    The group keeps this check's closures, not its verdict, until it
    checks another triple, so ``RegularLinearHypermap.from_triple(t)``
    right after it closes no subgroup."""
    return _check(t)[0]


@dataclass(frozen=True)
class RegularLinearHypermap:
    """A validated triple with its stabilizer subgroups and orientability."""

    triple: InvolutionTriple
    vertex_stabilizer: ElementSet = field(repr=False)
    hyperedge_stabilizer: ElementSet = field(repr=False)
    hyperface_stabilizer: ElementSet = field(repr=False)
    orientable: bool = field(repr=False)

    @classmethod
    def from_triple(cls, t: InvolutionTriple) -> RegularLinearHypermap:
        """Check ``t`` and build its hypermap, or raise ``InvalidHypermap``
        naming each failed check.  The three conditions are evaluated every
        time, from the closures of ``validate_regular(t)`` when that was the
        group's latest check."""
        report, memo = _check(t)
        if not report.ok:
            raise InvalidHypermap(
                "triple is not a regular linear hypermap: "
                + report.failed_summary())
        return cls._of(t, memo)

    @classmethod
    def _of(cls, t: InvolutionTriple, memo: dict) -> RegularLinearHypermap:
        """The hypermap of a triple already known to be admissible, so
        generating G: the one place that builds the stabilizers, and it
        does not check.  H and K come from the ``memo`` of that check, and
        so does L after ``_check`` or when a scan's memo holds ``<r0, r1>``
        already; G^2 is the group's own."""
        g, (r0, r1, r2) = t.group, t.indices
        return cls(
            triple=t,
            vertex_stabilizer=ElementSet(g, _pair(g, r1, r2, memo)[0]),
            hyperedge_stabilizer=ElementSet(g, _pair(g, r0, r2, memo)[0]),
            hyperface_stabilizer=ElementSet(g, _pair(g, r0, r1, memo)[0]),
            orientable=_orientable(g, r0, r1, r2),
        )

    @property
    def group(self) -> FiniteGroup:
        return self.triple.group

    def m_sequence(self) -> MSequence:
        return m_sequence(self)

    def dual(self) -> RegularLinearHypermap:
        return dual(self)

    def core_dichotomy(self) -> CoreType:
        return core_dichotomy(self)

    def to_flag_hypermap(self) -> FlagHypermap:
        return to_flag_hypermap(self)

    def is_isomorphic_to(self, other: RegularLinearHypermap) -> bool:
        return is_isomorphic(self.triple, other.triple)

    def __repr__(self) -> str:
        return "RegularLinearHypermap(%s; %s; %s)" % self.triple.words()


def m_sequence(m: RegularLinearHypermap) -> MSequence:
    """The invariant vector from element orders: the type (k, m, n) is the
    orders of r1r2, r0r2 and r0r1, and two distinct involutions generate a
    dihedral group of twice the order of their product, so |H| = 2k,
    |K| = 2m, |L| = 2n and the cells number |G|/2k, |G|/2m and |G|/2n."""
    g, t = m.group, m.triple
    k = g.element_order(g.mul(t.r1, t.r2))
    mm = g.element_order(g.mul(t.r0, t.r2))
    n = g.element_order(g.mul(t.r0, t.r1))
    v, e, f = (g.order // (2 * x) for x in (k, mm, n))
    chi = v + e + f - g.order // 2
    return MSequence(
        genus=genus_from_euler(chi, m.orientable),
        k=k, m=mm, n=n,
        vertices=v, hyperedges=e, hyperfaces=f,
        flags=g.order, orientable=m.orientable,
    )


def dual(m: RegularLinearHypermap) -> RegularLinearHypermap:
    """Swap the roles of vertices and hyperedges: (r0, r1, r2) -> (r1, r0, r2).

    The swap exchanges H = <r1,r2> and K = <r0,r2>.  Both subgroup
    conditions, H & K = <r2> and HK & KH = H | K, are symmetric in H and K,
    and the swapped triple generates the same group, so the dual of an
    admissible triple is admissible and is not checked again.  This trusts
    ``m`` to have been built by ``from_triple``, ``classify`` or
    :mod:`linhyp.constructions`, which all check admissibility.  The
    stabilizers are m's own: the dual's vertex stabilizer <r0,r2> is m's
    hyperedge stabilizer and vice versa, and <r0,r1> stays the hyperface
    stabilizer, so no subgroup is closed again.  The swapped triple has the
    same span, and r1 r0 r2 lies in the square subgroup exactly when
    r0 r1 r2 does, since the quotient by it is abelian, so orientability
    too carries over.
    """
    t = m.triple
    return RegularLinearHypermap(
        triple=InvolutionTriple(t.group, t.r1, t.r0, t.r2),
        vertex_stabilizer=m.hyperedge_stabilizer,
        hyperedge_stabilizer=m.vertex_stabilizer,
        hyperface_stabilizer=m.hyperface_stabilizer,
        orientable=m.orientable,
    )


def is_isomorphic(t1: InvolutionTriple, t2: InvolutionTriple) -> bool:
    """True iff some group automorphism maps one triple to the other.

    Two generating tuples are related by an automorphism exactly when their
    Cayley codes agree (Conder & Dobcsanyi, JCTB 81, 2001), so a triple
    that generates its group is compared by one walk of each triple over
    the right multiplications: O(|G|) products, with or without a table,
    and no automorphism cap.  A triple that does not generate is compared
    through :func:`~linhyp.permgroup.automorphism_group` and its cap.
    """
    if t1.group is not t2.group:
        raise GroupMismatch("triples live in different groups")
    g = t1.group
    order, code = _cayley_walk(g, t1.indices)
    if len(order) == g.order:
        return _cayley_walk(g, t2.indices, code) is not None
    target = t2.indices
    return any(
        (a.mapping[t1.r0], a.mapping[t1.r1], a.mapping[t1.r2]) == target
        for a in automorphism_group(g))


def core_dichotomy(m: RegularLinearHypermap) -> CoreType:
    """Classify the normal core of the vertex stabilizer.

    Validated hypermaps admit exactly two outcomes: trivial core, or the
    two-element subgroup generated by r2 (in which case r2 is central).
    Any other core is a contradiction and raises.  The stabilizer is a
    dihedral group closed by ``subgroup_bits``, so it is not checked again.
    """
    core = _normal_core(m.group, m.vertex_stabilizer)
    if core.bits == 1:
        return CoreType.TRIVIAL_CORE
    if core.bits == (1 | 1 << m.triple.r2):
        return CoreType.CENTRAL_R2
    raise DichotomyViolated(
        f"core of the vertex stabilizer has order {len(core)}")


def to_flag_hypermap(m: RegularLinearHypermap) -> FlagHypermap:
    """The regular flag representation: flags are group elements, r_i acts
    by right multiplication."""
    return FlagHypermap(*(Permutation(m.group._column(r))
                          for r in m.triple.indices))
