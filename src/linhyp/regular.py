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
"""

from __future__ import annotations

import enum
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
    _bit_indices,
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
    group: it keeps each pair subgroup (H and K) under its sorted index
    pair, each span S under its sorted index triple and, under
    ``("HK", H, K)`` for the sorted bitset pair, the elements of
    ``HK & KH`` outside ``H | K``.  A failed check names the
    least such element in its detail.
    """
    h = _pair_bits(group, r1, r2, memo)
    k = _pair_bits(group, r0, r2, memo)
    meet, cyclic = h & k, 1 | 1 << r2
    yield CheckResult(
        "stabilizer-intersection", meet == cyclic,
        "" if meet == cyclic else
        f"<r1,r2> meets <r0,r2> in {meet.bit_count()} elements; least "
        f"outside <r2>: {_least_word(group, meet & ~cyclic)}")

    key = ("HK", h, k) if h < k else ("HK", k, h)
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


def _product_excess(group: FiniteGroup, h: int, k: int) -> int:
    """The elements of ``HK & KH`` outside ``H | K``, as a bitset.

    KH holds the inverses of the elements of HK, so x lies in both exactly
    when x and x^-1 lie in HK: one product set is enough.
    """
    hs, ks = _bit_indices(h), _bit_indices(k)
    hk, inverse = group._products(hs, ks), group._inverse
    extra = 0
    for x in hk.difference(hs, ks):
        if inverse[x] in hk:
            extra |= 1 << x
    return extra


def _pair_bits(group: FiniteGroup, a: int, b: int, memo: dict) -> int:
    """The dihedral group ``<a, b>`` as a bitset, closed from its rotation:
    one cyclic stage, then one coset gather."""
    key = (a, b) if a < b else (b, a)
    bits = memo.get(key)
    if bits is None:
        bits = memo[key] = group.subgroup_bits((group.mul(*key), key[0]))
    return bits


def _span_bits(group: FiniteGroup, r0: int, r1: int, r2: int,
               memo: dict) -> int:
    """The span ``S = <r0, r1, r2>`` as a bitset.

    The closure leads with the product ``x*y`` of largest order among
    r1r2, r0r2 and r0r1, then ``x``, so that the third involution ``z``
    is added by walking the cosets of the largest dihedral pair subgroup
    ``<x, y>``, one step each.
    """
    key = tuple(sorted((r0, r1, r2)))
    bits = memo.get(key)
    if bits is None:
        x, y, z = max(((r1, r2, r0), (r0, r2, r1), (r0, r1, r2)),
                      key=lambda p: group.element_order(group.mul(p[0], p[1])))
        bits = memo[key] = group.subgroup_bits((group.mul(x, y), x, z))
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


def validate_regular(t: InvolutionTriple) -> ValidationReport:
    """Generation plus the two subgroup conditions, as report entries."""
    return _report(t, {})


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
        memo: dict = {}
        report = _report(t, memo)
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
        so does L when a scan's memo holds ``<r0, r1>`` already; G^2 is
        the group's own."""
        g, (r0, r1, r2) = t.group, t.indices
        return cls(
            triple=t,
            vertex_stabilizer=ElementSet(g, _pair_bits(g, r1, r2, memo)),
            hyperedge_stabilizer=ElementSet(g, _pair_bits(g, r0, r2, memo)),
            hyperface_stabilizer=ElementSet(g, _pair_bits(g, r0, r1, memo)),
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
