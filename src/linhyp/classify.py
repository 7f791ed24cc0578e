"""Exhaustive classification of regular linear hypermaps on a group.

A triple is admissible when its three distinct involutions generate the
group and pass both subgroup conditions.  Its canonical key is the
lexicographically least image of the triple under the automorphism group
``Aut(G)``, and the classes are the ``Aut``-orbits.  Only the identity
automorphism fixes a generating triple, so ``Aut(G)`` and its subgroup
``Inn(G)`` act freely on admissible triples.

``classify`` scans under ``Inn(G)``, which costs one ``_conjugates`` call
per element instead of an automorphism search.  A triple is least in its
``Inn``-orbit exactly when ``r0`` is least in its orbit on involutions,
``r1`` least in its orbit under the stabiliser of ``r0``, and ``r2`` least
in its orbit under the stabiliser of ``r0`` and ``r1``; the scan walks this
chain and checks admissibility only for the triples that pass all three
filters.  Two generating triples lie in one ``Aut``-orbit exactly when
their Cayley codes agree (Conder & Dobcsanyi, JCTB 81, 2001), so the
admissible survivors split by code into the classes, ``|Out(G)|``
survivors each, and the least survivor of a code is its class's key.  So
``|Aut| = |Out| * |Inn|`` comes from the codes too.

Admissibility itself is coded once, in :mod:`linhyp.regular`, as a lazy
stream of checks, cheapest first; the scan and the brute-force
``admissible_triples`` oracle each share one memo of pair subgroups and
product verdicts per group and drop a triple at its first failed check.
Each class is built from its checked key without a second check, reading
its vertex and hyperedge stabilisers and its span from the memo; its
orientability comes from the group's square subgroup ``G^2``, which
:func:`_may_have_classes` closes before the scan and the group keeps.

Only a group with no classes leaves ``|Aut|`` unknown; it alone calls
:func:`~linhyp.permgroup.automorphism_group`, which keeps the 2048-element
cap.  ``classify`` takes groups of up to ``TABLE_LIMIT`` (4096) elements, a
bound on cost: its reads fall back to ``mul`` without the dense table, but
``_inner_rows`` builds a conjugation row per element.  It visits at most
``4 * 2048**2 / |G|`` triples: a group with more Inn-orbits of involution
triples, such as the dihedral group of order 512, raises
``GroupTooLargeForAut``.  The ``jobs`` argument is accepted for
compatibility; the scan runs in one process and its output never depends
on ``jobs``.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from typing import Iterator, Sequence

from ._frozen import dataclass, field
from .errors import (
    GroupTooLarge,
    GroupTooLargeForAut,
    InternalCheckFailed,
    LinhypError,
)
from .permgroup import (
    DEFAULT_AUT_CAP,
    TABLE_LIMIT,
    FiniteGroup,
    _cayley_walk,
    automorphism_group,
    involutions,
)
from .regular import (
    InvolutionTriple,
    MSequence,
    RegularLinearHypermap,
    _conditions,
)


def canonical_key(t: InvolutionTriple) -> tuple[int, int, int]:
    """Least image tuple of the triple over all group automorphisms."""
    auts = automorphism_group(t.group)
    r0, r1, r2 = t.indices
    return min((a.mapping[r0], a.mapping[r1], a.mapping[r2]) for a in auts)


def admissible_triples(group: FiniteGroup) -> Iterator[InvolutionTriple]:
    """All ordered involution triples that define a regular linear hypermap,
    in lexicographic order: the brute-force oracle for :func:`classify`."""
    memo: dict = {}
    for r0, r1, r2 in itertools.permutations(involutions(group), 3):
        if all(c.passed for c in _conditions(group, r0, r1, r2, memo)):
            yield InvolutionTriple(group, r0, r1, r2)


@dataclass(frozen=True)
class ClassifiedHypermap:
    """One isomorphism class: its canonical representative and invariants."""

    hypermap: RegularLinearHypermap
    canonical_key: tuple[int, int, int]
    orbit_size: int
    m_seq: MSequence

    @property
    def triple(self) -> InvolutionTriple:
        return self.hypermap.triple

    @property
    def m_sequence(self) -> MSequence:
        return self.m_seq


@dataclass(frozen=True)
class ClassificationResult:
    group_name: str
    group: FiniteGroup = field(repr=False)
    classes: tuple[ClassifiedHypermap, ...]
    admissible_triple_count: int
    aut_group_size: int

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _orbit_minima(rows: list[tuple[int, ...]], points: list[int]) -> list[int]:
    """Positions in ``points`` of the points least in their orbit.

    ``rows[a][i]`` is the image of ``points[i]`` under automorphism ``a``.
    """
    return [i for i, (least, p) in enumerate(zip(map(min, zip(*rows)), points))
            if least == p]


def _self_canonical_triples(rows: list[tuple[int, ...]], invs: list[int]
                            ) -> Iterator[tuple[int, int, int]]:
    """Distinct involution triples least in their orbit under ``rows``, in
    order; ``rows[a][i]`` is the image of ``invs[i]`` under automorphism
    ``a``."""
    for i0 in _orbit_minima(rows, invs):
        p0 = invs[i0]
        stab0 = [r for r in rows if r[i0] == p0]
        for i1 in _orbit_minima(stab0, invs):
            if i1 == i0:
                continue
            p1 = invs[i1]
            stab01 = [r for r in stab0 if r[i1] == p1]
            for i2 in _orbit_minima(stab01, invs):
                if i2 != i0 and i2 != i1:
                    yield p0, p1, invs[i2]


def _inner_rows(group: FiniteGroup, invs: list[int]) -> list[tuple[int, ...]]:
    """Conjugation of the involutions by each g, one row per inner
    automorphism.  Rows repeat along the cosets of the centraliser of the
    involutions, Z(G) when they generate G: ``|G| / |Z(G)|`` distinct rows."""
    return list(dict.fromkeys(group._conjugates(g, invs)
                              for g in range(group.order)))


def _may_have_classes(group: FiniteGroup, invs: list[int]) -> bool:
    """False when no three involutions can generate the group.

    The squares generate a normal subgroup G^2 with G/G^2 elementary
    abelian, and an admissible triple maps onto three generators of it, so
    ``|G : G^2| <= 8``.  This keeps groups like Z2^k with k > 3, which have
    many involutions and a trivial Inn, out of the scan.
    """
    return (len(invs) >= 3
            and group.order <= 8 * group._square_bits().bit_count())


# Each triple the scan visits costs O(|G|) and may leave |G|-bit subgroups
# in the memo, so, as automorphism_group bounds |Aut| * |G| by 2048^2, the
# scan bounds its visits times |G|, by four times that: s6xz2 comes to
# 1.1e7, while a dihedral group of order 512 (refused by the enumeration
# too) would visit 65538 triples, 3.4e7.
_SCAN_WORK = 4 * DEFAULT_AUT_CAP ** 2


def _scan_refused(group: FiniteGroup, limit: int) -> GroupTooLargeForAut:
    return GroupTooLargeForAut(
        f"the Inn(G) scan of |G| = {group.order} would visit more than "
        f"{limit} triples, its work cap of 4 * {DEFAULT_AUT_CAP}^2 / |G|")


def classify(group: FiniteGroup, group_name: str = "",
             jobs: int = 1) -> ClassificationResult:
    """One representative per automorphism orbit of admissible triples.

    Scans the triples least in their ``Inn(G)``-orbit and splits the
    admissible ones by Cayley code (see the module docstring), so every
    class is a code, its key is the least survivor with that code, and the
    classes come out sorted by key.  ``jobs`` is accepted and ignored; the
    result never depends on it.
    """
    if not group.has_table:
        raise GroupTooLarge(f"|G| = {group.order} exceeds the table limit "
                            f"{TABLE_LIMIT} that classify needs")
    invs, rows = involutions(group), []
    limit = _SCAN_WORK // group.order
    if _may_have_classes(group, invs):
        # one visit per Inn-orbit of distinct triples, so at least
        # m(m-1)(m-2) / |G| of them for m involutions, as |Inn| <= |G|
        m = len(invs)
        if m * (m - 1) * (m - 2) // group.order > limit:
            raise _scan_refused(group, limit)
        rows = _inner_rows(group, invs)
    memo: dict = {}
    # each code packed in 16 bits a step: walk positions stay below |G|
    survivors: dict[bytes, list[tuple[int, int, int]]] = {}
    # without rows _orbit_minima finds no point, so nothing is visited
    for visits, key in enumerate(_self_canonical_triples(rows, invs), 1):
        if visits > limit:
            raise _scan_refused(group, limit)
        if all(c.passed for c in _conditions(group, *key, memo)):
            code = _cayley_walk(group, key)[1]
            survivors.setdefault(array("H", code).tobytes(), []).append(key)
    if survivors:
        out = {len(keys) for keys in survivors.values()}
        if len(out) != 1:
            raise InternalCheckFailed(
                f"Cayley codes with unequal survivor counts {sorted(out)}: "
                "Aut(G) does not act freely on admissible triples")
        aut_size = out.pop() * len(rows)
    else:
        aut_size = len(automorphism_group(group))
    classes = []
    for key in sorted(keys[0] for keys in survivors.values()):
        hm = RegularLinearHypermap._of(InvolutionTriple(group, *key), memo)
        classes.append(ClassifiedHypermap(
            hypermap=hm,
            canonical_key=key,
            orbit_size=aut_size,
            m_seq=hm.m_sequence(),
        ))
    return ClassificationResult(
        group_name=group_name,
        group=group,
        classes=tuple(classes),
        admissible_triple_count=len(classes) * aut_size,
        aut_group_size=aut_size,
    )


# --- census -------------------------------------------------------------------


@dataclass(frozen=True)
class GroupCensusStatus:
    name: str
    order: int
    error: str = ""
    classes_total: int = 0
    classes_matching: int = 0

    @property
    def ok(self) -> bool:
        return not self.error


COVERAGE_NOTE = (
    "Counts cover only the groups supplied in the catalog.  A complete "
    "per-genus census requires enumerating every admissible group order "
    "from an external small-groups database; these totals must not be read "
    "as complete per-genus counts."
)


@dataclass(frozen=True)
class CensusReport:
    """Per-genus class counts over a catalog of groups, with filters."""

    proper_only: bool
    orientable_only: bool
    genus_range: tuple[int, int] | None
    per_genus_orientable: dict[int, int]
    per_genus_non_orientable: dict[int, int]
    per_group: tuple[GroupCensusStatus, ...]
    coverage_note: str = COVERAGE_NOTE

    def filters(self) -> dict:
        return {
            "proper": self.proper_only,
            "orientable": self.orientable_only,
            "genus_range": list(self.genus_range) if self.genus_range else None,
        }


def _passes_filters(ms: MSequence, proper_only: bool, orientable_only: bool,
                    genus_range: tuple[int, int] | None) -> bool:
    if proper_only and not ms.proper:
        return False
    if orientable_only and not ms.orientable:
        return False
    if genus_range is not None and not genus_range[0] <= ms.genus <= genus_range[1]:
        return False
    return True


def genus_upper_bound(order: int, orientable_only: bool) -> int:
    """Largest genus any hypermap with this flag count could reach.

    From the Euler count, 4g - 4 < flags in the orientable case and
    2g - 4 < flags otherwise; used only to warn about hopeless filters.
    """
    if orientable_only:
        return (order + 3) // 4 + 1
    return (order + 3) // 2 + 2


def census(groups: Sequence[tuple[str, FiniteGroup]], *,
           proper_only: bool = False, orientable_only: bool = False,
           genus_range: tuple[int, int] | None = None,
           jobs: int = 1) -> CensusReport:
    """Classify every group and aggregate class counts per genus.

    A failing group (e.g. over the automorphism cap) is recorded in its
    status entry and does not abort the rest.
    """
    ori: Counter[int] = Counter()
    non: Counter[int] = Counter()
    statuses: list[GroupCensusStatus] = []
    for name, group in groups:
        try:
            result = classify(group, name, jobs=jobs)
        except LinhypError as exc:
            statuses.append(GroupCensusStatus(
                name=name, order=group.order,
                error=f"{type(exc).__name__}: {exc}"))
            continue
        matching = 0
        for cls in result.classes:
            ms = cls.m_sequence
            if not _passes_filters(ms, proper_only, orientable_only, genus_range):
                continue
            matching += 1
            (ori if ms.orientable else non)[ms.genus] += 1
        statuses.append(GroupCensusStatus(
            name=name, order=group.order,
            classes_total=result.class_count,
            classes_matching=matching))
    return CensusReport(
        proper_only=proper_only,
        orientable_only=orientable_only,
        genus_range=genus_range,
        per_genus_orientable=dict(sorted(ori.items())),
        per_genus_non_orientable=dict(sorted(non.items())),
        per_group=tuple(statuses),
    )
