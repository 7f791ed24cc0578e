"""Exhaustive classification of regular linear hypermaps on a group.

A triple is admissible when its three distinct involutions generate the
group and pass both subgroup conditions.  Its canonical key is the
lexicographically least image of the triple under the automorphism group
``Aut(G)``.  Only the identity automorphism fixes a generating triple, so
``Aut(G)`` acts freely on admissible triples: every class has exactly
``|Aut|`` of them, and a triple is its own key exactly when ``r0`` is least
in its ``Aut``-orbit on involutions, ``r1`` least in its orbit under the
stabiliser of ``r0``, and ``r2`` least in its orbit under the stabiliser of
``r0`` and ``r1``.  ``classify`` walks this stabiliser chain and checks
admissibility only for the triples that pass all three filters; each
admissible survivor is one class, met in key order.

Admissibility itself is coded once, in :mod:`linhyp.regular`, as a lazy
stream of checks, cheapest first; the scan and the brute-force
``admissible_triples`` oracle each share one memo of pair subgroups and
product verdicts per group and drop a triple at its first failed check.
Each class is built from its checked key without a second check, reading
its vertex and hyperedge stabilisers and its orientability from the memo.

``Aut(G)`` comes from :func:`~linhyp.permgroup.automorphism_group`, which
matches Cayley codes of generator images and keeps the 2048-element cap.
The ``jobs`` argument is accepted for compatibility; the scan runs in one
process and its output never depends on ``jobs``.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Iterator, Sequence

from ._frozen import dataclass, field
from .errors import LinhypError
from .permgroup import FiniteGroup, automorphism_group, involutions
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


def _self_canonical_triples(maps: list[tuple[int, ...]], invs: list[int]
                            ) -> Iterator[tuple[int, int, int]]:
    """Distinct involution triples equal to their canonical key, in order."""
    if len(invs) < 3:
        return  # no distinct triple, and itemgetter needs two points
    restrict = operator.itemgetter(*invs)
    images = [restrict(m) for m in maps]
    for i0 in _orbit_minima(images, invs):
        p0 = invs[i0]
        stab0 = [r for r in images if r[i0] == p0]
        for i1 in _orbit_minima(stab0, invs):
            if i1 == i0:
                continue
            p1 = invs[i1]
            stab01 = [r for r in stab0 if r[i1] == p1]
            for i2 in _orbit_minima(stab01, invs):
                if i2 != i0 and i2 != i1:
                    yield p0, p1, invs[i2]


def classify(group: FiniteGroup, group_name: str = "",
             jobs: int = 1) -> ClassificationResult:
    """One representative per automorphism orbit of admissible triples.

    Scans only the triples that equal their canonical key (see the module
    docstring), so every admissible one found is a class of ``|Aut|``
    triples and the classes come out sorted by key.  ``jobs`` is accepted
    and ignored; the result never depends on it.
    """
    auts = automorphism_group(group)
    memo: dict = {}
    classes = []
    for key in _self_canonical_triples([a.mapping for a in auts],
                                       involutions(group)):
        if not all(c.passed for c in _conditions(group, *key, memo)):
            continue
        hm = RegularLinearHypermap._of(InvolutionTriple(group, *key), memo)
        classes.append(ClassifiedHypermap(
            hypermap=hm,
            canonical_key=key,
            orbit_size=len(auts),
            m_seq=hm.m_sequence(),
        ))
    return ClassificationResult(
        group_name=group_name,
        group=group,
        classes=tuple(classes),
        admissible_triple_count=len(classes) * len(auts),
        aut_group_size=len(auts),
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
