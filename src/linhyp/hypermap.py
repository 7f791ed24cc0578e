"""Linear hypermaps on an explicit flag set.

A hypermap is given by three involutions r0, r1, r2 on the flags.  Orbits of
<r1,r2> are the flags around a vertex, orbits of <r0,r2> the flags around a
hyperedge, orbits of <r0,r1> the flags around a hyperface.  Validation
checks, besides the structural basics, two conditions on the stabilizers
H = <r1,r2> and K = <r0,r2>, and lists neither:

- H and K meet only in <r2>.  <a,r2> is the 2N distinct elements rho^i,
  r2*rho^i, with rho = a*r2 of order N (powers of rho keep the two alternate
  flag classes of each orbit; fixed-point-free r2 swaps them).  r2*rho^i is
  in the other group exactly when rho^i is, so |H & K| is twice the number
  of powers of one rho found in the other group.
- HK(phi) & KH(phi) = H(phi) | K(phi) at every flag phi.  With v and e the
  vertex and hyperedge of phi, HK(phi) is the union of the hyperedges that
  meet v and KH(phi) that of the vertices that meet e.  A flag outside
  v | e lies in both exactly when its vertex v' != v meets e and its
  hyperedge e' != e meets v, that is when {v, v'} lies in two hyperedges:
  the product condition is linearity, read at each flag.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import lcm
from operator import itemgetter

from ._frozen import dataclass
from .errors import (
    DegenerateHypermap,
    DegreeMismatch,
    GroupTooLarge,
    InvalidHypermap,
    LinearityViolation,
    NonIntegralGenus,
)
from .permgroup import CLOSURE_CAP_ENV, Permutation, closure_cap
from .report import CheckResult, ValidationReport


class FlagHypermap:
    """Three fixed-point-free involutions acting on flags 1..N.

    Construction rejects degenerate data (fewer than four flags, a non
    involution, or an involution with a fixed point).  Everything else,
    including the three perms being pairwise distinct, is the validator's
    business and gets reported rather than raised; the validator raises
    only ``GroupTooLarge``, for a stabiliser over the closure cap.
    """

    __slots__ = ("flag_count", "r0", "r1", "r2", "_report", "_cells")

    def __init__(self, r0: Permutation, r1: Permutation, r2: Permutation):
        n = r0.degree
        if r1.degree != n or r2.degree != n:
            raise DegreeMismatch("flag involutions of different degrees")
        if n < 4:
            raise DegenerateHypermap(f"{n} flags; at least 4 are required")
        for name, r in (("r0", r0), ("r1", r1), ("r2", r2)):
            if not r.is_involution():
                raise DegenerateHypermap(f"{name} is not an involution")
            if r.fixed_points():
                raise DegenerateHypermap(
                    f"{name} fixes flag {r.fixed_points()[0]}")
        self.flag_count = n
        self.r0, self.r1, self.r2 = r0, r1, r2
        self._report: ValidationReport | None = None
        self._cells: CellStructure | None = None

    def validate(self) -> ValidationReport:
        return validate_hypermap(self)

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidHypermap(
                "hypermap failed validation: " + report.failed_summary())

    def __repr__(self) -> str:
        return f"FlagHypermap(flags={self.flag_count})"


@dataclass(frozen=True)
class CellStructure:
    """The three orbit partitions, as sorted tuples of 1-based flags."""

    vertices: tuple[tuple[int, ...], ...]
    hyperedges: tuple[tuple[int, ...], ...]
    hyperfaces: tuple[tuple[int, ...], ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self.hyperedges), len(self.hyperfaces)


@dataclass(frozen=True)
class SurfaceInvariant:
    euler_characteristic: int
    orientable: bool
    genus: int


@dataclass(frozen=True)
class LinearHypergraph:
    """A plain hypergraph container; linearity is checked, not assumed.

    Instances produced by :func:`underlying_hypergraph` are guaranteed
    linear with at least two hyperedges of size >= 2; hand-built instances
    may violate that and are reported on by :func:`configuration_check`.
    """

    vertex_ids: tuple[int, ...]
    hyperedges: tuple[frozenset[int], ...]

    def __post_init__(self):
        known = set(self.vertex_ids)
        if len(known) != len(self.vertex_ids):
            raise ValueError("duplicate vertex ids")
        for edge in self.hyperedges:
            if not edge <= known:
                raise ValueError(f"hyperedge {sorted(edge)} uses unknown vertices")

    def linearity_violations(self) -> list[tuple[int, int]]:
        """Vertex pairs contained in two or more hyperedges, sorted.

        Counts the pairs inside each hyperedge, O(sum of |e|^2), instead of
        testing every vertex pair against every hyperedge.
        """
        pairs = Counter(pair for e in self.hyperedges
                        for pair in combinations(sorted(e), 2))
        return sorted(pair for pair, hits in pairs.items() if hits > 1)

    def is_linear(self) -> bool:
        return not self.linearity_violations()

    def vertex_degrees(self) -> dict[int, int]:
        degrees = dict.fromkeys(self.vertex_ids, 0)
        for e in self.hyperedges:
            for v in e:
                degrees[v] += 1
        return degrees


@dataclass(frozen=True)
class ConfigurationReport:
    """Uniformity and pair-condition summary of a hypergraph."""

    points: int
    blocks: int
    linear: bool
    block_size: int | None      # uniform hyperedge size, if uniform
    point_degree: int | None    # uniform vertex degree, if uniform
    is_configuration: bool

    @property
    def parameters(self) -> tuple[int, int, int, int] | None:
        """(v, r, b, k) of a configuration (v_r, b_k), if one."""
        if not self.is_configuration:
            return None
        return (self.points, self.point_degree, self.blocks, self.block_size)


# --- orbit machinery ---------------------------------------------------------


def _orbit_partition(n: int, perms: list[Permutation]) -> list[tuple[int, ...]]:
    """Orbits of the generated subgroup, as sorted 1-based tuples."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i, v in enumerate(p.images):
            ri, rv = find(i), find(v)
            if ri != rv:
                parent[rv] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i + 1)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda t: t[0])


def _rotations(a: Permutation, b: Permutation, half: int):
    """Yield the ``half`` powers of ``rho = a*b`` as image tuples."""
    x = tuple(range(len(a.images)))
    then_rho = itemgetter(*(a * b).images)
    for _ in range(half):
        yield x
        x = then_rho(x)


def _incidence(cells: CellStructure) -> tuple[dict[int, int], LinearHypergraph]:
    """Each flag's vertex id (1.., in cell order), and the hypergraph of
    the vertex sets that the hyperedge cells meet."""
    vertex_of = {flag: vid for vid, orbit in enumerate(cells.vertices, start=1)
                 for flag in orbit}
    return vertex_of, LinearHypergraph(
        tuple(range(1, len(cells.vertices) + 1)),
        tuple(frozenset(vertex_of[flag] for flag in orbit)
              for orbit in cells.hyperedges))


# --- validation ----------------------------------------------------------------


def validate_hypermap(h: FlagHypermap) -> ValidationReport:
    """Check the full flag-level definition once; failures become report
    entries.  The report and the three cell partitions are stored on ``h``;
    later calls return the stored report.

    The one exception raised is ``GroupTooLarge``, when ``<r1,r2>`` or
    ``<r0,r2>`` has more elements than the closure cap.  ``<a,b>`` has
    order ``2*ord(ab)``, the lcm of the half-lengths of its orbits doubled,
    known before any element is listed.  (A malformed cap variable is
    ``BadEnvironment``, as everywhere the cap is read.)
    """
    if h._report is not None:
        return h._report
    n = h.flag_count
    perms = (h.r0, h.r1, h.r2)
    checks = [
        CheckResult("involutions", all(r.is_involution() for r in perms)),
        CheckResult("fixed-point-free",
                    not any(r.fixed_points() for r in perms)),
    ]

    distinct = len(set(perms)) == 3
    checks.append(CheckResult(
        "pairwise-distinct", distinct,
        "" if distinct else "two of r0, r1, r2 coincide"))

    orbits = _orbit_partition(n, list(perms))
    transitive = len(orbits) == 1
    checks.append(CheckResult(
        "transitive", transitive,
        "" if transitive else f"{len(orbits)} monodromy orbits"))

    cells = CellStructure(
        vertices=tuple(_orbit_partition(n, [h.r1, h.r2])),
        hyperedges=tuple(_orbit_partition(n, [h.r0, h.r2])),
        hyperfaces=tuple(_orbit_partition(n, [h.r0, h.r1])),
    )
    cap = closure_cap()
    walks = []
    for name, a, cell in (("<r1,r2>", h.r1, cells.vertices),
                          ("<r0,r2>", h.r0, cells.hyperedges)):
        half = lcm(*(len(o) // 2 for o in cell))
        if 2 * half > cap:
            raise GroupTooLarge(f"{name} has {2 * half} elements, over the cap "
                                f"of {cap} ({CLOSURE_CAP_ENV})")
        walks.append((a, h.r2, half))
    small, large = sorted(walks, key=lambda w: w[2])
    rotations = set(_rotations(*small))
    members = rotations | set(map(itemgetter(*h.r2.images), rotations))
    meet = 2 * sum(x in members for x in _rotations(*large))
    checks.append(CheckResult(
        "stabilizer-intersection", meet == 2,
        "" if meet == 2 else
        f"<r1,r2> meets <r0,r2> in {meet} elements, expected 2"))

    bad = _product_failure(cells)
    checks.append(CheckResult(
        "product-intersection", bad is None,
        "" if bad is None else f"product condition fails at flag {bad}"))

    h._cells = cells
    h._report = ValidationReport(tuple(checks))
    return h._report


def _product_failure(cells: CellStructure) -> int | None:
    """The least flag whose vertex shares two hyperedges with a vertex of
    its hyperedge, where the product condition fails; None if none does."""
    vertex_of, hg = _incidence(cells)
    partners: dict[int, set[int]] = {}
    for u, w in hg.linearity_violations():
        partners.setdefault(u, set()).add(w)
        partners.setdefault(w, set()).add(u)
    return min((flag for orbit, edge in zip(cells.hyperedges, hg.hyperedges)
                for flag in orbit
                if not edge.isdisjoint(partners.get(vertex_of[flag], ()))),
               default=None)


# --- cell-level operations -----------------------------------------------------


def extract_cells(h: FlagHypermap) -> CellStructure:
    """The vertex / hyperedge / hyperface orbit partitions."""
    h.require_valid()
    return h._cells


def underlying_hypergraph(h: FlagHypermap) -> LinearHypergraph:
    """Hyperedges as sets of incident vertices, with linearity re-verified."""
    _, hg = _incidence(extract_cells(h))
    bad = hg.linearity_violations()
    if bad:
        raise LinearityViolation(
            f"vertex pair {bad[0]} lies in two hyperedges of a validated hypermap")
    for eid, edge in enumerate(hg.hyperedges, start=1):
        if len(hg.hyperedges) < 2 or len(edge) < 2:
            raise DegenerateHypermap(
                f"hyperedge {eid} of {len(hg.hyperedges)} meets {len(edge)} "
                "vertex(es); two hyperedges of two vertices are required")
    return hg


def orientability(h: FlagHypermap) -> bool:
    """True iff the even-word subgroup <r0r1, r1r2> has two flag orbits."""
    h.require_valid()
    orbits = _orbit_partition(h.flag_count, [h.r0 * h.r1, h.r1 * h.r2])
    return len(orbits) == 2


def genus_from_euler(chi: int, orientable: bool) -> int:
    """Genus of the closed surface with the given Euler characteristic."""
    if orientable:
        if chi > 2 or (2 - chi) % 2:
            raise NonIntegralGenus(
                f"chi = {chi} is not 2-2g for a non-negative integer g")
        return (2 - chi) // 2
    genus = 2 - chi
    if genus < 1:
        raise NonIntegralGenus(
            f"chi = {chi} is impossible for a non-orientable surface")
    return genus


def surface_invariant(h: FlagHypermap) -> SurfaceInvariant:
    """Euler characteristic, orientability and genus of the carrier surface."""
    cells = extract_cells(h)
    v, e, f = cells.counts
    chi = v + e + f - h.flag_count // 2
    ori = orientability(h)
    return SurfaceInvariant(chi, ori, genus_from_euler(chi, ori))


def configuration_check(hg: LinearHypergraph) -> ConfigurationReport:
    """Uniform block size, uniform point degree, and the pair condition."""
    sizes = {len(e) for e in hg.hyperedges}
    degrees = set(hg.vertex_degrees().values())
    linear = hg.is_linear()
    block_size = sizes.pop() if len(sizes) == 1 else None
    point_degree = degrees.pop() if len(degrees) == 1 else None
    return ConfigurationReport(
        points=len(hg.vertex_ids),
        blocks=len(hg.hyperedges),
        linear=linear,
        block_size=block_size,
        point_degree=point_degree,
        is_configuration=linear and block_size is not None
        and point_degree is not None,
    )
