"""Linear hypermaps on an explicit flag set.

A hypermap is given by three involutions r0, r1, r2 on the flags.  Orbits of
<r1,r2> are the flags around a vertex, orbits of <r0,r2> the flags around a
hyperedge, orbits of <r0,r1> the flags around a hyperface.  Validation
checks, besides the structural basics, that the vertex and hyperedge
stabilizers meet only in <r2> and that the two product sets H*K and K*H cut
out exactly H union K on every flag orbit; together these force the
underlying hypergraph to be linear.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import lcm

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


def _perm_subgroup(n: int, gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All elements of the permutation group generated by image tuples."""
    ident = tuple(range(n))
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sorted(seen)


# --- validation ----------------------------------------------------------------


def validate_hypermap(h: FlagHypermap) -> ValidationReport:
    """Check the full flag-level definition once; failures become report
    entries.  The report is stored on ``h`` and returned by later calls.

    The one exception raised is ``GroupTooLarge``, when ``<r1,r2>`` or
    ``<r0,r2>`` has more elements than the closure cap.  Two involutions
    generate a dihedral group of order ``2*ord(ab)``, and ``ab`` has order
    the lcm of the half-lengths of the ``<a,b>``-orbits, so the order is
    known before any element is enumerated.  (A malformed cap variable is
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

    cap = closure_cap()
    for name, a in (("<r1,r2>", h.r1), ("<r0,r2>", h.r0)):
        order = 2 * lcm(*(len(o) // 2 for o in _orbit_partition(n, [a, h.r2])))
        if order > cap:
            raise GroupTooLarge(f"{name} has {order} elements, over the cap "
                                f"of {cap} ({CLOSURE_CAP_ENV})")
    hsub = _perm_subgroup(n, [h.r1.images, h.r2.images])
    ksub = _perm_subgroup(n, [h.r0.images, h.r2.images])
    expected = sorted({tuple(range(n)), h.r2.images})
    inter = sorted(set(hsub) & set(ksub))
    cond1 = inter == expected
    checks.append(CheckResult(
        "stabilizer-intersection", cond1,
        "" if cond1 else
        f"<r1,r2> meets <r0,r2> in {len(inter)} elements, expected 2"))

    cond2, detail = _product_condition_all_flags(n, hsub, ksub)
    checks.append(CheckResult("product-intersection", cond2, detail))

    h._report = ValidationReport(tuple(checks))
    return h._report


def _product_condition_all_flags(n, hsub, ksub) -> tuple[bool, str]:
    """Pointwise product-set condition, checked for every flag."""
    for phi in range(n):
        h_orbit = {g[phi] for g in hsub}
        k_orbit = {g[phi] for g in ksub}
        hk = {k[x] for x in h_orbit for k in ksub}
        kh = {g[x] for x in k_orbit for g in hsub}
        if hk & kh != h_orbit | k_orbit:
            return False, f"product condition fails at flag {phi + 1}"
    return True, ""


# --- cell-level operations -----------------------------------------------------


def extract_cells(h: FlagHypermap) -> CellStructure:
    """The vertex / hyperedge / hyperface orbit partitions."""
    h.require_valid()
    if h._cells is None:
        h._cells = CellStructure(
            vertices=tuple(_orbit_partition(h.flag_count, [h.r1, h.r2])),
            hyperedges=tuple(_orbit_partition(h.flag_count, [h.r0, h.r2])),
            hyperfaces=tuple(_orbit_partition(h.flag_count, [h.r0, h.r1])),
        )
    return h._cells


def underlying_hypergraph(h: FlagHypermap) -> LinearHypergraph:
    """Hyperedges as sets of incident vertices, with linearity re-verified."""
    cells = extract_cells(h)
    vertex_of_flag = {}
    for vid, orbit in enumerate(cells.vertices, start=1):
        for flag in orbit:
            vertex_of_flag[flag] = vid
    edges = tuple(
        frozenset(vertex_of_flag[flag] for flag in orbit)
        for orbit in cells.hyperedges)
    hg = LinearHypergraph(tuple(range(1, len(cells.vertices) + 1)), edges)
    bad = hg.linearity_violations()
    if bad:
        raise LinearityViolation(
            f"vertex pair {bad[0]} lies in two hyperedges of a validated hypermap")
    if len(edges) < 2 or any(len(e) < 2 for e in edges):
        raise LinearityViolation(
            "validated hypermap produced a degenerate hypergraph")
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
