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
  of powers of one rho found in the other group.  Those powers are the
  powers of rho^d for the least such d, a divisor of N, so |H & K| = 2N/d.
- HK(phi) & KH(phi) = H(phi) | K(phi) at every flag phi.  With v and e the
  vertex and hyperedge of phi, HK(phi) is the union of the hyperedges that
  meet v and KH(phi) that of the vertices that meet e.  A flag outside
  v | e lies in both exactly when its vertex v' != v meets e and its
  hyperedge e' != e meets v, that is when {v, v'} lies in two hyperedges:
  the product condition is linearity, read at each flag.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from math import gcd, lcm
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

    __slots__ = ("flag_count", "r0", "r1", "r2", "_report", "_cells",
                 "_orientable", "_incidence")

    def __init__(self, r0: Permutation, r1: Permutation, r2: Permutation):
        n = r0.degree
        if r1.degree != n or r2.degree != n:
            raise DegreeMismatch("flag involutions of different degrees")
        if n < 4:
            raise DegenerateHypermap(f"{n} flags; at least 4 are required")
        for name, r in (("r0", r0), ("r1", r1), ("r2", r2)):
            if not r.is_involution():
                raise DegenerateHypermap(f"{name} is not an involution")
            if fixed := r.fixed_points():
                raise DegenerateHypermap(f"{name} fixes flag {fixed[0]}")
        self.flag_count = n
        self.r0, self.r1, self.r2 = r0, r1, r2
        self._report: ValidationReport | None = None
        self._cells: CellStructure | None = None
        self._orientable: bool | None = None
        self._incidence: tuple[frozenset[int], ...] | None = None

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
    """The three orbit partitions, as sorted tuples of 1-based flags,
    ordered by least flag."""

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


def _meet_only_at(at: list[frozenset[int]]) -> bool:
    """Whether the hyperedges ``at``, all through one vertex, meet only in
    it: then their union has ``sum(|e| - 1)`` vertices besides it."""
    return len(at) < 2 or len(set().union(*at)) - 1 == sum(map(len, at)) - len(at)


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
        """No two hyperedges share two vertices: the hyperedges through each
        vertex meet only in it (:func:`_meet_only_at`).  No pair is listed;
        the verdict is kept on the (frozen) instance."""
        linear = self.__dict__.get("_linear")
        if linear is None:
            through: dict[int, list[frozenset[int]]] = {}
            for e in self.hyperedges:
                for v in e:
                    through.setdefault(v, []).append(e)
            linear = all(map(_meet_only_at, through.values()))
            object.__setattr__(self, "_linear", linear)
        return linear

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


def _parity_walk(perms: tuple[Permutation, ...]) -> tuple[int, bool]:
    """The orbit count of <perms>, and whether the points 2-colour so that
    every perm swaps the colours: for r0, r1, r2 of a transitive hypermap,
    whether <r0r1, r1r2> has two orbits, that is orientability."""
    images = [p.images for p in perms]
    colour = bytearray(len(images[0]))
    orbits, swapped = 0, True
    for start in range(len(colour)):
        if not colour[start]:
            orbits += 1
            colour[start] = 1
            walk = [start]
            for x in walk:
                other = 3 - colour[x]
                for image in images:
                    y = image[x]
                    if not colour[y]:
                        colour[y] = other
                        walk.append(y)
                    elif colour[y] != other:
                        swapped = False
    return orbits, swapped


def _cells(a: Permutation, b: Permutation) -> tuple[tuple, list[int]]:
    """Orbits of fixed-point-free involutions a and b, as sorted 1-based
    tuples, each walked x, a(x), b(a(x)), ... from its least flag; and the
    list of each flag's orbit number 1, 2, ..., indexed by flag (slot 0 is 0)."""
    a, b = a.images, b.images
    cell = [0] * len(a)
    orbits = []
    for start in range(len(a)):
        if not cell[start]:
            number, orbit, x = len(orbits) + 1, [], start
            while not cell[x]:
                y = a[x]
                cell[x] = cell[y] = number
                orbit += x + 1, y + 1
                x = b[y]
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits), [0, *cell]


def _meet_order(a: Permutation, b: Permutation, r2: Permutation,
                half: int) -> int:
    """``|<a,r2> & <b,r2>|``, with ``rho = a*r2`` of order ``half``, in
    O(flags) memory.  The powers of rho in ``<b,r2>`` are the powers of
    ``rho^d`` for the least such d, so the meet has ``2*half/d`` elements; d
    comes by prime descent from ``half``: while ``rho^(d/p)`` is in
    ``<b,r2>``, divide d by p.  x is in ``<b,r2>`` when x or ``x*r2`` is a
    power of ``sigma = b*r2``: it turns each cycle of sigma by an offset,
    and the offsets agree modulo the cycle lengths (the Chinese remainder
    theorem)."""
    sigma = (b * r2).images
    cycles, at = [], [-1] * len(sigma)
    for start in range(len(sigma)):
        cycle, x = [], start
        while at[x] < 0:
            at[x] = len(cycle)
            cycle.append(x)
            x = sigma[x]
        if cycle:
            cycles.append(cycle)

    def is_power(x: tuple[int, ...]) -> bool:
        j, period = 0, 1  # sigma^j agrees with x on the cycles so far
        for cycle in cycles:
            m, o = len(cycle), at[x[cycle[0]]]
            g = gcd(period, m)
            if [x[f] for f in cycle] != cycle[o:] + cycle[:o] or (o - j) % g:
                return False
            k = (o - j) // g * pow(period // g, -1, m // g) % (m // g)
            j, period = j + period * k, period * (m // g)
        return True

    rho, d, m, p = a * r2, half, half, 2
    while m > 1:
        if m % p == 0:  # p is prime: m has lost every smaller prime
            while m % p == 0:
                m //= p
            while d % p == 0 and (is_power((x := rho ** (d // p)).images)
                                  or is_power((x * r2).images)):
                d //= p
        p += 1
    return 2 * half // d


# --- validation ----------------------------------------------------------------


def validate_hypermap(h: FlagHypermap) -> ValidationReport:
    """Check the full flag-level definition once; failures become report
    entries.  The report, the three cell partitions, orientability and the
    incidence (each hyperedge's vertex ids, vertices numbered 1.. in order of
    least flag) are stored on ``h``; later calls return the stored report.

    The one exception raised is ``GroupTooLarge``, when ``<r1,r2>`` or
    ``<r0,r2>`` has more elements than the closure cap.  ``<a,b>`` has
    order ``2*ord(ab)``, the lcm of the half-lengths of its orbits doubled,
    known before any element is listed.  (A malformed cap variable is
    ``BadEnvironment``, as everywhere the cap is read.)
    """
    if h._report is not None:
        return h._report
    perms = (h.r0, h.r1, h.r2)
    # FlagHypermap() admits only fixed-point-free involutions
    checks = [CheckResult("involutions", True),
              CheckResult("fixed-point-free", True)]

    distinct = len(set(perms)) == 3
    checks.append(CheckResult(
        "pairwise-distinct", distinct,
        "" if distinct else "two of r0, r1, r2 coincide"))

    orbits, h._orientable = _parity_walk(perms)
    checks.append(CheckResult(
        "transitive", orbits == 1,
        "" if orbits == 1 else f"{orbits} monodromy orbits"))

    vertices, vertex_of = _cells(h.r1, h.r2)
    hyperedges, edge_of = _cells(h.r0, h.r2)
    cells = CellStructure(vertices, hyperedges, _cells(h.r0, h.r1)[0])
    cap = closure_cap()
    walks = []
    for name, a, cell in (("<r1,r2>", h.r1, vertices),
                          ("<r0,r2>", h.r0, hyperedges)):
        half = lcm(*(len(o) // 2 for o in cell))
        if 2 * half > cap:
            raise GroupTooLarge(f"{name} has {2 * half} elements, over the cap "
                                f"of {cap} ({CLOSURE_CAP_ENV})")
        walks.append((half, a))
    (half, a), (_, b) = sorted(walks, key=itemgetter(0))
    meet = _meet_order(a, b, h.r2, half)
    checks.append(CheckResult(
        "stabilizer-intersection", meet == 2,
        "" if meet == 2 else
        f"<r1,r2> meets <r0,r2> in {meet} elements, expected 2"))

    h._incidence = tuple(frozenset(itemgetter(*e)(vertex_of)) for e in hyperedges)
    bad = _product_failure(vertices, edge_of, h._incidence)
    checks.append(CheckResult(
        "product-intersection", bad is None,
        "" if bad is None else f"product condition fails at flag {bad}"))

    h._cells = cells
    h._report = ValidationReport(tuple(checks))
    return h._report


def _product_failure(vertices, edge_of, incidence) -> int | None:
    """The least flag whose vertex v shares two hyperedges with another
    vertex of the flag's hyperedge, where the product condition fails; None
    if none does.  Vertices, in order of least flag, take the test of
    ``is_linear`` on ``incidence``; only a failing one gathers the vertices it
    meets twice.  The scan stops once no later vertex can fail at a lower flag."""
    least = None
    for v, orbit in enumerate(vertices, 1):
        if least is not None and orbit[0] > least:
            break
        at = [incidence[e - 1] for e in set(itemgetter(*orbit)(edge_of))]
        if not _meet_only_at(at):
            twice = {u for u, k in Counter(chain(*at)).items() if k > 1} - {v}
            flag = next(f for f in orbit
                        if not incidence[edge_of[f] - 1].isdisjoint(twice))
            least = flag if least is None else min(least, flag)
    return least


# --- cell-level operations -----------------------------------------------------


def extract_cells(h: FlagHypermap) -> CellStructure:
    """The vertex / hyperedge / hyperface orbit partitions."""
    h.require_valid()
    return h._cells


def underlying_hypergraph(h: FlagHypermap) -> LinearHypergraph:
    """The incidence built by validation, with linearity re-verified."""
    hg = LinearHypergraph(tuple(range(1, len(extract_cells(h).vertices) + 1)),
                          h._incidence)
    if not hg.is_linear():
        raise LinearityViolation(f"vertex pair {hg.linearity_violations()[0]} "
                                 "lies in two hyperedges of a validated hypermap")
    for eid, edge in enumerate(hg.hyperedges, start=1):
        if len(hg.hyperedges) < 2 or len(edge) < 2:
            raise DegenerateHypermap(
                f"hyperedge {eid} of {len(hg.hyperedges)} meets {len(edge)} "
                "vertex(es); two hyperedges of two vertices are required")
    return hg


def orientability(h: FlagHypermap) -> bool:
    """True iff the even-word subgroup <r0r1, r1r2> has two flag orbits."""
    h.require_valid()
    return h._orientable


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
