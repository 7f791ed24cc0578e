"""Permutation arithmetic and finite-group machinery.

Groups are materialized as explicit element lists closed under composition.
Elements are stored in a canonical order (sorted lexicographically by image
sequence, identity first) so that element indices are deterministic across
runs.  For groups of order at most ``TABLE_LIMIT`` a dense multiplication
table is built, giving O(1) index arithmetic; larger groups fall back to
composing permutations and looking the result up in a hash index.  Only
``FiniteGroup`` reads the table, conjugation in ``_conjugates`` and right
multiplication in ``_column``.

Composition is left-to-right throughout: ``(p * q)`` applies ``p`` first,
then ``q``, so exponent-style actions compose naturally.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import struct
import threading
from array import array
from collections import Counter, deque
from math import lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._frozen import dataclass
from .errors import (
    BadEnvironment,
    DegreeMismatch,
    GroupTooLarge,
    GroupTooLargeForAut,
    GroupMismatch,
    IndexOutOfRange,
    MalformedCycle,
    NotASubgroup,
    NotInGroup,
    PointOutOfRange,
    RepeatedPoint,
)

if TYPE_CHECKING:
    import numpy

DEFAULT_CLOSURE_CAP = 200_000
CLOSURE_CAP_ENV = "LHM_MAX_GROUP_ORDER"
# a closure keeps each element as a tuple of ``degree`` images, and may hold
# this many images per element the cap allows: ``order * degree`` is bounded
CLOSURE_IMAGES_PER_ELEMENT = 64
TABLE_LIMIT = 4096
DEFAULT_AUT_CAP = 2048
# _bits_of sets the bits of a subgroup or a product set one shift-or at a
# time below |G| / _BUFFER_SHARE elements and through one string of digits
# above it; on a6, s6xz2 and a7 the two cost the same near |G| / 16.
_BUFFER_SHARE = 16


class Permutation:
    """A bijection on points 1..n, stored as a 0-based image tuple.

    ``images[i]`` is the (0-based) image of point ``i``.  Points are 1-based
    in every external representation (cycle notation, ``of``).
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("image sequence is not a bijection")
        self.images = images

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> Permutation:
        """The permutation with these images, known to be a bijection."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def of(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= self.degree:
            raise PointOutOfRange(f"point {point} outside 1..{self.degree}")
        return self.images[point - 1] + 1

    def __mul__(self, other: Permutation) -> Permutation:
        if other.degree != self.degree:
            raise DegreeMismatch(
                f"degree {self.degree} composed with degree {other.degree}")
        if self.degree == 1:  # itemgetter of one index returns a scalar
            return other
        return Permutation._of(operator.itemgetter(*self.images)(other.images))

    def __pow__(self, k: int) -> Permutation:
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> Permutation:
        return Permutation._of(tuple(sorted(range(self.degree),
                                            key=self.images.__getitem__)))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def is_identity(self) -> bool:
        return self.images == tuple(range(self.degree))

    def is_involution(self) -> bool:
        identity = tuple(range(self.degree))
        return self.images != identity and (self * self).images == identity

    def fixed_points(self) -> tuple[int, ...]:
        """1-based points left unchanged."""
        if not any(map(operator.eq, self.images, range(self.degree))):
            return ()
        return tuple(i + 1 for i, v in enumerate(self.images) if v == i)

    def extended(self, degree: int) -> Permutation:
        """The same permutation acting on a larger point set."""
        if degree < self.degree:
            raise DegreeMismatch("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(self.degree, degree)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 1-based, each starting at its minimum."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(p + 1 for p in cyc))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-tolerant disjoint-cycle notation like ``(1 2)(3 5)``.

    Points may be separated by spaces or commas.  ``()`` and ``id`` denote
    the identity; points not mentioned are fixed.  A product of 2-cycles
    that passes the bulk checks is set in one pass; any other text is read
    one cycle at a time, which meets its first fault in reading order.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    s = text.strip()
    if s == "id":
        return Permutation.identity(degree)
    if not s:
        raise MalformedCycle("empty cycle expression")
    # 2-cycles read "( p q )" four tokens at a time; a point with more digits
    # than the degree (int() may refuse it) is read one cycle at a time
    tokens = s.replace("(", " ( ").replace(")", " ) ").split()
    k = len(tokens) // 4
    words = tokens[1::4] + tokens[2::4]
    images = list(range(degree))
    if (len(tokens) == 4 * k
            and tokens[::4].count("(") == tokens[3::4].count(")") == k
            and "".join(words).isdecimal()
            and max(map(len, words)) <= len(str(degree))):
        points = list(map(int, words))
        if (min(points) >= 1 and max(points) <= degree
                and len(set(points)) == len(points)):
            for p, q in zip(points[:k], points[k:]):
                images[p - 1], images[q - 1] = q - 1, p - 1
            return Permutation._of(tuple(images))
    *pieces, tail = s.split(")")
    at, seen = 0, set()
    for head, sep, body in (piece.partition("(") for piece in pieces):
        if head.strip() or not sep:
            at += len(head) - len(head.lstrip())
            raise MalformedCycle(f"expected '(' at position {at} in {text!r}")
        points = body.replace(",", " ").split()
        for tok in points:
            if not tok.isdecimal():
                raise MalformedCycle(f"non-numeric token {tok!r} in {text!r}")
        for i, tok in enumerate(points):
            # sized before int(), which refuses a point of over 4300 digits
            digits = "".join(map(str, map(int, tok))).lstrip("0") or "0"
            if (len(digits) > len(str(degree))
                    or not 1 <= (p := int(digits)) <= degree):
                raise PointOutOfRange(f"point {digits} outside 1..{degree}")
            if p in seen:
                raise RepeatedPoint(f"point {p} repeated in {text!r}")
            seen.add(p)
            points[i] = p
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
        at += len(head) + len(body) + 2
    if tail.lstrip().startswith("("):
        raise MalformedCycle(f"unclosed cycle in {text!r}")
    if tail:
        at += len(tail) - len(tail.lstrip())
        raise MalformedCycle(f"expected '(' at position {at} in {text!r}")
    return Permutation._of(tuple(images))


class FiniteGroup:
    """A fully enumerated permutation group with index-based arithmetic.

    Construct with :func:`closure`; the constructor itself expects the full
    element set and is not meant to complete a partial one.
    """

    def __init__(self, elements: Iterable[Permutation],
                 generators: Sequence[Permutation]):
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("empty element set")
        degree = elems[0].degree
        if any(e.degree != degree for e in elems):
            raise DegreeMismatch("elements of mixed degree")
        if not elems[0].is_identity():
            raise ValueError("identity missing from element set")
        self.degree = degree
        self.elements: tuple[Permutation, ...] = tuple(elems)
        self.order = len(elems)
        self._index: dict[tuple[int, ...], int] = {
            e.images: i for i, e in enumerate(self.elements)
        }
        gset = []
        for g in generators:
            gi = self._index.get(g.images)
            if gi is None:
                raise NotInGroup(f"generator {g.cycle_string()} not in closure")
            if gi not in gset:
                gset.append(gi)
        self.generator_indices: tuple[int, ...] = tuple(gset)
        self._flat: array | None = None
        if self.order <= TABLE_LIMIT:
            self._flat = self._build_table()
        self._inverse = array("I", (self._index[e.inverse().images]
                                    for e in self.elements))
        self._orders: list[int | None] = [None] * self.order
        self._squares: int | None = None
        self._words: list[str | None] = [None] * self.order
        self._aut_cache: tuple[GroupAutomorphism, ...] | None = None
        self._aut_lock = threading.Lock()

    # -- pickling: locks do not pickle; caches do -------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_aut_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._aut_lock = threading.Lock()

    @property
    def has_table(self) -> bool:
        return self._flat is not None

    def _build_table(self) -> array:
        """Dense multiplication table, built row by row.

        Since ``(g*x)*y = g*(x*y)``, row ``g*x`` is row ``g`` read through
        row ``x``.  Each generator's row comes from composing permutations;
        every other row is one gather, in breadth-first order from the
        identity under left multiplication by the generators.  This costs
        O(n^2) index operations, all inside ``itemgetter``.
        """
        n = self.order
        flat = array("H", bytes(2 * n * n))
        pack_row = struct.Struct(f"{n}H").pack_into
        identity = tuple(range(n))
        pack_row(flat, 0, *identity)
        if n == 1:
            return flat
        gen_rows = []
        for g in self.generator_indices or (0,):
            compose = operator.itemgetter(*self.elements[g].images)
            gen_rows.append(tuple(self._index[compose(e.images)]
                                  for e in self.elements))
        done = bytearray(n)
        done[0] = 1
        pending = deque([(0, identity)])
        while pending:
            x, row_x = pending.popleft()
            gather = operator.itemgetter(*row_x)
            for row_g in gen_rows:
                t = row_g[x]
                if not done[t]:
                    done[t] = 1
                    row = gather(row_g)
                    pack_row(flat, 2 * n * t, *row)
                    pending.append((t, row))
        if not all(done):
            raise ValueError("generators do not generate the element set")
        return flat

    def table_view(self) -> numpy.ndarray:
        """The multiplication table as a read-only (n, n) array.

        The only use of numpy in the package; it is imported here so that
        nothing else pays for it.
        """
        import numpy

        if self._flat is None:
            raise GroupTooLarge("no dense table for groups this large")
        view = numpy.frombuffer(self._flat, dtype=numpy.uint16)
        view.flags.writeable = False
        return view.reshape(self.order, self.order)

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.order:
            raise IndexOutOfRange(f"element index {i} outside 0..{self.order - 1}")

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        if self._flat is not None:
            return self._flat[i * self.order + j]
        return self._index[(self.elements[i] * self.elements[j]).images]

    def inverse_index(self, i: int) -> int:
        self.check_index(i)
        return self._inverse[i]

    def index_of(self, p: Permutation) -> int:
        idx = self._index.get(p.images)
        if idx is None:
            raise NotInGroup(f"{p.cycle_string()} is not an element of this group")
        return idx

    def element_order(self, i: int) -> int:
        self.check_index(i)
        cached = self._orders[i]
        if cached is not None:
            return cached
        k, x = 1, i
        while x != 0:
            x = self.mul(x, i)
            k += 1
        self._orders[i] = k
        return k

    def is_involution_index(self, i: int) -> bool:
        return i != 0 and self.mul(i, i) == 0

    def word(self, i: int) -> str:
        """Cycle notation of element i."""
        self.check_index(i)
        word = self._words[i]
        if word is None:
            word = self._words[i] = self.elements[i].cycle_string()
        return word

    def subgroup_bits(self, seeds: Sequence[int]) -> int:
        """Bitset of the subgroup generated by the seed indices.

        Dimino's coset walk (Butler, LNCS 559, 1991): the seeds are added
        one at a time, and a seed already in the subgroup ``H`` found so far
        is skipped.  The first new seed gives a cyclic group, its powers.
        Each later seed ``s`` gives ``<H, s>`` as the union of left cosets
        ``yH``: the representatives ``y`` are walked from the identity under
        left multiplication by the seeds so far, one read of a seed's table
        row per step, and each new one brings its whole coset at once: one
        gather of table row ``y``, or one ``mul`` per element in a group
        without a table.  So only ``|<H, s>| / |H|`` representatives take a
        step each.

        The walk stops as soon as it holds more than ``|G|/2`` elements.
        They lie in ``<H, s>``, a subgroup of order dividing ``|G|``
        (Lagrange) and over ``|G|/2``, so ``<H, s>``, and the subgroup the
        seeds generate with it, is the whole group: the exit is exact.
        """
        for s in seeds:
            self.check_index(s)
        n, mul = self.order, self.mul
        half, whole = n // 2, (1 << n) - 1
        rows = None if self._flat is None else memoryview(self._flat)
        members = {0}
        steps = []  # left multiplication by each seed so far
        for s in seeds:
            if s in members:
                continue
            step = (rows[s * n:(s + 1) * n].__getitem__ if rows is not None
                    else functools.partial(mul, s))
            steps.append(step)
            if len(members) == 1:
                x = s
                while x:
                    members.add(x)
                    x = step(x)  # s * x = x * s
                if len(members) > half:
                    return whole
                continue
            h = tuple(members)
            take = operator.itemgetter(*h)
            reps = [0]
            for r in reps:
                # at the identity, only s leaves H: t * 1 = t for the rest
                for t in steps if r else (step,):
                    y = t(r)
                    if y not in members:
                        members.update(take(rows[y * n:(y + 1) * n])
                                       if rows is not None
                                       else [mul(y, x) for x in h])
                        if len(members) > half:
                            return whole
                        reps.append(y)
        return _bits_of(members, n)

    def _square_bits(self) -> int:
        """Bitset of ``G^2``, the subgroup the squares generate, closed once
        and kept."""
        if self._squares is None:
            squares = {self.mul(x, x) for x in range(self.order)}
            self._squares = self.subgroup_bits(sorted(squares))
        return self._squares

    def product_bits(self, a_bits: int, b_bits: int) -> int:
        """Bitset of all products x*y with x in ``a_bits``, y in ``b_bits``."""
        return _bits_of(self._products(_bit_indices(a_bits),
                                       _bit_indices(b_bits)), self.order)

    def _products(self, xs: list[int], ys: list[int]) -> set[int]:
        """The set of all products x*y; with the table, each x gathers
        table row x at every y in one call."""
        if self._flat is None or len(ys) < 2:  # itemgetter needs two
            return {self.mul(x, y) for x in xs for y in ys}
        n, rows = self.order, memoryview(self._flat)
        take = operator.itemgetter(*ys)
        products: set[int] = set()
        for x in xs:
            products.update(take(rows[x * n:(x + 1) * n]))
        return products

    def _column(self, h: int) -> list[int]:
        """The index of x*h for every x: column h of the table."""
        if self._flat is None:
            return [self.mul(x, h) for x in range(self.order)]
        return self._flat[h::self.order].tolist()

    def _conjugates(self, g: int, points: Iterable[int]) -> tuple[int, ...]:
        """g^-1 * x * g for each point: row g^-1 of the table read at the
        points, then column g read at those products (two leading reads of
        slot 0 keep each gather a tuple)."""
        ginv = self._inverse[g]
        if self._flat is None:
            return tuple(self.mul(self.mul(ginv, x), g) for x in points)
        n, rows = self.order, memoryview(self._flat)
        products = operator.itemgetter(0, 0, *points)(rows[ginv * n:])
        return operator.itemgetter(*products)(rows[g::n])[2:]

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree})"


def _bits_of(members: set[int], n: int) -> int:
    """The bitset of ``members``, elements of a group of order ``n``."""
    if len(members) * _BUFFER_SHARE < n:
        bits = 0
        for x in members:
            bits |= 1 << x
        return bits
    digits = bytearray(b"0") * n
    for x in members:
        digits[x] = 49  # ord("1")
    return int(digits[::-1], 2)


def _bit_indices(bits: int) -> list[int]:
    """The positions of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def closure_cap() -> int:
    """The closure element cap: ``LHM_MAX_GROUP_ORDER`` if set, else 200000."""
    env = os.environ.get(CLOSURE_CAP_ENV)
    if not env:
        return DEFAULT_CLOSURE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadEnvironment(
            f"{CLOSURE_CAP_ENV} must be a positive integer, got {env!r}")
    return cap


def closure(generators: Sequence[Permutation],
            max_order: int | None = None) -> FiniteGroup:
    """Enumerate the group generated by ``generators``.

    ``max_order`` caps the element count (default 200000, overridable via
    the ``LHM_MAX_GROUP_ORDER`` environment variable).  Each element is
    kept as a tuple of ``degree`` images, so ``order * degree`` is capped
    too, at ``64 * max_order`` (``CLOSURE_IMAGES_PER_ELEMENT``).
    """
    if not generators:
        raise ValueError("at least one generator is required")
    if max_order is None:
        max_order = closure_cap()
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise DegreeMismatch("generators of mixed degree")
    limit = min(max_order, CLOSURE_IMAGES_PER_ELEMENT * max_order // degree)
    gens = []
    for g in generators:
        if g not in gens:
            gens.append(g)
    # orbit lengths divide the order; the walk keeps the identity at any limit
    orbits = Counter(_orbit_roots([g.images for g in gens], degree))
    if lcm(*orbits.values()) > max(limit, 1):
        raise _closure_refused(degree, limit, max_order)
    ident = Permutation.identity(degree)
    seen = {ident.images: ident}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = x * g
            if y.images not in seen:
                if len(seen) >= limit:
                    raise _closure_refused(degree, limit, max_order)
                seen[y.images] = y
                queue.append(y)
    return FiniteGroup(seen.values(), gens)


def _closure_refused(degree: int, limit: int,
                     max_order: int) -> GroupTooLarge:
    """The refusal of a closure of more than ``limit`` elements."""
    if limit == max_order:
        return GroupTooLarge(
            f"closure exceeded the cap of {max_order} elements")
    per = CLOSURE_IMAGES_PER_ELEMENT
    return GroupTooLarge(
        f"closure of degree {degree} exceeded {limit} elements, the budget "
        f"of {per * max_order} images ({per} per element of the cap of "
        f"{max_order})")


def _orbit_roots(actions: Sequence[Sequence[int]], n: int) -> list[int]:
    """The least point of each point's orbit under the maps ``actions``."""
    root_of = [-1] * n
    for root in range(n):
        if root_of[root] < 0:
            root_of[root] = root
            orbit = [root]
            for x in orbit:
                for action in actions:
                    if root_of[y := action[x]] < 0:
                        root_of[y] = root
                        orbit.append(y)
    return root_of


@dataclass(frozen=True)
class ElementSet:
    """A subset of a group's elements, stored as a bitset over indices."""

    group: FiniteGroup
    bits: int

    @classmethod
    def from_indices(cls, group: FiniteGroup,
                     indices: Iterable[int]) -> ElementSet:
        bits = 0
        for i in indices:
            group.check_index(i)
            bits |= 1 << i
        return cls(group, bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def indices(self) -> list[int]:
        return _bit_indices(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def union(self, other: ElementSet) -> ElementSet:
        _require_same_group(self, other)
        return ElementSet(self.group, self.bits | other.bits)

    def intersection(self, other: ElementSet) -> ElementSet:
        _require_same_group(self, other)
        return ElementSet(self.group, self.bits & other.bits)

    def is_subgroup(self) -> bool:
        if not self.bits & 1:
            return False
        members = self.indices()
        mul = self.group.mul
        bits = self.bits
        return all(bits >> mul(a, b) & 1 for a in members for b in members)


def _require_same_group(a: ElementSet, b: ElementSet) -> None:
    if a.group is not b.group:
        raise GroupMismatch("element sets belong to different groups")


def _require_subgroup(group: FiniteGroup, h: ElementSet) -> None:
    if h.group is not group:
        raise GroupMismatch("subgroup belongs to a different group")
    if not h.is_subgroup():
        raise NotASubgroup("element set is not closed under multiplication")


def generated_subgroup(group: FiniteGroup,
                       seeds: Sequence[int]) -> ElementSet:
    """The subgroup generated by the given element indices."""
    seeds = list(seeds)
    if not seeds:
        raise IndexOutOfRange("seed list is empty")
    return ElementSet(group, group.subgroup_bits(seeds))


def subgroup_index(group: FiniteGroup, h: ElementSet) -> int:
    """|G| / |H|; Lagrange guarantees exactness for subgroups."""
    _require_subgroup(group, h)
    size = len(h)
    if group.order % size:
        raise NotASubgroup("subgroup order does not divide the group order")
    return group.order // size


def product_set(a: ElementSet, b: ElementSet) -> ElementSet:
    """The set of all pairwise products {x*y : x in a, y in b}."""
    _require_same_group(a, b)
    return ElementSet(a.group, a.group.product_bits(a.bits, b.bits))


def conjugate_set(group: FiniteGroup, s: ElementSet, g: int) -> ElementSet:
    """{g^-1 x g : x in s}."""
    if s.group is not group:
        raise GroupMismatch("element set belongs to a different group")
    group.check_index(g)
    return ElementSet.from_indices(group, group._conjugates(g, s.indices()))


def normal_core(group: FiniteGroup, h: ElementSet) -> ElementSet:
    """The largest normal subgroup of the group contained in ``h``.

    Repeatedly intersects with generator conjugates; the fixpoint is
    normalized by every generator, hence normal.
    """
    _require_subgroup(group, h)
    core = h
    while True:
        refined = core
        for g in group.generator_indices:
            refined = refined.intersection(conjugate_set(group, refined, g))
        if refined.bits == core.bits:
            return core
        core = refined


def involutions(group: FiniteGroup) -> list[int]:
    """Indices of all elements of order exactly 2, ascending."""
    return [i for i in range(1, group.order) if group.mul(i, i) == 0]


class GroupAutomorphism:
    """A group automorphism as an index map over the element list."""

    __slots__ = ("group", "mapping")

    def __init__(self, group: FiniteGroup, mapping: Sequence[int]):
        self.group = group
        self.mapping = tuple(mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def compose(self, other: GroupAutomorphism) -> GroupAutomorphism:
        """Apply self first, then other."""
        if other.group is not self.group:
            raise GroupMismatch("automorphisms of different groups")
        om = other.mapping
        return GroupAutomorphism(self.group, tuple(om[i] for i in self.mapping))

    def inverse(self) -> GroupAutomorphism:
        inv = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return GroupAutomorphism(self.group, inv)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupAutomorphism)
                and self.group is other.group
                and self.mapping == other.mapping)

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        gens = self.group.generator_indices
        imgs = ", ".join(
            f"{self.group.word(g)}->{self.group.word(self.mapping[g])}"
            for g in gens)
        return f"GroupAutomorphism({imgs})"


def minimal_generating_sequence(group: FiniteGroup) -> list[int]:
    """Greedy irredundant generating sequence, smallest indices first."""
    chosen: list[int] = []
    bits = 1
    for i in range(1, group.order):
        if bits >> i & 1:
            continue
        chosen.append(i)
        bits = group.subgroup_bits(chosen)
        if bits.bit_count() == group.order:
            break
    return chosen


def _cayley_walk(group: FiniteGroup, gens: Sequence[int],
                 code: Sequence[int] | None = None
                 ) -> tuple[list[int], list[int]] | None:
    """Walk from the identity over right multiplication by ``gens``.

    Returns ``(order, code)``: the elements in walk order, and the walk
    position of each ``order[p] * gens[j]`` in turn (step ``p*k + j``), the
    tuple's Cayley code.  Given a target ``code``, returns None at the first
    step that departs from it.
    """
    columns = [group._column(h) for h in gens]
    order = [0]
    position = [-1] * group.order
    position[0] = 0
    walk: list[int] = []
    for x in order:
        for column in columns:
            z = column[x]
            q = position[z]
            if q < 0:
                q = position[z] = len(order)
                order.append(z)
            if code is not None and code[len(walk)] != q:
                return None
            walk.append(q)
    return order, walk


def automorphism_group(group: FiniteGroup,
                       max_order: int = DEFAULT_AUT_CAP
                       ) -> list[GroupAutomorphism]:
    """The complete automorphism group, sorted by mapping.

    :func:`~linhyp.classify.classify` calls this only for a group with no
    classes, whose ``|Aut|`` the Cayley codes of its classes cannot give;
    ``canonical_key`` calls it too, and ``is_isomorphic`` for a triple that
    does not generate its group.

    Fixes a short generating tuple (g1..gk); one walk from the identity
    over right multiplication by the gi gives the walk order and the
    tuple's Cayley code.  An image tuple (h1..hk) extends to an automorphism
    exactly when its own walk gives the same code (Conder & Dobcsanyi,
    JCTB 81, 2001).  Each hi is drawn from
    the elements sharing gi's automorphism-invariant label (element order,
    centraliser size) and a candidate is dropped at its first mismatch.
    This needs the dense multiplication table, which every group within
    the default cap has.  The result list is frozen on the group, so
    concurrent callers compute it at most once.

    ``max_order`` also bounds the stored mappings: ``|Aut| * |G|`` entries
    may not exceed ``max_order**2``, the size of the largest table the cap
    allows, so a small group with a huge ``Aut`` raises instead of filling
    memory.  An elementary abelian group (like ``Z2^5``, whose ``Aut`` is
    ``GL(5,2)`` of order about 10^7) is refused before any enumeration.
    """
    if group.order > max_order:
        raise GroupTooLargeForAut(
            f"|G| = {group.order} exceeds the automorphism cap {max_order}")
    with group._aut_lock:
        if group._aut_cache is None:
            group._aut_cache = tuple(_compute_automorphisms(group, max_order))
    if len(group._aut_cache) > _aut_limit(group, max_order):
        raise _too_many_automorphisms(group, max_order)
    return list(group._aut_cache)


def _aut_limit(group: FiniteGroup, max_order: int) -> int:
    """The most automorphisms whose mappings fit in ``max_order**2`` entries."""
    return max_order * max_order // group.order


def _too_many_automorphisms(group: FiniteGroup,
                            max_order: int) -> GroupTooLargeForAut:
    return GroupTooLargeForAut(
        f"|Aut(G)| exceeds {_aut_limit(group, max_order)} for |G| = "
        f"{group.order}: its mappings would take more than {max_order}^2 "
        "entries, the automorphism cap")


def _conjugacy_classes(group: FiniteGroup) -> list[int]:
    """The least element of each element's conjugacy class.

    Classes are the orbits of ``x -> g^-1 x g`` over the generators,
    found in O(|G| * k) table reads.
    """
    n = group.order
    return _orbit_roots([group._conjugates(g, range(n))
                         for g in group.generator_indices], n)


def _label_classes(group: FiniteGroup,
                   class_of: list[int] | None = None) -> list[list[int]]:
    """Non-identity elements grouped by (element order, centraliser size),
    smallest class first.

    Automorphisms preserve both, so each class is a union of Aut-orbits.
    The centraliser of x has ``|G| / |class(x)|`` elements; ``class_of``
    is :func:`_conjugacy_classes` of the group, computed if not given.
    """
    if class_of is None:
        class_of = _conjugacy_classes(group)
    class_size = Counter(class_of)
    n = group.order
    classes: dict[tuple[int, int], list[int]] = {}
    for i in range(1, n):
        label = (group.element_order(i), n // class_size[class_of[i]])
        classes.setdefault(label, []).append(i)
    return sorted(classes.values(), key=lambda c: (len(c), c[0]))


def _conjugacy_representatives(class_of: list[int],
                               members: list[int]) -> list[int]:
    """The first member of each conjugacy class meeting ``members``."""
    reps: list[int] = []
    seen: set[int] = set()
    for a in members:
        if class_of[a] not in seen:
            reps.append(a)
            seen.add(class_of[a])
    return reps


def _generating_tuple(group: FiniteGroup, classes: list[list[int]],
                      class_of: list[int] | None = None) -> list[int]:
    """A short generating tuple whose label classes have a small product.

    Tries one generator, then pairs of classes in order of their size
    product.  Inner automorphisms preserve labels, so the first entry of a
    pair need only run over conjugacy-class representatives.  A group that
    no pair generates gets its greedy minimal generating sequence.
    """
    n = group.order
    for cls in classes:
        if group.element_order(cls[0]) == n:
            return [cls[0]]
    if class_of is None:
        class_of = _conjugacy_classes(group)
    pairs = sorted((len(a) * len(b), i, j)
                   for i, a in enumerate(classes)
                   for j, b in enumerate(classes[i:], start=i))
    for _, i, j in pairs:
        for a in _conjugacy_representatives(class_of, classes[i]):
            for b in classes[j]:
                if b != a and group.subgroup_bits((a, b)).bit_count() == n:
                    return [a, b]
    return minimal_generating_sequence(group)


def _compute_automorphisms(group: FiniteGroup,
                           max_order: int) -> list[GroupAutomorphism]:
    """Every automorphism; raises as soon as they outgrow ``max_order**2``
    mapping entries."""
    n = group.order
    limit = _aut_limit(group, max_order)
    class_of = _conjugacy_classes(group)
    classes = _label_classes(group, class_of)
    if len(classes) == 1:
        # One label class means every non-identity element has the same
        # order, a prime p, so G is a p-group.  Its centre is nontrivial,
        # and a central element's centraliser is G, so every centraliser is
        # G: G is abelian of exponent p, elementary abelian of order p^k.
        # Aut(G) is then GL(k,p), of order the product of n - p^i, i < k.
        p = group.element_order(classes[0][0])
        size, power = 1, 1
        while power < n:
            size, power = size * (n - power), power * p
        if size > limit:
            raise _too_many_automorphisms(group, max_order)
    label_of = {x: cls for cls in classes for x in cls}
    gens = _generating_tuple(group, classes, class_of)
    elems, code = _cayley_walk(group, gens)
    results: list[tuple[int, ...]] = []
    for images in itertools.product(*(label_of[g] for g in gens)):
        walk = _cayley_walk(group, images, code)
        if walk is not None:
            mapping = [0] * n
            for e, y in zip(elems, walk[0]):
                mapping[e] = y
            results.append(tuple(mapping))
            if len(results) > limit:
                raise _too_many_automorphisms(group, max_order)
    results.sort()
    return [GroupAutomorphism(group, m) for m in results]
