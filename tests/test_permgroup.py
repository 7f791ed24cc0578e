from __future__ import annotations

import itertools
import pickle
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_classify import random_generators

from conftest import REPO_ROOT
from linhyp import permgroup
from linhyp.catalog import parse_group_file
from linhyp.errors import (
    DegreeMismatch,
    GroupMismatch,
    GroupTooLarge,
    GroupTooLargeForAut,
    IndexOutOfRange,
    LinhypError,
    MalformedCycle,
    NotASubgroup,
    NotInGroup,
    PointOutOfRange,
    RepeatedPoint,
)
from linhyp.permgroup import (
    ElementSet,
    Permutation,
    automorphism_group,
    closure,
    conjugate_set,
    generated_subgroup,
    involutions,
    minimal_generating_sequence,
    normal_core,
    parse_cycles,
    product_set,
    subgroup_index,
)


# --- parsing -----------------------------------------------------------------


def test_parse_two_transpositions():
    p = parse_cycles("(1 2)(3 5)", 7)
    assert p.of(1) == 2 and p.of(2) == 1
    assert p.of(3) == 5 and p.of(5) == 3
    assert p.fixed_points() == (4, 6, 7)


def test_parse_five_cycle_order():
    p = parse_cycles("(1 4 2 3 5)", 5)
    assert p.order() == 5


def test_parse_identity_forms():
    assert parse_cycles("()", 5).is_identity()
    assert parse_cycles("id", 5).is_identity()


def test_parse_commas_and_whitespace():
    assert parse_cycles(" ( 1 , 2 ) ( 3  5 ) ", 5) == parse_cycles("(1 2)(3 5)", 5)


def test_parse_repeated_point():
    with pytest.raises(RepeatedPoint):
        parse_cycles("(1 2 2)", 5)
    with pytest.raises(RepeatedPoint):
        parse_cycles("(1 2)(2 3)", 5)


def test_parse_malformed():
    with pytest.raises(MalformedCycle):
        parse_cycles("(1 2", 5)
    with pytest.raises(MalformedCycle):
        parse_cycles("1 2)", 5)
    with pytest.raises(MalformedCycle):
        parse_cycles("(1 x)", 5)
    with pytest.raises(MalformedCycle):
        parse_cycles("", 5)


def test_parse_point_out_of_range():
    with pytest.raises(PointOutOfRange):
        parse_cycles("(1 8)", 7)
    with pytest.raises(PointOutOfRange):
        parse_cycles("(0 1)", 7)


def _reference_parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """The cycle-at-a-time parser that the bulk one replaced: the images it
    gives, or the exception it raises, are the specification."""
    if degree < 1:
        raise ValueError("degree must be positive")
    s = text.strip()
    if s == "id":
        return tuple(range(degree))
    if not s:
        raise MalformedCycle("empty cycle expression")
    images = list(range(degree))
    seen: set[int] = set()
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise MalformedCycle(f"expected '(' at position {i} in {text!r}")
        close = s.find(")", i + 1)
        if close < 0:
            raise MalformedCycle(f"unclosed cycle in {text!r}")
        points = []
        for tok in s[i + 1:close].replace(",", " ").split():
            if not tok.isdecimal():
                raise MalformedCycle(f"non-numeric token {tok!r} in {text!r}")
            points.append(int(tok))
        for p in points:
            if not 1 <= p <= degree:
                raise PointOutOfRange(f"point {p} outside 1..{degree}")
            if p in seen:
                raise RepeatedPoint(f"point {p} repeated in {text!r}")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
        i = close + 1
    return tuple(images)


def _parse_outcome(parse, text, degree):
    try:
        result = parse(text, degree)
    except (LinhypError, ValueError) as exc:
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else result.images


@st.composite
def _cycle_texts(draw):
    """The cycle string of a random permutation, with its separators
    redrawn from spaces, commas and tabs."""
    degree = draw(st.integers(1, 12))
    images = draw(st.permutations(range(degree)))
    gap = st.sampled_from(["", " ", "  ", "\t"])
    sep = st.sampled_from([" ", ",", " , ", "\t"])
    text = draw(gap)
    for cycle in Permutation(images).cycles():
        text += "(" + draw(gap) + draw(sep).join(map(str, cycle)) + ")" + draw(gap)
    return text or "()", degree


# "٣" is ARABIC-INDIC DIGIT THREE, a decimal digit that int() reads as 3;
# int() refuses the 4301 digits under its default limit
_CYCLE_TOKENS = ["x", "٣", "0", "1", "2", "3", "5", "8", "12", "007", "99",
                 "1" * 4301]
_CYCLE_CHUNKS = st.one_of(
    st.sampled_from(["(", ")", ",", " ", *_CYCLE_TOKENS]),
    st.lists(st.sampled_from(_CYCLE_TOKENS), max_size=4).map(
        lambda tokens: "(" + " ".join(tokens) + ")"))


@settings(max_examples=500, deadline=None, derandomize=True)
@example(("(9 1)(2 " + "1" * 4301 + ")", 5))  # 9 is out of range before int()
@given(st.one_of(
    _cycle_texts(),
    st.tuples(st.lists(_CYCLE_CHUNKS, max_size=6).map("".join),
              st.integers(1, 9))))
def test_parse_cycles_matches_the_cycle_at_a_time_reference(case):
    text, degree = case
    # the reference reads a point of any length; parse_cycles must refuse
    # one of more digits than the degree without needing that
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = _parse_outcome(_reference_parse_cycles, text, degree)
    finally:
        sys.set_int_max_str_digits(limit)
    assert _parse_outcome(parse_cycles, text, degree) == expected


def test_degree_one_permutation():
    e = parse_cycles("(1)", 1)
    assert (e * e).images == (0,) and e * e == e
    assert not e.is_involution()
    assert e.fixed_points() == (1,)


def test_cycle_string_round_trip():
    for text in ["(1 2)(3 5)", "(1 4 2 3 5)", "()"]:
        p = parse_cycles(text, 7)
        assert parse_cycles(p.cycle_string(), 7) == p


def test_composition_is_left_to_right():
    # applying (1 2)(3 5) then (1 3)(2 4) sends 1 -> 2 -> 4
    p = parse_cycles("(1 2)(3 5)", 5) * parse_cycles("(1 3)(2 4)", 5)
    assert p == parse_cycles("(1 4 2 3 5)", 5)


def test_power_and_inverse():
    p = parse_cycles("(1 2 3 4 5)", 5)
    assert (p ** 5).is_identity()
    assert (p * p.inverse()).is_identity()
    assert p ** -1 == p.inverse()


# --- closure -----------------------------------------------------------------


def test_closure_s3():
    g = closure([parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)])
    assert g.order == 6


def test_closure_a5xz2_order(a5xz2):
    assert a5xz2.order == 120


def test_closure_single_involution():
    assert closure([parse_cycles("(1 2)", 2)]).order == 2


def test_closure_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        closure([parse_cycles("(1 2)", 2), parse_cycles("(1 2 3)", 3)])


def test_closure_cap():
    with pytest.raises(GroupTooLarge):
        closure([parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)],
                max_order=30)


def test_closure_caps_order_times_degree():
    # 64 images per element of the cap: a 100-cycle may close to 6 elements
    # of degree 100 under a cap of 10, where the order cap alone allows 10
    cycle = parse_cycles("(" + " ".join(map(str, range(1, 101))) + ")", 100)
    with pytest.raises(GroupTooLarge, match="degree 100 exceeded 6 elements, "
                       "the budget of 640 images"):
        closure([cycle], max_order=10)
    assert closure([cycle], max_order=157).order == 100   # 64*157 >= 100*100


def test_canonical_element_order(s4):
    assert s4.elements[0].is_identity()
    images = [e.images for e in s4.elements]
    assert images == sorted(images)


def test_element_order_deterministic_across_generator_orderings():
    a = closure([parse_cycles("(1 2 3)", 4), parse_cycles("(1 2 3 4)", 4)])
    b = closure([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2 3)", 4)])
    assert [e.images for e in a.elements] == [e.images for e in b.elements]


def test_mul_table_matches_composition(s4):
    for i in range(s4.order):
        for j in range(s4.order):
            composed = s4.elements[i] * s4.elements[j]
            assert s4.elements[s4.mul(i, j)] == composed


_TABLE_GROUPS = {
    "trivial": (["()"], 1),
    "z2": (["(1 2)"], 2),
    "s4": (["(1 2)", "(1 2 3 4)"], 4),
    "a5xz2": (["(1 2 3 4 5)", "(1 2 3)", "(6 7)"], 7),
    "psl27": (["(1 2 3 4 5 6 7)", "(1 2)(3 6)"], 7),
    "s4xz2xz2": (["(1 2)", "(1 2 3 4)", "(5 6)", "(7 8)"], 8),
}


@pytest.mark.parametrize("name", sorted(_TABLE_GROUPS))
def test_table_build_matches_brute_force(name):
    words, degree = _TABLE_GROUPS[name]
    g = closure([parse_cycles(w, degree) for w in words])
    assert len(g.generator_indices) == len(words)
    n = g.order
    for i in range(n):
        for j in range(n):
            assert g.mul(i, j) == g.index_of(g.elements[i] * g.elements[j])
    view = g.table_view()
    assert view.shape == (n, n) and view.dtype.name == "uint16"
    assert not view.flags.writeable
    assert view[n - 1, n - 1] == g.mul(n - 1, n - 1)


_LABEL_GROUPS = {
    "s4xz2": (["(1 2)", "(1 2 3 4)", "(5 6)"], 6),
    "psl27": (["(1 2 3 4 5 6 7)", "(1 2)(3 6)"], 7),
    "a6": (["(1 2 3 4 5)", "(4 5 6)"], 6),
}


@pytest.mark.parametrize("name", sorted(_LABEL_GROUPS))
def test_centraliser_labels_and_classes_match_brute_force(name):
    from linhyp.permgroup import _conjugacy_classes, _label_classes

    words, degree = _LABEL_GROUPS[name]
    g = closure([parse_cycles(w, degree) for w in words])
    n, mul = g.order, g.mul
    elements = range(n)

    def label(x):
        return (g.element_order(x),
                sum(mul(x, y) == mul(y, x) for y in elements))

    conjugates = [{mul(mul(g.inverse_index(h), x), h) for h in elements}
                  for x in elements]
    class_of = _conjugacy_classes(g)
    assert class_of == [min(conjugates[x]) for x in elements]
    classes = _label_classes(g, class_of)
    assert sorted(x for cls in classes for x in cls) == list(range(1, n))
    labels = [{label(x) for x in cls} for cls in classes]
    assert all(len(ls) == 1 for ls in labels)
    assert len(set.union(*labels)) == len(classes)
    assert classes == sorted(classes, key=lambda c: (len(c), c[0]))

    # _generating_tuple's first entries: the roots, in a class's order, are
    # the first member met of each conjugacy class
    for members in classes:
        assert members == sorted(members)
        expected = []
        for a in members:
            if not any(a in conjugates[r] for r in expected):
                expected.append(a)
        assert [x for x in members if class_of[x] == x] == expected


# --- subgroups ---------------------------------------------------------------


def test_generated_subgroup_order_60(a5xz2):
    h = generated_subgroup(a5xz2, [
        a5xz2.index_of(parse_cycles("(1 4 2 3 5)", 7)),
        a5xz2.index_of(parse_cycles("(1 4)(2 3)", 7)),
    ])
    assert len(h) == 60


def test_generated_subgroup_identity(a5xz2):
    assert len(generated_subgroup(a5xz2, [0])) == 1


def test_generated_subgroup_order_120(a5xz2):
    h = generated_subgroup(a5xz2, [
        a5xz2.index_of(parse_cycles("(1 3 5 2 4)", 7)),
        a5xz2.index_of(parse_cycles("(1 3)(2 4)(6 7)", 7)),
    ])
    assert len(h) == 120


def test_generated_subgroup_bad_seed(a5xz2):
    with pytest.raises(IndexOutOfRange):
        generated_subgroup(a5xz2, [a5xz2.order])
    with pytest.raises(IndexOutOfRange):
        generated_subgroup(a5xz2, [])


@pytest.mark.parametrize("seeds", [(24,), (-1,), (1, 24), (1, -1)])
def test_subgroup_bits_rejects_out_of_range_seed(s4, seeds):
    with pytest.raises(IndexOutOfRange):
        s4.subgroup_bits(seeds)


def _breadth_first_closure(group, seeds):
    """Oracle: the subgroup generated by ``seeds``, one ``mul`` per product."""
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in seeds:
            y = group.mul(x, s)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sum(1 << x for x in seen)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_generators, st.data())
def test_subgroup_bits_matches_breadth_first_closure(images, data):
    gens = [Permutation(p) for p in images]
    group = closure(gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permgroup, "TABLE_LIMIT", 0)
        tableless = closure(gens)
    assert group.has_table and not tableless.has_table
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=4))
    inner = [group.mul(seeds[0], seeds[-1])] if seeds else []
    seed_lists = [
        [], [0], seeds,
        [0] + [s for s in seeds for _ in range(2)],  # identity and repeats
        seeds + inner,  # a seed already in the subgroup of the earlier ones
    ]
    for g in (group, tableless):
        for s in seed_lists:
            assert g.subgroup_bits(s) == _breadth_first_closure(g, s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_generators, st.data())
def test_conjugation_and_columns_match_mul_with_and_without_table(images,
                                                                  data):
    from linhyp.permgroup import _conjugacy_classes
    gens = [Permutation(p) for p in images]
    group = closure(gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permgroup, "TABLE_LIMIT", 0)
        tableless = closure(gens)
    n, mul = group.order, tableless.mul  # mul composes permutations
    g = data.draw(st.integers(0, n - 1))
    points = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    ginv = group.inverse_index(g)
    conjugate = [mul(mul(ginv, x), g) for x in range(n)]
    bits = group.subgroup_bits(seeds)
    h = [x for x in range(n) if bits >> x & 1]
    core = normal_core(group, ElementSet(group, bits)).bits
    assert all(core >> conjugate[x] & 1 for x in h if core >> x & 1)
    for grp in (group, tableless):
        assert grp._conjugates(g, points) == tuple(map(conjugate.__getitem__,
                                                       points))
        assert grp._column(g) == [mul(x, g) for x in range(n)]
        h_set = ElementSet(grp, bits)
        assert conjugate_set(grp, h_set, g).bits == sum(
            1 << conjugate[x] for x in h)
        assert normal_core(grp, h_set).bits == core
    assert _conjugacy_classes(group) == _conjugacy_classes(tableless)


def test_flag_hypermap_matches_mul_with_and_without_table(
        a5xz2, a5xz2_classes, monkeypatch):
    from linhyp.regular import to_flag_hypermap
    maps = [c.hypermap for c in a5xz2_classes.classes]
    expected = [[Permutation([a5xz2.mul(x, r) for x in range(a5xz2.order)])
                 for r in m.triple.indices] for m in maps]

    def flags():
        return [[f.r0, f.r1, f.r2] for f in map(to_flag_hypermap, maps)]
    assert flags() == expected
    monkeypatch.setattr(a5xz2, "_flat", None)
    assert not a5xz2.has_table
    assert flags() == expected


@pytest.mark.parametrize("table", [True, False])
def test_subgroup_of_exactly_half_the_group_keeps_its_own_bits(table):
    # the closure stops only past |G|/2: A5 in S5 (cosets of <(1 2 3)>) and
    # the rotations of D8 (one cyclic seed, or cosets of <rho^2>) have
    # exactly |G|/2 elements and are not the whole group
    with pytest.MonkeyPatch.context() as mp:
        if not table:
            mp.setattr(permgroup, "TABLE_LIMIT", 0)
        s5 = closure([parse_cycles(w, 5) for w in ("(1 2)", "(1 2 3 4 5)")])
        d8 = closure([parse_cycles(w, 8) for w in ("(1 2 3 4 5 6 7 8)",
                                                   "(2 8)(3 7)(4 6)")])
    assert s5.has_table is table and d8.has_table is table
    even = sum(1 << i for i, p in enumerate(s5.elements)
               if sum(len(c) - 1 for c in p.cycles()) % 2 == 0)
    seeds = [s5.index_of(parse_cycles(w, 5)) for w in ("(1 2 3)", "(3 4 5)")]
    assert s5.subgroup_bits(seeds) == even and even.bit_count() == 60
    rho = d8.index_of(parse_cycles("(1 2 3 4 5 6 7 8)", 8))
    rotations = _breadth_first_closure(d8, [rho])
    assert rotations.bit_count() == 8
    assert d8.subgroup_bits([rho]) == rotations
    assert d8.subgroup_bits([d8.mul(rho, rho), rho]) == rotations


def _built(build, table):
    """``build()``, with or without a multiplication table."""
    with pytest.MonkeyPatch.context() as mp:
        if not table:
            mp.setattr(permgroup, "TABLE_LIMIT", 0)
        group = build()
    assert group.has_table is table
    return group


def _closed(words, degree, table):
    return _built(lambda: closure([parse_cycles(w, degree) for w in words]),
                  table)


def _bench_group(name, table):
    path = REPO_ROOT / "perfbench" / "groups" / f"{name}.grp"
    return _built(lambda: parse_group_file(path).group, table)


@pytest.mark.parametrize("table", [True, False])
@pytest.mark.parametrize("name, index", [
    ("a5", 5), ("psl27", 5), ("a6", 5), ("a7", 5),  # perfect
    ("a4", 3),  # G^2 = G, G' = V4
    ("s4", 2), ("s6xz2", 2), ("z2cubed", 2),
    ("trivial", 5),  # perfect, not simple, with no proper subgroup
])
def test_largest_proper_subgroup_order(name, index, table):
    # |G|/index: past it a walk returns G when the perfect residual N is G
    # or trivial; with a table, a simple G gives mu, the least m with |G|
    # dividing m!: /6 on A6, /7 on PSL(2,7) and A7.  s6xz2 has N = A6,
    # simple too, with mu = 6 found with the table and 5 without: a span
    # with <seeds>·N = G returns G past |G|/mu, and the largest <seeds>·N
    # below G has |G|/index elements
    simple = {"psl27": 7, "a6": 6, "a7": 7} if table else {}
    words = {"a4": (("(1 2 3)", "(1 2)(3 4)"), 4), "trivial": (("()",), 1)}
    if name in words:
        group = _closed(*words[name], table)
    else:
        group = _bench_group(name, table)
    n, whole = group.order, (1 << group.order) - 1
    exits = group._find_exits()
    if exits.cosets is None:
        assert exits.first == n // simple.get(name, index)
    else:
        gens = group.generator_indices
        assert group._residual_span(exits, gens) == whole
        mu = 6 if table else 5
        assert (exits.mu, exits.first) == (mu, 360 // mu)
        assert exits.largest_proper(n, 1) == n // mu
        spans = [group._residual_span(exits, [c]) for c in exits.cosets]
        assert max(m.bit_count() for m in spans if m != whole) == n // index
    # the normal closure of g^2 and (gh)^2 is the closure of all squares
    squares = sorted({group.mul(x, x) for x in range(n)})
    assert group._square_bits() == _breadth_first_closure(group, squares)


# (mu, first) with the table: trivial perfect residuals give 2 (none of
# these groups has G^2 = G), simple ones the least m with |N| dividing m!,
# which is 5 for A5; s6xz2's A6 is the one proper N that raises mu above 5
_BUNDLED_EXITS = {
    "a5": (5, 12), "a5xz2": (5, 12), "a6": (6, 60), "a7": (7, 360),
    "psl27": (7, 24), "s4": (2, 12), "s4xz2": (2, 24), "s5": (5, 12),
    "s5xz2": (5, 12), "s6xz2": (6, 60), "z2cubed": (2, 4),
}


@pytest.mark.parametrize("name", sorted(_BUNDLED_EXITS))
def test_bundled_exits_and_the_simple_proper_residual(name):
    group = _bench_group(name, True)
    exits = group._find_exits()
    assert (exits.mu, exits.first) == _BUNDLED_EXITS[name]
    n, whole = group.order, (1 << group.order) - 1
    if name == "s6xz2":
        # N = A6 is simple and lies in no S_m for m < 6: a span that
        # generates G returns it past 1440/6 = 240 elements, not 1440/5
        assert exits.largest_proper(n, 1) == 240
        # a closure inside N stops at N itself, the coset of the identity
        seeds = [group.index_of(parse_cycles(w, 8))
                 for w in ("(1 2 3 4 5)", "(4 5 6)")]
        assert exits.cosets[0].bit_count() == 360
        assert group.subgroup_bits(seeds) == exits.cosets[0]
    # past |N|/mu elements, or |G|/mu when N is G or trivial, M is found
    residual = exits.cosets[0].bit_count() if exits.cosets else n
    assert exits.first == residual // exits.mu
    if exits.cosets:
        assert group._residual_span(exits, group.generator_indices) == whole


@pytest.mark.parametrize("table", [True, False])
def test_subgroup_at_the_largest_proper_order_keeps_its_own_bits(table):
    # the closure stops only past the bound: A4 in the perfect A5 has
    # 12 = 60/5 elements, V4 in A4 (G^2 = G) 4 = 12/3, and the cyclic
    # subgroup of order 3 in Z9 (G^2 = G) 3 = 9/3, found by the cyclic stage
    a5 = _closed(("(1 2 3 4 5)", "(1 2 3)"), 5, table)
    a4 = _closed(("(1 2 3)", "(1 2)(3 4)"), 4, table)
    z9 = _closed(("(1 2 3 4 5 6 7 8 9)",), 9, table)
    for group, words, order in (
            (a5, ("(1 2 3)", "(1 2)(3 4)"), 12),
            (a4, ("(1 2)(3 4)", "(1 3)(2 4)"), 4),
            (z9, ("(1 4 7)(2 5 8)(3 6 9)",), 3)):
        assert group._find_exits().first == order
        seeds = [group.index_of(parse_cycles(w, group.degree)) for w in words]
        bits = group.subgroup_bits(seeds)
        assert bits == _breadth_first_closure(group, seeds)
        assert bits.bit_count() == order


@pytest.mark.parametrize("table", [True, False])
@pytest.mark.parametrize("name, words, mu", [
    ("a7", ("(1 2 3 4 5)", "(4 5 6)"), 7),  # A6, the stabiliser of 7
    ("psl27", None, 7),  # S4, the stabiliser of 1
    ("a6", ("(1 2 3 4 5)", "(1 2 3)"), 6),  # A5, the stabiliser of 6
    ("s5", ("(1 2)", "(1 2 3 4)"), 5),  # S4, with <seeds>·A5 = S5
])
def test_subgroup_of_exactly_the_exit_order_keeps_its_own_bits(
        name, words, mu, table):
    # each subgroup has |M|/mu elements for M = <seeds>·N, the most a
    # proper subgroup of M can have, so the walk does not stop at M
    group = _bench_group(name, table)
    exits = group._find_exits()
    assert exits.mu == (mu if table else 5)
    if words is None:
        seeds = [i for i, p in enumerate(group.elements) if p.images[0] == 0]
    else:
        seeds = [group.index_of(parse_cycles(w, group.degree)) for w in words]
    bits = group.subgroup_bits(seeds)
    assert bits == _breadth_first_closure(group, seeds)
    assert bits.bit_count() * mu == group.order


def test_perfect_group_that_is_not_simple_keeps_mu_at_5():
    # A5 x A5 is perfect, and 3600 divides no m! below 10!, but it is not
    # simple: A5 x A4 has index 5 and keeps its own bits
    g = closure([parse_cycles(w, 10) for w in (
        "(1 2 3 4 5)", "(1 2 3)", "(6 7 8 9 10)", "(6 7 8)")])
    assert g.has_table and g.order == 3600
    exits = g._find_exits()
    assert (exits.mu, exits.first, exits.cosets) == (5, 720, None)
    seeds = [g.index_of(parse_cycles(w, 10)) for w in (
        "(1 2 3 4 5)", "(1 2 3)", "(6 7 8)", "(6 7)(8 9)")]
    bits = g.subgroup_bits(seeds)
    assert bits == _breadth_first_closure(g, seeds)
    assert bits.bit_count() == 720


@pytest.mark.parametrize("table", [True, False])
def test_seeds_spanning_s6_in_s6xz2_return_that_index_2_subgroup(table):
    s6xz2 = _bench_group("s6xz2", table)
    seeds = [s6xz2.index_of(parse_cycles(w, 8))
             for w in ("(1 2)", "(1 2 3 4 5 6)")]
    s6 = sum(1 << i for i, p in enumerate(s6xz2.elements) if p.images[6] == 6)
    assert s6.bit_count() == 720
    exits = s6xz2._find_exits()
    assert exits.first == 360 // (6 if table else 5) and len(exits.cosets) == 4
    assert s6xz2._residual_span(exits, seeds) == s6
    assert s6xz2.subgroup_bits(seeds) == s6


@pytest.mark.parametrize("table", [True, False])
@pytest.mark.parametrize("name", ["s5", "a5xz2", "s5xz2", "s6xz2"])
def test_subgroup_bits_matches_breadth_first_closure_on_seeded_seeds(
        name, table):
    # seeds drawn from the whole group, the involutions, G^2 and the
    # stabiliser of the point 1, so that <seeds>·N runs over G and its
    # proper subgroups holding the perfect residual N
    import random
    group = _bench_group(name, table)
    n = group.order
    squares = group._square_bits()
    pools = [range(n), involutions(group),
             [x for x in range(n) if squares >> x & 1],
             [i for i, p in enumerate(group.elements) if p.images[0] == 0]]
    rng = random.Random(f"{name}-seeds")
    for _ in range(300 if table else 60):
        pool = rng.choice(pools)
        seeds = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        assert group.subgroup_bits(seeds) == _breadth_first_closure(
            group, seeds), seeds


@pytest.mark.parametrize("name", ["a5xz2", "s5"])
def test_normal_core_is_the_meet_of_all_conjugates(name):
    group = _bench_group(name, True)
    n, mul, inv = group.order, group.mul, group.inverse_index
    invs = involutions(group)
    for a, b in itertools.combinations(invs, 2):
        h = _breadth_first_closure(group, [a, b])
        members = [x for x in range(n) if h >> x & 1]
        meet = h
        for g in range(n):
            meet &= sum(1 << mul(mul(inv(g), x), g) for x in members)
        assert normal_core(group, ElementSet(group, h)).bits == meet


def test_generating_pair_of_a7_stops_past_half_the_group(monkeypatch):
    a7 = closure([parse_cycles(w, 7) for w in ("(1 2 3 4 5 6 7)", "(1 2 3)")])
    n = a7.order
    s, t = (a7.index_of(parse_cycles(w, 7)) for w in ("(1 2 3 4 5 6 7)", "(1 2 3)"))
    block = a7.element_order(s)
    # A7 is simple and embeds in no S_m for m < 7: found with the table,
    # which is then set aside, so that every element gathered is one mul
    assert a7._square_bits() == (1 << n) - 1 and a7._exits.first == n // 7
    monkeypatch.setattr(a7, "_flat", None)
    calls = 0
    mul = a7.mul

    def counting_mul(i, j):
        nonlocal calls
        calls += 1
        return mul(i, j)

    monkeypatch.setattr(a7, "mul", counting_mul)
    assert a7.subgroup_bits((s, t)) == (1 << n) - 1
    # the cyclic group <s> and its cosets, at most n/7 + |<s>| before the
    # walk stops, plus one step per seed from each coset representative
    # walked; the full walk would gather all n
    assert calls <= n // 7 + block + 2 * (n // (7 * block) + 1) < n


def test_lagrange_for_all_involution_pairs(s4):
    invs = involutions(s4)
    for a, b in itertools.combinations(invs, 2):
        h = generated_subgroup(s4, [a, b])
        assert s4.order % len(h) == 0


def test_subgroup_index_30(a5xz2):
    h = generated_subgroup(a5xz2, [
        a5xz2.index_of(parse_cycles("(1 4)(2 3)", 7)),
        a5xz2.index_of(parse_cycles("(1 3)(2 4)(6 7)", 7)),
    ])
    assert len(h) == 4
    assert subgroup_index(a5xz2, h) == 30


def test_subgroup_index_whole_group(s4):
    whole = ElementSet(s4, (1 << s4.order) - 1)
    assert subgroup_index(s4, whole) == 1


def test_subgroup_index_2(a5xz2):
    h = generated_subgroup(a5xz2, [
        a5xz2.index_of(parse_cycles("(1 4 2 3 5)", 7)),
        a5xz2.index_of(parse_cycles("(1 4)(2 3)", 7)),
    ])
    assert subgroup_index(a5xz2, h) == 2


def test_subgroup_index_rejects_non_subgroup(s4):
    some = ElementSet.from_indices(s4, [0, 1, 2])
    if not some.is_subgroup():
        with pytest.raises(NotASubgroup):
            subgroup_index(s4, some)


# --- normal core ---------------------------------------------------------------


def test_normal_core_trivial(a5xz2):
    h = generated_subgroup(a5xz2, [
        a5xz2.index_of(parse_cycles("(1 2)(3 4)(6 7)", 7)),
        a5xz2.index_of(parse_cycles("(1 3)(2 4)(6 7)", 7)),
    ])
    core = normal_core(a5xz2, h)
    assert core.indices() == [0]


def test_normal_core_central_involution():
    from linhyp.constructions import dihedral_times_z2_group
    group, r0, r1, a = dihedral_times_z2_group(5)
    h = generated_subgroup(group, [r1, a])
    core = normal_core(group, h)
    assert core.indices() == [0, a]


def test_normal_core_of_whole_group(s4):
    whole = ElementSet(s4, (1 << s4.order) - 1)
    assert normal_core(s4, whole).bits == whole.bits


def test_normal_core_rejects_non_subgroup(s4):
    x = s4.index_of(parse_cycles("(1 2 3)", 4))
    with pytest.raises(NotASubgroup):
        normal_core(s4, ElementSet.from_indices(s4, [0, x]))


def test_normal_core_is_normal_and_contained(s4):
    invs = involutions(s4)
    for a, b in itertools.combinations(invs, 2):
        h = generated_subgroup(s4, [a, b])
        core = normal_core(s4, h)
        assert core.bits & ~h.bits == 0
        for g in range(s4.order):
            assert conjugate_set(s4, core, g).bits == core.bits


# --- product sets ----------------------------------------------------------------


def _perm_subgroup_oracle(degree, words):
    gens = [parse_cycles(w, degree) for w in words]
    seen = {Permutation.identity(degree)}
    queue = list(seen)
    while queue:
        x = queue.pop()
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def test_product_set_subgroup_idempotent(s4):
    h = generated_subgroup(s4, involutions(s4)[:2])
    assert product_set(h, h).bits == h.bits


def test_product_set_identity(a5xz2):
    ident = ElementSet.from_indices(a5xz2, [0])
    b = generated_subgroup(a5xz2, involutions(a5xz2)[:2])
    assert product_set(ident, b).bits == b.bits
    assert product_set(b, ident).bits == b.bits


def test_product_set_matches_brute_force(a5xz2):
    # oracle: compose the permutations of both subgroups directly
    h_words = ["(1 2)(3 4)(6 7)", "(1 3)(2 4)(6 7)"]
    k_words = ["(1 2)(3 5)(6 7)", "(1 3)(2 4)(6 7)"]
    h_perms = _perm_subgroup_oracle(7, h_words)
    k_perms = _perm_subgroup_oracle(7, k_words)
    expected = {a * b for a in h_perms for b in k_perms}
    assert (len(h_perms), len(k_perms)) == (4, 10)
    assert len(h_perms & k_perms) == 2
    assert len(expected) == 20

    h = generated_subgroup(a5xz2, [a5xz2.index_of(parse_cycles(w, 7))
                                   for w in h_words])
    k = generated_subgroup(a5xz2, [a5xz2.index_of(parse_cycles(w, 7))
                                   for w in k_words])
    hk = product_set(h, k)
    assert len(hk) == 20
    assert {a5xz2.elements[i] for i in hk.indices()} == expected


def test_product_set_of_two_klein_subgroups(a5xz2):
    # |H K| = |H| |K| / |H n K| = 4 * 4 / 2 = 8
    h = generated_subgroup(a5xz2, [
        a5xz2.index_of(parse_cycles("(1 2)(3 4)", 7)),
        a5xz2.index_of(parse_cycles("(1 3)(2 4)", 7))])
    k = generated_subgroup(a5xz2, [
        a5xz2.index_of(parse_cycles("(1 2)(3 4)", 7)),
        a5xz2.index_of(parse_cycles("(6 7)", 7))])
    assert len(h) == len(k) == 4
    assert len(h.intersection(k)) == 2
    assert len(product_set(h, k)) == 8


def test_product_set_group_mismatch(s4, a5xz2):
    h = generated_subgroup(s4, [1])
    k = generated_subgroup(a5xz2, [1])
    with pytest.raises(GroupMismatch):
        product_set(h, k)


# --- element orders and involutions ----------------------------------------------


def test_element_order_examples(a5xz2):
    assert a5xz2.element_order(0) == 1
    assert a5xz2.element_order(
        a5xz2.index_of(parse_cycles("(1 4 2 3 5)", 7))) == 5
    assert a5xz2.element_order(
        a5xz2.index_of(parse_cycles("(3 5 4)", 7))) == 3


def test_element_order_bad_index(s4):
    with pytest.raises(IndexOutOfRange):
        s4.element_order(s4.order)


def test_index_of_rejects_foreign_permutation(s4):
    with pytest.raises(NotInGroup):
        s4.index_of(parse_cycles("(1 2 3)", 5))


def test_involution_counts(s4, a5xz2):
    assert len(involutions(s4)) == 9
    z2 = closure([parse_cycles("(1 2)", 2)])
    assert len(involutions(z2)) == 1
    assert len(involutions(a5xz2)) == 31


# --- automorphisms -----------------------------------------------------------------


def test_automorphism_group_s3_brute_force():
    g = closure([parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)])
    auts = automorphism_group(g)
    assert len(auts) == 6
    # oracle: scan all bijections fixing the identity for table homomorphy
    n = g.order
    expected = set()
    for perm in itertools.permutations(range(1, n)):
        mapping = (0,) + perm
        if all(mapping[g.mul(i, j)] == g.mul(mapping[i], mapping[j])
               for i in range(n) for j in range(n)):
            expected.add(mapping)
    assert {a.mapping for a in auts} == expected


def test_automorphism_group_z2():
    z2 = closure([parse_cycles("(1 2)", 2)])
    auts = automorphism_group(z2)
    assert len(auts) == 1
    assert auts[0].mapping == (0, 1)


def _generator_image_search(group, generator_words):
    """Independent oracle: try every order-compatible image tuple of a
    fixed generating set and keep full table homomorphisms."""
    gens = [group.index_of(parse_cycles(w, group.degree))
            for w in generator_words]
    assert group.subgroup_bits(gens).bit_count() == group.order
    # breadth-first parent links: each e was first reached as parent * gens[k]
    elems, defs = [0], {}
    for e in elems:
        for k, g in enumerate(gens):
            x = group.mul(e, g)
            if x != 0 and x not in defs:
                defs[x] = (e, k)
                elems.append(x)
    by_order = {}
    for i in range(group.order):
        by_order.setdefault(group.element_order(i), []).append(i)

    found = set()
    for imgs in itertools.product(
            *[by_order[group.element_order(g)] for g in gens]):
        m = [-1] * group.order
        m[0] = 0
        for e in elems[1:]:
            parent, k = defs[e]
            m[e] = group.mul(m[parent], imgs[k])
        if len(set(m)) != group.order:
            continue
        if all(m[group.mul(e, g)] == group.mul(m[e], imgs[k])
               for e in range(group.order) for k, g in enumerate(gens)):
            found.add(tuple(m))
    return found


def test_automorphism_group_a5xz2(a5xz2):
    auts = automorphism_group(a5xz2)
    assert len(auts) == 120
    expected = _generator_image_search(a5xz2, ["(1 2 3 4 5)(6 7)", "(1 2 3)"])
    assert {a.mapping for a in auts} == expected


def test_automorphism_group_s4xz2(s4xz2):
    auts = automorphism_group(s4xz2)
    assert len(auts) == 48
    expected = _generator_image_search(s4xz2, ["(1 2 3 4)(5 6)", "(1 2)"])
    assert {a.mapping for a in auts} == expected


@pytest.mark.parametrize("name", ["s4", "a5xz2"])
def test_cayley_walk_gives_order_code_and_automorphism_images(name, request):
    from linhyp.permgroup import (
        _cayley_walk,
        _conjugacy_classes,
        _generating_tuple,
        _label_classes,
    )

    g = request.getfixturevalue(name)
    n = g.order
    class_of = _conjugacy_classes(g)
    gens = _generating_tuple(g, _label_classes(g, class_of), class_of)
    k = len(gens)
    order, code = _cayley_walk(g, gens)
    assert sorted(order) == list(range(n))
    assert len(code) == n * k
    for p, x in enumerate(order):
        for j, h in enumerate(gens):
            assert order[code[p * k + j]] == g.mul(x, h)

    part, _ = _cayley_walk(g, gens[:1])
    assert len(part) < n

    accepted = {imgs for imgs in itertools.product(range(n), repeat=k)
                if _cayley_walk(g, imgs, code) is not None}
    assert accepted == {tuple(a(h) for h in gens)
                        for a in automorphism_group(g)}


def test_automorphisms_multiplicative(s4):
    for a in automorphism_group(s4):
        m = a.mapping
        assert all(m[s4.mul(i, j)] == s4.mul(m[i], m[j])
                   for i in range(s4.order) for j in range(s4.order))


def test_automorphisms_form_a_group(s4):
    auts = set(automorphism_group(s4))
    for a in auts:
        assert a.inverse() in auts
        for b in auts:
            assert a.compose(b) in auts


def test_concurrent_callers_list_the_automorphisms_once(monkeypatch):
    g = closure([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2)", 4)])
    calls = []
    compute = permgroup._compute_automorphisms

    def counted(group, max_order):
        calls.append(group)
        return compute(group, max_order)

    monkeypatch.setattr(permgroup, "_compute_automorphisms", counted)
    barrier = threading.Barrier(8, timeout=30)
    lists = []

    def ask():
        barrier.wait()
        lists.append(automorphism_group(g))

    threads = [threading.Thread(target=ask) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == [g]
    assert len(lists) == 8 and len(lists[0]) == 24
    assert all(auts == lists[0] for auts in lists)


def test_pickled_group_keeps_its_automorphisms(monkeypatch):
    g = closure([parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)])
    mappings = [a.mapping for a in automorphism_group(g)]

    def refuse(group, max_order):
        raise AssertionError("automorphisms listed again")

    monkeypatch.setattr(permgroup, "_compute_automorphisms", refuse)
    copy = pickle.loads(pickle.dumps(g))
    assert [a.mapping for a in automorphism_group(copy)] == mappings
    assert all(a.group is copy for a in automorphism_group(copy))


def test_automorphism_cap():
    g = closure([parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)])
    with pytest.raises(GroupTooLargeForAut):
        automorphism_group(g, max_order=5)


def _elementary_abelian(rank):
    degree = 2 * rank
    return closure([parse_cycles(f"({2 * i + 1} {2 * i + 2})", degree)
                    for i in range(rank)])


def test_automorphism_cap_bounds_the_stored_mappings():
    # Aut(Z2^5) = GL(5,2) has 9999360 elements; 64^2 entries hold only
    # 4096 / 32 = 128 mappings, so the enumeration stops at the 129th
    with pytest.raises(GroupTooLargeForAut, match="128"):
        automorphism_group(_elementary_abelian(5), max_order=64)


def test_automorphism_cap_applies_to_a_cached_list():
    g = _elementary_abelian(4)
    assert len(automorphism_group(g)) == 20160      # GL(4,2)
    with pytest.raises(GroupTooLargeForAut):
        automorphism_group(g, max_order=256)        # 256^2 / 16 = 4096


def test_elementary_abelian_aut_refused_before_enumeration():
    # GL(5,2) has 9999360 elements, past the 2048^2 / 32 = 131072 the
    # default cap stores; the refusal must not enumerate them first
    g = _elementary_abelian(5)
    start = time.perf_counter()
    with pytest.raises(GroupTooLargeForAut, match="131072"):
        automorphism_group(g)
    assert time.perf_counter() - start < 1.0


def test_minimal_generating_sequence_generates(s4, a5xz2):
    for g in (s4, a5xz2):
        gens = minimal_generating_sequence(g)
        assert g.subgroup_bits(gens).bit_count() == g.order
        for drop in range(len(gens)):
            rest = gens[:drop] + gens[drop + 1:]
            if rest:
                assert g.subgroup_bits(rest).bit_count() < g.order


def test_closure_cap_env_override(monkeypatch):
    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", "10")
    with pytest.raises(GroupTooLarge):
        closure([parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)])
    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", "200")
    assert closure([parse_cycles("(1 2 3 4 5)", 5),
                    parse_cycles("(1 2 3)", 5)]).order == 60


def test_large_group_skips_dense_table():
    # an elementary abelian group of order 8192 exceeds the table limit;
    # multiplication falls back to composing permutations
    gens = [parse_cycles(f"({2 * i + 1} {2 * i + 2})", 26) for i in range(13)]
    g = closure(gens)
    assert g.order == 8192
    assert not g.has_table
    i = g.index_of(gens[0])
    j = g.index_of(gens[1])
    assert g.elements[g.mul(i, j)] == gens[0] * gens[1]
    assert g.element_order(i) == 2
    assert len(generated_subgroup(g, [i, j])) == 4


def test_product_bits_without_table_matches_table(a5xz2, monkeypatch):
    sets = [sum(1 << i for i in range(a, a + 30, 7)) for a in range(0, 90, 11)]
    expected = [a5xz2.product_bits(x, y) for x in sets for y in sets]
    monkeypatch.setattr(a5xz2, "_flat", None)
    assert not a5xz2.has_table
    assert [a5xz2.product_bits(x, y) for x in sets for y in sets] == expected


def _every_image_tuple(group, gens):
    """Oracle: every tuple in G^k of images of the generators ``gens`` whose
    induced map is a bijection that respects the full multiplication
    table."""
    n = group.order
    reached = {0: None}
    order = [0]
    for x in order:
        for k, g in enumerate(gens):
            y = group.mul(x, g)
            if y not in reached:
                reached[y] = (x, k)
                order.append(y)
    assert len(order) == n
    found = set()
    for imgs in itertools.product(range(n), repeat=len(gens)):
        m = [0] * n
        for y in order[1:]:
            x, k = reached[y]
            m[y] = group.mul(m[x], imgs[k])
        if len(set(m)) == n and all(
                m[group.mul(i, j)] == group.mul(m[i], m[j])
                for i in range(n) for j in range(n)):
            found.add(tuple(m))
    return found


@pytest.mark.parametrize("words, degree", [
    (["(1 2 3)", "(1 2)"], 3),                      # S3
    (["(1 2)", "(1 2 3 4)"], 4),                    # S4
    (["(1 2)", "(3 4)", "(5 6)"], 6),               # z2cubed, 3-generated
])
def test_automorphism_group_matches_image_tuple_oracle(words, degree):
    gens = [parse_cycles(w, degree) for w in words]
    g = closure(gens)
    auts = automorphism_group(g)
    expected = _every_image_tuple(g, [g.index_of(p) for p in gens])
    assert [a.mapping for a in auts] == sorted(expected)


@pytest.mark.parametrize("words, degree, aut_order", [
    (["(1 2)", "(3 4)", "(5 6)"], 6, 168),          # z2cubed: GL(3,2)
    (["(1 2 3 4 5)", "(1 2 3)"], 5, 120),           # A5: Out = Z2
    (["(1 2 3 4 5 6 7)", "(1 2)(3 6)"], 7, 336),    # PSL(2,7): Out = Z2
    (["(1 2)", "(1 2 3 4)", "(5 6)"], 6, 48),       # S4 x Z2
])
def test_automorphism_group_orders(words, degree, aut_order):
    g = closure([parse_cycles(w, degree) for w in words])
    assert len(automorphism_group(g)) == aut_order


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_closure_cap_env_rejects_non_positive_integers(monkeypatch, value):
    from linhyp.errors import BadEnvironment
    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", value)
    with pytest.raises(BadEnvironment, match="LHM_MAX_GROUP_ORDER"):
        closure([parse_cycles("(1 2 3)", 3)])
