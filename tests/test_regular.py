from __future__ import annotations

import functools
import pickle
import random
import sys
import threading
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_classify import random_generators

import linhyp.regular
from conftest import REPO_ROOT
from linhyp.catalog import parse_group_file
from linhyp.classify import admissible_triples, classify
from linhyp.errors import (
    GroupMismatch,
    InvalidHypermap,
    InvalidTriple,
    ParseError,
)
from linhyp.hypermap import extract_cells, surface_invariant
from linhyp.permgroup import (
    ElementSet,
    Permutation,
    automorphism_group,
    closure,
    generated_subgroup,
    involutions,
    parse_cycles,
    product_set,
)
from linhyp.regular import (
    CoreType,
    InvolutionTriple,
    MSequence,
    RegularLinearHypermap,
    _orientable,
    _report,
    _span_bits,
    is_isomorphic,
    triple_from_words,
    validate_regular,
)
from linhyp.report import CheckResult, ValidationReport

SPHERE_253 = "(1 2)(3 5)(6 7);(1 2)(3 4)(6 7);(1 3)(2 4)(6 7)"
SPHERE_235 = "(1 2)(3 5)(6 7);(1 3)(2 4)(6 7);(1 2)(3 4)(6 7)"
SPHERE_325 = "(1 4)(3 5)(6 7);(1 2)(4 5)(6 7);(1 3)(4 5)(6 7)"
SELF_DUAL_335 = "(1 3)(2 4)(6 7);(1 2)(4 5)(6 7);(1 3)(4 5)(6 7)"
GENUS10_256 = "(1 2)(3 5);(1 2)(3 4)(6 7);(1 4)(2 3)"


def hypermap(group, text):
    return RegularLinearHypermap.from_triple(triple_from_words(group, text))


# --- triple construction ---------------------------------------------------------


def test_triple_rejects_non_involution(s4):
    four_cycle = s4.index_of(parse_cycles("(1 2 3 4)", 4))
    inv = s4.index_of(parse_cycles("(1 2)", 4))
    other = s4.index_of(parse_cycles("(3 4)", 4))
    with pytest.raises(InvalidTriple):
        InvolutionTriple(s4, four_cycle, inv, other)


def test_triple_rejects_repeats(s4):
    inv = s4.index_of(parse_cycles("(1 2)", 4))
    other = s4.index_of(parse_cycles("(3 4)", 4))
    with pytest.raises(InvalidTriple):
        InvolutionTriple(s4, inv, inv, other)


def test_triple_literal_parsing(a5xz2):
    t = triple_from_words(a5xz2, SPHERE_253)
    assert t.words() == ("(1 2)(3 5)(6 7)", "(1 2)(3 4)(6 7)", "(1 3)(2 4)(6 7)")
    with pytest.raises(ParseError):
        triple_from_words(a5xz2, "(1 2);(3 4)")


# --- validation ----------------------------------------------------------------


def test_sphere_253_triple_validates(a5xz2):
    report = validate_regular(triple_from_words(a5xz2, SPHERE_253))
    assert report.ok


def test_elementary_abelian_fails_product_condition():
    # three commuting involutions: passes the intersection condition but
    # the product sets cover the whole group
    g = closure([parse_cycles(w, 6) for w in ["(1 2)", "(3 4)", "(5 6)"]])
    t = triple_from_words(g, "(1 2);(3 4);(5 6)")
    report = validate_regular(t)
    assert report.check("stabilizer-intersection").passed
    assert not report.check("product-intersection").passed


def _witness(group, detail):
    """The element named after the last colon of a failure detail."""
    return group.index_of(parse_cycles(detail.rsplit(":", 1)[1], group.degree))


def test_product_failure_names_an_element_of_hk_kh_outside_h_union_k():
    g = closure([parse_cycles(w, 6) for w in ["(1 2)", "(3 4)", "(5 6)"]])
    t = triple_from_words(g, "(1 2);(3 4);(5 6)")
    check = validate_regular(t).check("product-intersection")
    assert not check.passed
    x = _witness(g, check.detail)
    h = generated_subgroup(g, [t.r1, t.r2])
    k = generated_subgroup(g, [t.r0, t.r2])
    assert x in product_set(h, k) and x in product_set(k, h)
    assert x not in h.union(k)


@pytest.mark.parametrize("table", [True, False])
def test_product_excess_from_hk_and_inverses_matches_both_products(
        a5xz2, monkeypatch, table):
    # the reference: HK & KH outside H | K from two product bitsets
    from linhyp.regular import _pair, _product_excess
    rng = random.Random(5)
    invs = involutions(a5xz2)
    gens = [(rng.sample(invs, 2), rng.sample(invs, 2)) for _ in range(60)]
    pairs = [(a5xz2.subgroup_bits(a), a5xz2.subgroup_bits(b))
             for a, b in gens]
    expected = [a5xz2.product_bits(h, k) & a5xz2.product_bits(k, h) & ~(h | k)
                for h, k in pairs]
    if not table:
        monkeypatch.setattr(a5xz2, "_flat", None)
    assert [_product_excess(a5xz2, _pair(a5xz2, *a, {}), _pair(a5xz2, *b, {}))
            for a, b in gens] == expected
    assert any(expected) and not all(expected)


def test_stabilizer_failure_names_an_element_of_h_k_outside_r2(s4):
    # r0 and r1 both lie in the Klein group <(1 2), (3 4)> around r2
    t = triple_from_words(s4, "(3 4);(1 2);(1 2)(3 4)")
    report = validate_regular(t)
    check = report.check("stabilizer-intersection")
    assert not check.passed
    x = _witness(s4, check.detail)
    h = generated_subgroup(s4, [t.r1, t.r2])
    k = generated_subgroup(s4, [t.r0, t.r2])
    assert x in h.intersection(k) and x not in (0, t.r2)
    assert report.failed_names() == ["generates", "stabilizer-intersection"]


def test_non_generating_triple_fails(a5xz2):
    t = triple_from_words(a5xz2, "(1 2)(3 5);(1 2)(3 4);(1 3)(2 4)")
    report = validate_regular(t)
    assert not report.check("generates").passed
    assert not report.ok
    with pytest.raises(InvalidHypermap):
        RegularLinearHypermap.from_triple(t)


# --- m-sequences ------------------------------------------------------------------


def test_sphere_253_sequence(a5xz2):
    ms = hypermap(a5xz2, SPHERE_253).m_sequence()
    assert str(ms) == "[0;2,5,3;30,12,20;120]"
    assert ms.orientable


def test_genus10_sequence(a5xz2):
    ms = hypermap(a5xz2, GENUS10_256).m_sequence()
    assert str(ms) == "[10;2,5,6;30,12,10;120]"
    assert not ms.orientable


def test_dihedral_n4_sequence():
    from linhyp.constructions import build_dihedral_family
    ms = build_dihedral_family(4).m_sequence()
    assert str(ms) == "[0;2,2,4;4,4,2;16]"


def test_msequence_type_and_proper():
    ms = MSequence(5, 3, 3, 5, 20, 20, 12, 120, True)
    assert ms.type == (3, 3, 5)
    assert ms.proper
    assert not MSequence(0, 2, 5, 3, 30, 12, 20, 120, True).proper


def test_flag_identity_2kv_2me_2nf(a5xz2, s4):
    for group, text in [(a5xz2, SPHERE_253), (a5xz2, GENUS10_256), (s4, "(1 3);(1 2);(3 4)")]:
        ms = hypermap(group, text).m_sequence()
        assert ms.flags == 2 * ms.k * ms.vertices
        assert ms.flags == 2 * ms.m * ms.hyperedges
        assert ms.flags == 2 * ms.n * ms.hyperfaces


# --- duality ---------------------------------------------------------------------


def test_dual_of_235_is_325(a5xz2):
    d = hypermap(a5xz2, SPHERE_235).dual()
    assert str(d.m_sequence()) == "[0;3,2,5;20,30,12;120]"
    assert d.is_isomorphic_to(hypermap(a5xz2, SPHERE_325))


def test_double_dual_is_identical(a5xz2):
    m = hypermap(a5xz2, SPHERE_235)
    assert m.dual().dual().triple == m.triple


def test_dual_reuses_the_stabilizers(a5xz2, monkeypatch):
    m = hypermap(a5xz2, SPHERE_253)
    calls = []
    monkeypatch.setattr(type(a5xz2), "subgroup_bits",
                        lambda self, seeds: calls.append(seeds))
    d = m.dual()
    assert calls == []
    assert d.vertex_stabilizer is m.hyperedge_stabilizer
    assert d.hyperedge_stabilizer is m.vertex_stabilizer
    assert d.hyperface_stabilizer is m.hyperface_stabilizer


def test_dual_swaps_k_m_and_v_e(a5xz2):
    m = hypermap(a5xz2, SPHERE_253)
    ms, dual_ms = m.m_sequence(), m.dual().m_sequence()
    assert str(ms) == "[0;2,5,3;30,12,20;120]"
    assert str(dual_ms) == "[0;5,2,3;12,30,20;120]"
    assert (dual_ms.k, dual_ms.m) == (ms.m, ms.k)
    assert (dual_ms.vertices, dual_ms.hyperedges) == (ms.hyperedges, ms.vertices)
    assert (dual_ms.genus, dual_ms.n, dual_ms.hyperfaces, dual_ms.flags,
            dual_ms.orientable) == (ms.genus, ms.n, ms.hyperfaces, ms.flags,
                                    ms.orientable)


# --- isomorphism ------------------------------------------------------------------


def test_335_class_is_self_dual(a5xz2):
    m = hypermap(a5xz2, SELF_DUAL_335)
    assert m.is_isomorphic_to(m.dual())


def test_sphere_253_235_not_isomorphic(a5xz2):
    assert not is_isomorphic(triple_from_words(a5xz2, SPHERE_253),
                             triple_from_words(a5xz2, SPHERE_235))


def test_isomorphism_is_reflexive(a5xz2):
    t = triple_from_words(a5xz2, SPHERE_253)
    assert is_isomorphic(t, t)


def test_isomorphism_by_cayley_code_needs_no_table():
    # Z2 x D2200 has 4400 elements: over the table limit and over the
    # automorphism cap, so only the Cayley walk can answer
    from linhyp.constructions import build_dihedral_family
    m = build_dihedral_family(1100)
    t = m.triple
    assert not t.group.has_table and t.group.order == 4400
    assert is_isomorphic(t, t)
    assert is_isomorphic(t, m.dual().triple)
    assert not is_isomorphic(t, InvolutionTriple(t.group, t.r0, t.r2, t.r1))


def test_isomorphism_group_mismatch(s4, a5xz2):
    t1 = triple_from_words(s4, "(1 3);(1 2);(3 4)")
    t2 = triple_from_words(a5xz2, SPHERE_253)
    with pytest.raises(GroupMismatch):
        is_isomorphic(t1, t2)


def test_isomorphism_matches_canonical_keys_on_s4(s4):
    from linhyp.classify import canonical_key
    triples = list(admissible_triples(s4))
    keys = [canonical_key(t) for t in triples]
    # key equality must agree with the automorphism search on every pair;
    # this also makes isomorphism an equivalence relation
    for i, t1 in enumerate(triples):
        for j, t2 in enumerate(triples):
            assert (keys[i] == keys[j]) == is_isomorphic(t1, t2)


@pytest.mark.parametrize("name", ["s4", "a5xz2", "psl27"])
def test_isomorphism_by_cayley_code_matches_the_automorphism_definition(
        name):
    group = parse_group_file(
        REPO_ROOT / "perfbench" / "groups" / f"{name}.grp").group
    auts = automorphism_group(group)

    def by_definition(t1, t2):
        return any((a.mapping[t1.r0], a.mapping[t1.r1], a.mapping[t1.r2])
                   == t2.indices for a in auts)

    rng = random.Random(name)
    invs = involutions(group)
    reps = [c.triple for c in classify(group, name).classes]
    # automorphism images of the representatives give isomorphic pairs;
    # random triples, most of them not generating, give the rest
    images = [InvolutionTriple(group, *(a.mapping[i] for i in t.indices))
              for t in reps for a in rng.sample(auts, 1)]
    randoms = [InvolutionTriple(group, *rng.sample(invs, 3))
               for _ in range(20)]
    triples = reps + images + randoms
    verdicts = [(is_isomorphic(t1, t2), by_definition(t1, t2))
                for t1 in triples for t2 in triples]
    assert all(code == defined for code, defined in verdicts)
    # more isomorphic pairs than the diagonal: each image meets its class
    assert sum(code for code, _ in verdicts) > len(triples)


def test_msequence_is_isomorphism_invariant(s4):
    from linhyp.permgroup import automorphism_group
    auts = automorphism_group(s4)
    for t in admissible_triples(s4):
        ms = str(RegularLinearHypermap.from_triple(t).m_sequence())
        for a in auts:
            image = InvolutionTriple(s4, a.mapping[t.r0], a.mapping[t.r1],
                                     a.mapping[t.r2])
            assert str(RegularLinearHypermap.from_triple(image).m_sequence()) == ms


# --- core dichotomy ----------------------------------------------------------------


def test_core_trivial_on_a5xz2(a5xz2):
    assert hypermap(a5xz2, SPHERE_253).core_dichotomy() is CoreType.TRIVIAL_CORE


def test_core_central_on_dihedral_families():
    from linhyp.constructions import build_dihedral_family, build_half_twist_family
    assert build_dihedral_family(5).core_dichotomy() is CoreType.CENTRAL_R2
    assert build_dihedral_family(5, "m2").core_dichotomy() is CoreType.CENTRAL_R2
    assert build_half_twist_family(8).core_dichotomy() is CoreType.CENTRAL_R2


def test_core_dichotomy_does_not_check_the_stabilizer_again(monkeypatch,
                                                           a5xz2):
    # the stabilizer was closed by subgroup_bits; normal_core checks its
    # argument, core_dichotomy does not
    m = hypermap(a5xz2, SPHERE_253)
    monkeypatch.setattr(ElementSet, "is_subgroup",
                        lambda self: pytest.fail("subgroup checked again"))
    assert m.core_dichotomy() is CoreType.TRIVIAL_CORE


def test_core_dichotomy_never_raises_on_admissible(s4):
    for t in admissible_triples(s4):
        RegularLinearHypermap.from_triple(t).core_dichotomy()


# --- flag form ---------------------------------------------------------------------


def test_to_flag_hypermap_120_flags(a5xz2):
    h = hypermap(a5xz2, SPHERE_253).to_flag_hypermap()
    assert h.flag_count == 120
    assert h.validate().ok
    assert extract_cells(h).counts == (30, 12, 20)


def test_to_flag_hypermap_s4(s4):
    h = hypermap(s4, "(1 3);(1 2);(3 4)").to_flag_hypermap()
    assert h.flag_count == 24
    assert extract_cells(h).counts == (6, 4, 4)


def test_flag_form_reproduces_m_sequence(a5xz2):
    m = hypermap(a5xz2, GENUS10_256)
    ms = m.m_sequence()
    h = m.to_flag_hypermap()
    cells = extract_cells(h)
    surface = surface_invariant(h)
    assert cells.counts == (ms.vertices, ms.hyperedges, ms.hyperfaces)
    assert surface.genus == ms.genus
    assert surface.orientable == ms.orientable


def test_round_trip_cell_counts_match_subgroup_indices(a5xz2):
    m = hypermap(a5xz2, SPHERE_253)
    g = a5xz2
    cells = extract_cells(m.to_flag_hypermap())
    assert len(cells.vertices) == g.order // len(m.vertex_stabilizer)
    assert len(cells.hyperedges) == g.order // len(m.hyperedge_stabilizer)
    assert len(cells.hyperfaces) == g.order // len(m.hyperface_stabilizer)


# --- generation and orientability ------------------------------------------------------------

_ORACLE_GROUPS = {
    "s4": (["(1 2)", "(1 2 3 4)"], 4),
    "a5xz2": (["(1 2 3 4 5)", "(1 2 3)", "(6 7)"], 7),
    "psl27": (["(1 2 3 4 5 6 7)", "(1 2)(3 6)"], 7),
}


@functools.cache
def _named_group(name):
    """A named group with its brute-force admissible triples."""
    words, degree = _ORACLE_GROUPS[name]
    group = closure([parse_cycles(w, degree) for w in words])
    return group, list(admissible_triples(group))


def _two_colourable(group, gens):
    """Oracle: whether colouring the Cayley graph on ``gens`` breadth first
    from the identity gives the two ends of every edge different colours."""
    colour = {0: 0}
    frontier = deque([0])
    while frontier:
        x = frontier.popleft()
        for s in gens:
            y = group.mul(x, s)
            if y not in colour:
                colour[y] = 1 - colour[x]
                frontier.append(y)
            elif colour[y] == colour[x]:
                return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_ORACLE_GROUPS)) | random_generators, st.data())
def test_rotation_closure_matches_independent_oracles(source, data):
    if isinstance(source, str):
        group, admissible = _named_group(source)
    else:
        group, admissible = closure([Permutation(p) for p in source]), []
    invs = involutions(group)
    assume(len(invs) >= 3)
    if admissible and data.draw(st.booleans()):
        t = data.draw(st.sampled_from(admissible))
    else:
        t = InvolutionTriple(group, *data.draw(st.lists(
            st.sampled_from(invs), min_size=3, max_size=3, unique=True)))
    report = validate_regular(t)
    span = group.subgroup_bits(t.indices).bit_count()
    check = report.check("generates")
    assert check.passed == (span == group.order)
    assert check.detail == ("" if check.passed else
                            f"triple generates a subgroup of order {span} "
                            f"< {group.order}")
    # r0 lies outside <r0r2, r1r2> exactly when <r0,r1,r2> is 2-colourable
    if check.passed:
        assert _orientable(group, *t.indices) == _two_colourable(
            group, t.indices)
    if report.ok:
        m = RegularLinearHypermap.from_triple(t)
        ms = m.m_sequence()
        r0, r1, r2 = t.indices
        assert ms.orientable == m.orientable == _two_colourable(
            group, t.indices)
        assert (ms.vertices, ms.hyperedges, ms.hyperfaces) == tuple(
            group.order // group.subgroup_bits(pair).bit_count()
            for pair in ((r1, r2), (r0, r2), (r0, r1)))


def test_triple_spanning_a6_in_a7_does_not_generate():
    # A6, the stabiliser of the point 7, has 360 elements, under the
    # |A7|/5 = 504 past which a closure is the whole group
    a7 = closure([parse_cycles(w, 7) for w in ("(1 2 3 4 5 6 7)", "(1 2 3)")])
    t = triple_from_words(a7, "(1 2)(3 4);(2 3)(4 5);(1 6)(2 5)")
    check = validate_regular(t).check("generates")
    assert not check.passed
    assert check.detail == "triple generates a subgroup of order 360 < 2520"
    with pytest.raises(InvalidHypermap, match="order 360 < 2520"):
        RegularLinearHypermap.from_triple(t)


def _squares(group):
    return sorted({group.mul(x, x) for x in range(group.order)})


def _recording(monkeypatch, group):
    """Every closure on ``group``'s class: the seeds of each
    ``subgroup_bits`` call, the sorted pair of each pair subgroup that
    ``_pair`` builds, and the start's seeds and then the new seeds of each
    walk resumed from a subgroup (a span); and the bitset of every
    ``_normal_closure``, whose own closures are not recorded."""
    calls, normal = [], []
    cls = type(group)
    original, original_normal = cls.subgroup_bits, cls._normal_closure
    original_walk, original_pair = cls._closure_bits, linhyp.regular._pair

    def closing(self, *args):
        bits = original_normal(self, *args)
        normal.append(bits)
        return bits

    def walking(self, seeds, exits=None, start=((0,), ()), ell=0):
        if start[1]:
            calls.append((*start[1], *seeds))
        return original_walk(self, seeds, exits, start, ell)

    def pairing(g, a, b, memo):
        if _pair_key(a, b) not in memo:
            calls.append(_pair_key(a, b))
        return original_pair(g, a, b, memo)
    monkeypatch.setattr(cls, "subgroup_bits",
                        lambda self, seeds: calls.append(tuple(seeds))
                        or original(self, seeds))
    monkeypatch.setattr(cls, "_normal_closure", closing)
    monkeypatch.setattr(cls, "_closure_bits", walking)
    monkeypatch.setattr(linhyp.regular, "_pair", pairing)
    return calls, normal


def _pair_key(a, b):
    return (a, b) if a < b else (b, a)


def test_each_triple_closes_each_subgroup_once(monkeypatch, a5xz2):
    a7 = closure([parse_cycles(w, 7) for w in ("(1 2 3 4 5 6 7)", "(1 2 3)")])
    t = triple_from_words(a7, "(2 5)(3 4);(1 5)(6 7);(1 4)(3 6)")
    r0, r1, r2 = t.indices
    # the first closure finds the exits: A7 is simple and embeds in no S_m
    # for m < 7, so a closure past |A7|/7 = 360 elements is A7
    a7._square_bits()
    assert a7._exits.first == a7.order // 7
    calls, normal = _recording(monkeypatch, a7)
    m = RegularLinearHypermap.from_triple(t)
    # H, K and L are built once each; L = <r0, r1> (r0r1 of order 6) is
    # the largest pair subgroup, so S resumes from it and adds r2
    assert sorted(calls) == sorted([
        _pair_key(r1, r2), _pair_key(r0, r2), (r0, r1, r2),
        _pair_key(r0, r1)])
    assert normal == []

    calls.clear()
    assert str(m.m_sequence()) == "[317;3,4,6;420,315,210;2520]"
    assert str(m.dual().m_sequence()) == "[317;4,3,6;315,420,210;2520]"
    assert calls == [] and normal == []

    # classify reads H, K and L from its scan's memo and G^2 from the
    # group: building the classes closes nothing
    built = []
    original_of = RegularLinearHypermap._of.__func__

    def of(cls, t, memo):
        before = len(calls)
        hm = original_of(cls, t, memo)
        built.append(calls[before:])
        return hm

    monkeypatch.setattr(RegularLinearHypermap, "_of", classmethod(of))
    result = classify(a5xz2, "a5xz2")
    assert len(built) == len(result.classes) > 0
    assert built == [[] for _ in result.classes]


def test_square_subgroup_is_closed_once_per_group_and_pickles(monkeypatch):
    g = closure([parse_cycles(w, 7) for w in ("(1 2 3 4 5)", "(1 2 3)", "(6 7)")])
    calls, normal = _recording(monkeypatch, g)
    first = hypermap(g, SPHERE_253)
    second = hypermap(g, GENUS10_256)
    # G^2 = A5 has index 2 and is perfect, its derived subgroup A5 again:
    # it is the perfect residual N, and closures look past |A5|/5
    squares = g.subgroup_bits(_squares(g))
    assert squares.bit_count() == 60
    assert normal == [squares, squares]
    assert (first.orientable, second.orientable) == (True, False)

    copy = pickle.loads(pickle.dumps(g))
    calls.clear()
    assert copy._square_bits() == squares
    assert copy._exits.first == 12 and copy._exits.cosets[0] == squares
    assert calls == []
    assert str(hypermap(copy, GENUS10_256).m_sequence()) == str(
        second.m_sequence())
    assert normal == [squares, squares]


def test_validating_then_building_closes_nothing_again(monkeypatch):
    a7 = closure([parse_cycles(w, 7) for w in ("(1 2 3 4 5 6 7)", "(1 2 3)")])
    t = triple_from_words(a7, "(2 5)(3 4);(1 5)(6 7);(1 4)(3 6)")
    calls, _ = _recording(monkeypatch, a7)
    assert validate_regular(t).ok
    r0, r1, r2 = t.indices
    assert sorted(calls) == sorted([
        _pair_key(r1, r2), _pair_key(r0, r2), (r0, r1, r2),
        _pair_key(r0, r1)])
    calls.clear()
    m = RegularLinearHypermap.from_triple(t)
    assert calls == []
    assert str(m.m_sequence()) == "[317;3,4,6;420,315,210;2520]"
    # the slot holds one triple: checking another one starts afresh
    assert not validate_regular(triple_from_words(
        a7, "(1 2)(3 4);(2 3)(4 5);(1 6)(2 5)")).ok
    calls.clear()
    assert RegularLinearHypermap.from_triple(t) == m
    assert len(calls) == 4


_SLOT_GROUPS = {
    "s4": (["(1 2)", "(1 2 3 4)"], 4),
    "a5xz2": (["(1 2 3 4 5)", "(1 2 3)", "(6 7)"], 7),
    # two more groups of order 24 with other tables on the same indices:
    # S4 on the points 1, 2, 3, 5, and Z2 x D6
    "s4-on-1235": (["(1 5)", "(1 2 3 5)"], 5),
    "z2xd6": (["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)", "(7 8)"], 8),
}


@functools.cache
def _slot_groups():
    """Per named group: the group the interleavings share, a twin closed
    from the same generators for the fresh-memo answers, and ordered
    involution triples: up to six passing ones on distinct involution
    sets, six whose involutions pass in no order and, for a group of order
    24, those of the other groups of order 24 that are involution triples
    in it too, so that two groups check triples of the same indices."""
    rng = random.Random(24)
    out = []
    for words, degree in _SLOT_GROUPS.values():
        group, twin = (closure([parse_cycles(w, degree) for w in words])
                       for _ in range(2))
        passing = {tuple(sorted(t.indices)): t.indices
                   for t in admissible_triples(twin)}
        failing = [t for t in dict.fromkeys(
            tuple(rng.sample(involutions(twin), 3)) for _ in range(40))
            if tuple(sorted(t)) not in passing]
        out.append((group, twin, rng.sample(sorted(passing.values()), 6)
                    + failing[:6]))
    for group, _, base in out:
        invs = set(involutions(group))
        base += [t for other, _, theirs in out if other is not group
                 and other.order == group.order == 24
                 for t in theirs[:12] if invs.issuperset(t)]
    return out


def _built(m):
    return (m.triple.indices, str(m.m_sequence()), m.orientable,
            m.vertex_stabilizer.bits, m.hyperedge_stabilizer.bits,
            m.hyperface_stabilizer.bits)


@functools.cache
def _fresh_answers(i, indices):
    """What a fresh memo gives on ``indices`` of group ``i``: the report,
    and the built hypermap or the ``InvalidHypermap`` message."""
    twin = _slot_groups()[i][1]
    t = InvolutionTriple(twin, *indices)
    twin._checked = None
    try:
        built = _built(RegularLinearHypermap.from_triple(t))
    except InvalidHypermap as exc:
        built = str(exc)
    return _report(t, {}), built


_slot_ops = st.lists(st.tuples(
    st.integers(0, len(_SLOT_GROUPS) - 1), st.integers(0, 35),
    st.permutations((0, 1, 2)),
    st.sampled_from(("validate", "build", "build", "pickle"))), max_size=40)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_slot_ops)
def test_the_slot_never_lends_a_stale_verdict(ops):
    groups = [group for group, _, _ in _slot_groups()]
    for i, pick, order, action in ops:
        base = _slot_groups()[i][2]
        indices = tuple(base[pick % len(base)][j] for j in order)
        if action == "pickle":
            # a copy carries the slot it was pickled with
            groups[i] = pickle.loads(pickle.dumps(groups[i]))
        t = InvolutionTriple(groups[i], *indices)
        report, built = _fresh_answers(i, indices)
        assert _report(t, {}) == report
        if action == "validate":
            assert validate_regular(t) == report
        elif isinstance(built, str):
            with pytest.raises(InvalidHypermap) as exc:
                RegularLinearHypermap.from_triple(t)
            assert str(exc.value) == built
        else:
            assert _built(RegularLinearHypermap.from_triple(t)) == built


def test_the_slot_groups_give_passing_and_failing_triples():
    verdicts = [[_fresh_answers(i, t)[0].ok for t in base[:12]]
                for i, (_, _, base) in enumerate(_slot_groups())]
    assert [v.count(True) for v in verdicts] == [6, 6, 6, 6]
    shared = [len(base) - 12 for _, _, base in _slot_groups()]
    assert shared[1] == 0 and min(shared[0], shared[2], shared[3]) > 0


def test_threads_sharing_a_group_give_the_serial_answers():
    group, twin = (closure([parse_cycles(w, 7) for w in (
        "(1 2 3 4 5)", "(1 2 3)", "(6 7)")]) for _ in range(2))
    passing = [t.indices for t in admissible_triples(twin)][::7][:8]
    rng = random.Random(8)
    invs = involutions(twin)
    failing = [tuple(rng.sample(invs, 3)) for _ in range(8)]
    triples = [x for pair in zip(passing, failing) for x in pair]

    def answers(g, shift):
        out = {}
        for k in range(2 * len(triples)):
            indices = triples[(k // 2 + shift) % len(triples)]
            t = InvolutionTriple(g, *indices)
            if k % 2 == 0:
                out[indices, "validate"] = validate_regular(t)
            else:
                try:
                    out[indices, "build"] = _built(
                        RegularLinearHypermap.from_triple(t))
                except InvalidHypermap as exc:
                    out[indices, "build"] = str(exc)
        return out

    serial = answers(twin, 0)
    assert {v.ok for (_, kind), v in serial.items() if kind == "validate"} == {
        True, False}
    barrier = threading.Barrier(8, timeout=30)
    results = []

    def ask(shift):
        barrier.wait()
        results.append(answers(group, shift))

    threads = [threading.Thread(target=ask, args=(3 * n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r == serial for r in results)


_GROUP_FILES = sorted((REPO_ROOT / "data").glob("*.grp")) + sorted(
    (REPO_ROOT / "perfbench" / "groups").glob("*.grp"))


@pytest.mark.parametrize("path", _GROUP_FILES,
                         ids=lambda p: f"{p.parent.name}-{p.stem}")
def test_span_and_orientability_match_the_rotation_subgroup(path):
    # the definitions the span closure and the square subgroup replace:
    # E = <r0r2, r1r2> has index 2 in the span exactly when r0 is outside it
    group = parse_group_file(path).group
    result = classify(group, path.stem)
    for c in result.classes:
        m, (r0, r1, r2) = c.hypermap, c.canonical_key
        e = group.subgroup_bits((group.mul(r0, r2), group.mul(r1, r2)))
        assert m.orientable == (not e >> r0 & 1)
        assert m.orientable == RegularLinearHypermap.from_triple(
            m.triple).orientable
        assert _span_bits(group, r0, r1, r2, {}) == group.subgroup_bits(
            m.triple.indices)


def _least(group, bits):
    return group.word((bits & -bits).bit_length() - 1)


def _reference_report(group, r0, r1, r2):
    """The three checks from their definitions: H, K and the span closed
    by ``subgroup_bits`` from the involutions, HK and KH by
    ``product_bits``."""
    h, k = group.subgroup_bits((r1, r2)), group.subgroup_bits((r0, r2))
    meet, cyclic = h & k, 1 | 1 << r2
    extra = group.product_bits(h, k) & group.product_bits(k, h) & ~(h | k)
    span = group.subgroup_bits((r0, r1, r2)).bit_count()
    return ValidationReport((
        CheckResult(
            "generates", span == group.order,
            "" if span == group.order else
            f"triple generates a subgroup of order {span} < {group.order}"),
        CheckResult(
            "stabilizer-intersection", meet == cyclic,
            "" if meet == cyclic else
            f"<r1,r2> meets <r0,r2> in {meet.bit_count()} elements; least "
            f"outside <r2>: {_least(group, meet & ~cyclic)}"),
        CheckResult(
            "product-intersection", not extra,
            "" if not extra else "HK and KH overlap beyond H union K; "
            "least outside H union K: " + _least(group, extra)),
    ))


def _assert_reports_match_the_definitions(group, seed, count):
    rng = random.Random(seed)
    invs = involutions(group)
    verdicts = set()
    for _ in range(count):
        t = InvolutionTriple(group, *rng.sample(invs, 3))
        report = validate_regular(t)
        assert report == _reference_report(group, *t.indices), t
        verdicts.add(tuple(report.failed_names()))
    return verdicts


@pytest.mark.parametrize("path", _GROUP_FILES,
                         ids=lambda p: f"{p.parent.name}-{p.stem}")
def test_check_from_rotations_matches_the_definitions(path):
    # pair subgroups from one row walk, HK and KH from rotation cosets, and
    # the span resumed from a pair subgroup with its Lagrange exit
    group = parse_group_file(path).group
    verdicts = _assert_reports_match_the_definitions(group, path.stem, 300)
    assert len(verdicts) > 1


@pytest.mark.parametrize("name", ["a5xz2", "s5"])
def test_check_from_rotations_matches_the_definitions_without_table(
        name, monkeypatch):
    group = parse_group_file(
        REPO_ROOT / "perfbench" / "groups" / f"{name}.grp").group
    monkeypatch.setattr(group, "_flat", None)
    verdicts = _assert_reports_match_the_definitions(group, name, 300)
    assert () in verdicts and len(verdicts) > 1


def test_lagrange_exit_returns_a6_before_any_coset(monkeypatch):
    # r1r2, r0r2 and r0r1 have orders 3, 4 and 5, so every subgroup that
    # holds the triple has a multiple of lcm(6, 8, 10) = 120 elements; no
    # proper subgroup of A6 has more than 360/6 = 60, so the span is A6
    a6 = parse_group_file(REPO_ROOT / "perfbench" / "groups" / "a6.grp").group
    t = triple_from_words(a6, "(2 5)(3 4);(1 4)(2 6);(1 2)(3 5)")
    r0, r1, r2 = t.indices
    pairs = ((r1, r2), (r0, r2), (r0, r1))
    assert sorted(a6.element_order(a6.mul(a, b)) for a, b in pairs) == [
        3, 4, 5]
    exits = a6._find_exits()
    assert exits.mu == 6 and exits.largest_proper(360, 120) == 0
    memo = {}
    for a, b in pairs:
        linhyp.regular._pair(a6, a, b, memo)
    # with the table set aside, every element a walk gathered would be a
    # mul; the only one left reads r0r1, whose order picks the start
    monkeypatch.setattr(a6, "_flat", None)
    calls, mul = [], a6.mul
    monkeypatch.setattr(a6, "mul", lambda i, j: calls.append((i, j))
                        or mul(i, j))
    assert _span_bits(a6, r0, r1, r2, memo) == (1 << 360) - 1
    assert calls == [(r0, r1)]


def test_spans_at_the_lagrange_bound_keep_their_own_bits():
    # A6, the stabiliser of 7 in A7: orders 4, 4 and 5 give lcm 40, and
    # 2520/40 = 63 has 7 as its least divisor from mu = 7 on, so a proper
    # subgroup holding the triple may have 360 elements, and this one has
    a7 = parse_group_file(REPO_ROOT / "perfbench" / "groups" / "a7.grp").group
    t = triple_from_words(a7, "(1 2)(3 4);(2 3)(4 5);(1 6)(2 5)")
    assert a7._find_exits().largest_proper(2520, 40) == 360
    a6 = sum(1 << i for i, p in enumerate(a7.elements) if p.images[6] == 6)
    assert _span_bits(a7, *t.indices, {}) == a6
    # S6 x 1 in s6xz2: M = <seeds>·A6 is S6 itself, found before the walk
    s6xz2 = parse_group_file(
        REPO_ROOT / "perfbench" / "groups" / "s6xz2.grp").group
    t = triple_from_words(s6xz2, "(2 5);(1 6)(2 4)(3 5);(3 6)(4 5)")
    s6 = sum(1 << i for i, p in enumerate(s6xz2.elements) if p.images[6] == 6)
    assert _span_bits(s6xz2, *t.indices, {}) == s6
    assert s6.bit_count() == 720
