from __future__ import annotations

import functools
import pickle
import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_classify import random_generators

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
    _span_bits,
    is_isomorphic,
    triple_from_words,
    validate_regular,
)

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
    from linhyp.regular import _product_excess
    rng = random.Random(5)
    invs = involutions(a5xz2)
    pairs = [(a5xz2.subgroup_bits(rng.sample(invs, 2)),
              a5xz2.subgroup_bits(rng.sample(invs, 2))) for _ in range(60)]
    expected = [a5xz2.product_bits(h, k) & a5xz2.product_bits(k, h) & ~(h | k)
                for h, k in pairs]
    if not table:
        monkeypatch.setattr(a5xz2, "_flat", None)
    assert [_product_excess(a5xz2, h, k) for h, k in pairs] == expected
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
    """The seeds of every ``subgroup_bits`` call on ``group``'s class, and
    the bitset of every ``_normal_closure``, whose own closures are left
    out of the seeds."""
    calls, normal = [], []
    cls = type(group)
    original, original_normal = cls.subgroup_bits, cls._normal_closure

    def closing(self, seeds):
        before = len(calls)
        bits = original_normal(self, seeds)
        del calls[before:]
        normal.append(bits)
        return bits
    monkeypatch.setattr(cls, "subgroup_bits",
                        lambda self, seeds: calls.append(tuple(seeds))
                        or original(self, seeds))
    monkeypatch.setattr(cls, "_normal_closure", closing)
    return calls, normal


def _pair_seeds(group, a, b):
    a, b = sorted((a, b))
    return (group.mul(a, b), a)


def test_each_triple_closes_each_subgroup_once(monkeypatch, a5xz2):
    a7 = closure([parse_cycles(w, 7) for w in ("(1 2 3 4 5 6 7)", "(1 2 3)")])
    t = triple_from_words(a7, "(2 5)(3 4);(1 5)(6 7);(1 4)(3 6)")
    r0, r1, r2 = t.indices
    calls, normal = _recording(monkeypatch, a7)
    m = RegularLinearHypermap.from_triple(t)
    # H, K and L lead with their rotations; r0r1 (order 6) is the rotation
    # of largest order, so S leads with it and r0, then r2
    r0r1 = a7.mul(r0, r1)
    assert sorted(calls) == sorted([
        _pair_seeds(a7, r1, r2), _pair_seeds(a7, r0, r2), (r0r1, r0, r2),
        _pair_seeds(a7, r0, r1)])
    # the first closure finds the closure bound: G^2 = A7, then G' = A7
    whole = (1 << a7.order) - 1
    assert normal == [whole, whole]
    assert a7._largest_proper == a7.order // 5

    calls.clear()
    assert str(m.m_sequence()) == "[317;3,4,6;420,315,210;2520]"
    assert str(m.dual().m_sequence()) == "[317;4,3,6;315,420,210;2520]"
    assert calls == [] and len(normal) == 2

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
    # G^2 = A5 has index 2, so G' is not closed and the bound stays |G|/2
    squares = g.subgroup_bits(_squares(g))
    assert squares.bit_count() == 60
    assert normal == [squares]
    assert (first.orientable, second.orientable) == (True, False)

    copy = pickle.loads(pickle.dumps(g))
    calls.clear()
    assert copy._square_bits() == squares
    assert copy._largest_proper == 60
    assert calls == []
    assert str(hypermap(copy, GENUS10_256).m_sequence()) == str(
        second.m_sequence())
    assert normal == [squares]


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
