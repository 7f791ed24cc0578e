from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from linhyp.catalog import parse_group_file
from linhyp.classify import (
    admissible_triples,
    canonical_key,
    census,
    classify,
    genus_upper_bound,
)
from linhyp.constructions import _SPHERE_ROWS, dihedral_times_z2_group
from linhyp.errors import GroupTooLargeForAut, InternalCheckFailed
from linhyp.hypermap import FlagHypermap, validate_hypermap
from linhyp.permgroup import (
    Permutation,
    automorphism_group,
    closure,
    involutions,
    parse_cycles,
)
from linhyp.regular import (
    InvolutionTriple,
    RegularLinearHypermap,
    triple_from_words,
    validate_regular,
)

S4_ADMISSIBLE_COUNT = 96  # frozen output of the brute-force oracle below

# the nineteen known representatives on the 120-element group, one per class
A5XZ2_REPRESENTATIVES = [
    "(1 2)(3 5);(1 2)(3 4)(6 7);(1 4)(2 3)",
    "(1 2)(3 5);(1 3)(2 4)(6 7);(1 4)(2 3)",
    "(1 2)(3 5)(6 7);(1 2)(3 4)(6 7);(1 3)(2 4)(6 7)",
    "(1 2)(3 5)(6 7);(1 3)(2 4)(6 7);(1 2)(3 4)(6 7)",
    "(1 2)(3 5)(6 7);(1 4)(2 3);(1 2)(3 4)(6 7)",
    "(1 4)(2 5)(6 7);(1 2)(3 4)(6 7);(1 3)(2 4)(6 7)",
    "(1 2)(3 5)(6 7);(1 4)(2 3);(1 3)(2 4)(6 7)",
    "(1 4)(2 5);(1 2)(3 4)(6 7);(1 4)(2 3)",
    "(1 4)(2 5)(6 7);(1 4)(2 3);(1 2)(3 4)(6 7)",
    "(1 4)(3 5)(6 7);(1 2)(4 5);(1 3)(4 5)",
    "(1 4)(3 5)(6 7);(1 2)(4 5)(6 7);(1 3)(4 5)(6 7)",
    "(1 3)(2 4)(6 7);(1 2)(4 5)(6 7);(1 3)(4 5)(6 7)",
    "(1 4)(3 5);(1 2)(4 5)(6 7);(1 3)(4 5)(6 7)",
    "(1 4)(3 5)(6 7);(1 4)(2 3);(1 3)(4 5)",
    "(1 5)(3 4)(6 7);(1 4)(2 3);(1 3)(4 5)",
    "(1 4)(3 5)(6 7);(1 4)(2 3)(6 7);(1 3)(4 5)(6 7)",
    "(1 5)(3 4)(6 7);(1 4)(2 3)(6 7);(1 3)(4 5)(6 7)",
    "(1 4)(3 5);(1 4)(2 3)(6 7);(1 3)(4 5)(6 7)",
    "(1 5)(3 4);(1 4)(2 3)(6 7);(1 3)(4 5)(6 7)",
]

S4_SEQUENCES = {
    "[0;2,3,3;6,4,4;24]",
    "[0;3,2,3;4,6,4;24]",
    "[1;2,3,4;6,4,3;24]",
    "[1;3,2,4;4,6,3;24]",
}


# --- admissible stream ------------------------------------------------------------


def test_klein_four_has_no_admissible_triples():
    v4 = closure([parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])
    assert list(admissible_triples(v4)) == []


def _brute_force_admissible_count(group):
    """Independent oracle built on raw permutations, no index arithmetic."""
    ident = Permutation.identity(group.degree)
    invs = [e for e in group.elements if e.is_involution()]

    def span(gens):
        seen = {ident}
        queue = [ident]
        while queue:
            x = queue.pop()
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    count = 0
    for r0, r1, r2 in itertools.permutations(invs, 3):
        h = span([r1, r2])
        k = span([r0, r2])
        if h & k != {ident, r2}:
            continue
        hk = {a * b for a in h for b in k}
        kh = {a * b for a in k for b in h}
        if hk & kh != h | k:
            continue
        if len(span([r0, r1, r2])) != group.order:
            continue
        count += 1
    return count


def test_s4_admissible_count_matches_brute_force(s4):
    stream_count = sum(1 for _ in admissible_triples(s4))
    assert stream_count == _brute_force_admissible_count(s4)
    assert stream_count == S4_ADMISSIBLE_COUNT


def test_admissible_stream_is_lexicographic(s4):
    seen = [t.indices for t in admissible_triples(s4)]
    assert seen == sorted(seen)


def test_a5xz2_stream_contains_the_19_representatives(a5xz2, a5xz2_classes):
    admissible = {t.indices for t in admissible_triples(a5xz2)}
    keys = set()
    for text in A5XZ2_REPRESENTATIVES:
        t = triple_from_words(a5xz2, text)
        assert t.indices in admissible
        keys.add(canonical_key(t))
    # pairwise non-isomorphic, and jointly a full system of representatives
    assert len(keys) == 19
    assert keys == {c.canonical_key for c in a5xz2_classes.classes}


# --- classify ----------------------------------------------------------------------


def test_classify_s4(s4_classes):
    assert s4_classes.class_count == 4
    assert {str(c.m_sequence) for c in s4_classes.classes} == S4_SEQUENCES
    assert s4_classes.admissible_triple_count == S4_ADMISSIBLE_COUNT
    assert s4_classes.aut_group_size == 24


def test_classify_s4xz2(s4xz2_classes):
    assert s4xz2_classes.class_count == 8
    ori = [c for c in s4xz2_classes.classes if c.m_sequence.orientable]
    assert len(ori) == 6


def test_class_representatives_are_admissible_and_self_canonical(s4_classes):
    for cls in s4_classes.classes:
        assert cls.canonical_key == cls.triple.indices
        assert canonical_key(cls.triple) == cls.canonical_key


def test_classes_sorted_by_canonical_key(a5xz2_classes):
    keys = [c.canonical_key for c in a5xz2_classes.classes]
    assert keys == sorted(keys)


def test_orbit_accounting(s4_classes, a5xz2_classes):
    for result in (s4_classes, a5xz2_classes):
        assert sum(c.orbit_size for c in result.classes) == \
            result.admissible_triple_count
        for c in result.classes:
            assert result.aut_group_size % c.orbit_size == 0


def test_classify_deterministic_across_runs_and_jobs(s4):
    a = classify(s4, "s4", jobs=1)
    b = classify(s4, "s4", jobs=2)
    c = classify(s4, "s4", jobs=3)
    def signature(res):
        return [(x.canonical_key, x.orbit_size, str(x.m_sequence))
                for x in res.classes]
    assert signature(a) == signature(b) == signature(c)
    assert a.admissible_triple_count == b.admissible_triple_count


def test_unequal_survivors_per_cayley_code_is_an_internal_error(
        monkeypatch, s4xz2):
    # |Out(S4 x Z2)| = 2, so each code has two survivors; a walk that told
    # the first survivor apart from its partner leaves codes of one and two
    import importlib
    cl = importlib.import_module("linhyp.classify")
    walk, marked = cl._cayley_walk, []

    def marking_walk(group, gens):
        order, code = walk(group, gens)
        if not marked:
            marked.append(gens)
            code = code + [0]
        return order, code

    monkeypatch.setattr(cl, "_cayley_walk", marking_walk)
    with pytest.raises(InternalCheckFailed,
                       match=r"unequal survivor counts \[1, 2\]"):
        classify(s4xz2)


def test_scan_refuses_past_its_visit_limit(monkeypatch, s4):
    # s4 has 9 involutions, so at least 9*8*7 / 24 = 21 Inn-least triples,
    # and in fact 30: a limit of 25 passes the first count, not the second
    import importlib
    cl = importlib.import_module("linhyp.classify")
    monkeypatch.setattr(cl, "_SCAN_WORK", 25 * s4.order)
    with pytest.raises(GroupTooLargeForAut, match="more than 25 triples"):
        classify(s4)
    visits = sum(1 for _ in cl._self_canonical_triples(
        cl._inner_rows(s4, involutions(s4)), involutions(s4)))
    assert visits == 30


def test_classify_respects_aut_cap(monkeypatch, s4):
    import linhyp.permgroup as pg
    monkeypatch.setattr(pg, "DEFAULT_AUT_CAP", 4)
    fresh = closure([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
    with pytest.raises(GroupTooLargeForAut):
        automorphism_group(fresh, max_order=4)


def test_class_set_closed_under_duality(a5xz2, a5xz2_classes):
    keys = {c.canonical_key for c in a5xz2_classes.classes}
    for c in a5xz2_classes.classes:
        t = c.triple
        dual_key = canonical_key(InvolutionTriple(a5xz2, t.r1, t.r0, t.r2))
        assert dual_key in keys


def test_classified_m_sequences_match_flag_recomputation(s4_classes):
    from linhyp.hypermap import extract_cells, surface_invariant
    for c in s4_classes.classes:
        ms = c.m_sequence
        flags = c.hypermap.to_flag_hypermap()
        assert extract_cells(flags).counts == (
            ms.vertices, ms.hyperedges, ms.hyperfaces)
        s = surface_invariant(flags)
        assert (s.genus, s.orientable) == (ms.genus, ms.orientable)


random_generators = st.integers(4, 6).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=2, max_size=3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_generators)
def test_classify_matches_brute_force_on_random_groups(images):
    group = closure([Permutation(p) for p in images])
    # the brute-force stream takes about 0.5 s on a group of order 120
    assume(group.order <= 60)
    result = classify(group)
    stream = list(admissible_triples(group))
    keys = [c.canonical_key for c in result.classes]
    assert keys == sorted({canonical_key(t) for t in stream})
    assert result.admissible_triple_count == len(stream)
    assert all(c.orbit_size == result.aut_group_size for c in result.classes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_generators, st.data())
def test_validate_regular_matches_flag_validator_on_random_groups(images,
                                                                  data):
    group = closure([Permutation(p) for p in images])
    invs = involutions(group)
    assume(len(invs) >= 3)
    t = InvolutionTriple(group, *data.draw(
        st.lists(st.sampled_from(invs), min_size=3, max_size=3, unique=True)))
    report = validate_regular(t)
    order = ["generates", "stabilizer-intersection", "product-intersection"]
    assert [c.name for c in report.checks] == order
    flags = FlagHypermap(*(
        Permutation([group.mul(x, r) for x in range(group.order)])
        for r in t.indices))
    flag_report = validate_hypermap(flags)
    assert flag_report.check("transitive").passed == report.check(
        "generates").passed
    for name in order[1:]:
        assert flag_report.check(name).passed == report.check(name).passed
    assert report.failed_names() == [
        name for name in order if not report.check(name).passed]


def test_classify_and_dual_build_hypermaps_without_validating_again(
        monkeypatch, a5xz2):
    import linhyp.regular as regular
    calls = []
    original = regular._report
    monkeypatch.setattr(regular, "_report",
                        lambda t, memo: calls.append(t) or original(t, memo))
    result = classify(a5xz2, "a5xz2")
    duals = [c.hypermap.dual() for c in result.classes]
    assert calls == []
    assert RegularLinearHypermap.from_triple(duals[0].triple) == duals[0]
    assert calls == [duals[0].triple]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_generators, st.data())
def test_dual_equals_checked_swapped_triple_on_random_groups(images, data):
    group = closure([Permutation(p) for p in images])
    # Aut(S6) alone takes about 1 s; order <= 120 keeps this under 2 s
    assume(group.order <= 120)
    result = classify(group)
    assume(result.classes)
    # an automorphism image of a class key is a random admissible triple
    key = data.draw(st.sampled_from(result.classes)).canonical_key
    a = data.draw(st.sampled_from(automorphism_group(group)))
    r0, r1, r2 = (a.mapping[i] for i in key)
    m = RegularLinearHypermap.from_triple(InvolutionTriple(group, r0, r1, r2))
    assert m.dual() == RegularLinearHypermap.from_triple(
        InvolutionTriple(group, r1, r0, r2))


# --- canonical keys ------------------------------------------------------------------


def test_canonical_key_constant_on_orbits(s4):
    auts = automorphism_group(s4)
    for t in itertools.islice(admissible_triples(s4), 10):
        key = canonical_key(t)
        for a in auts:
            image = InvolutionTriple(
                s4, a.mapping[t.r0], a.mapping[t.r1], a.mapping[t.r2])
            assert canonical_key(image) == key


def test_canonical_keys_differ_for_non_isomorphic(a5xz2):
    t1 = triple_from_words(a5xz2, A5XZ2_REPRESENTATIVES[2])
    t2 = triple_from_words(a5xz2, A5XZ2_REPRESENTATIVES[3])
    assert canonical_key(t1) != canonical_key(t2)


# --- census ----------------------------------------------------------------------------


def test_census_proper_orientable_a5xz2(a5xz2):
    report = census([("a5xz2", a5xz2)], proper_only=True, orientable_only=True)
    assert report.per_genus_orientable == {5: 1}
    assert report.per_genus_non_orientable == {}


def test_census_proper_s4_family_is_empty(s4, s4xz2):
    report = census([("s4", s4), ("s4xz2", s4xz2)],
                    proper_only=True, orientable_only=True)
    assert report.per_genus_orientable == {}
    assert report.per_genus_non_orientable == {}
    assert all(s.ok for s in report.per_group)


def test_census_empty_catalog():
    report = census([])
    assert report.per_genus_orientable == {}
    assert report.per_group == ()


def test_census_unfiltered_counts_match_classification(s4, s4_classes):
    report = census([("s4", s4)])
    total = (sum(report.per_genus_orientable.values())
             + sum(report.per_genus_non_orientable.values()))
    assert total == s4_classes.class_count
    assert report.per_genus_orientable == {0: 2}
    assert report.per_genus_non_orientable == {1: 2}


def test_census_genus_range(a5xz2):
    report = census([("a5xz2", a5xz2)], genus_range=(10, 14))
    assert report.per_genus_non_orientable == {10: 4, 14: 4}
    assert report.per_genus_orientable == {}


def test_census_records_per_group_errors(s4, a5xz2):
    # shrink the automorphism cap below 32: only a group with no classes
    # asks for Aut(G), so the cyclic group of order 32 (one involution)
    # fails, while s4 and a5xz2 read |Aut| from their Cayley codes
    import importlib
    cl = importlib.import_module("linhyp.classify")
    original = cl.automorphism_group
    z32 = closure([parse_cycles(
        "(" + " ".join(str(p) for p in range(1, 33)) + ")", 32)])

    def capped(group, max_order=30):
        return original(group, max_order=max_order)

    try:
        cl.automorphism_group = capped
        report = census([("s4", s4), ("z32", z32), ("a5xz2", a5xz2)])
    finally:
        cl.automorphism_group = original
    by_name = {s.name: s for s in report.per_group}
    assert by_name["s4"].ok and by_name["a5xz2"].ok
    assert not by_name["z32"].ok
    assert "GroupTooLargeForAut" in by_name["z32"].error


def test_census_coverage_note_flags_partiality(a5xz2):
    report = census([("a5xz2", a5xz2)], proper_only=True, orientable_only=True)
    note = report.coverage_note.lower()
    assert "only" in note and "catalog" in note
    assert "small-groups database" in note


def test_dihedral_family_classes_appear(a5xz2):
    # containment: the m1 class for every n, the m2 class exactly for odd n
    from linhyp.constructions import build_dihedral_family, dihedral_times_z2_group
    for n in range(3, 9):
        group, _, _, _ = dihedral_times_z2_group(n)
        result = classify(group, f"z2xd{2*n}")
        keys = {c.canonical_key for c in result.classes}
        m1 = build_dihedral_family(n, "m1")
        assert canonical_key(m1.triple) in keys
        if n % 2:
            m2 = build_dihedral_family(n, "m2")
            assert canonical_key(m2.triple) in keys
        sequences = {str(c.m_sequence) for c in result.classes}
        assert f"[0;2,2,{n};{n},{n},2;{4*n}]" in sequences
        if n % 2:
            assert f"[1;2,2,{2*n};{n},{n},1;{4*n}]" in sequences


def test_genus_upper_bound_is_safe(a5xz2, a5xz2_classes):
    bound_ori = genus_upper_bound(a5xz2.order, True)
    bound_all = genus_upper_bound(a5xz2.order, False)
    for c in a5xz2_classes.classes:
        ms = c.m_sequence
        if ms.orientable:
            assert ms.genus <= bound_ori
        assert ms.genus <= bound_all


def test_sphere_classification_derived_from_classify():
    """The orientable genus-0 rows of the sphere table, found by classify.

    A regular hypermap of type (k, m, n) with group G on the sphere has
    Euler characteristic ``|G|/2k + |G|/2m + |G|/2n - |G|/2 = 2``, so
    ``|G| = 4 / (1/k + 1/m + 1/n - 1)``.  Its triple satisfies the
    relations of the extended triangle group Δ(k, m, n), so G is a quotient
    of Δ, which for these types is finite of exactly this order: G is Δ.
    Up to the order of the type, the spherical types are (2, 3, 3) with
    Δ = S4, (2, 3, 4) with S4 x Z2, (2, 3, 5) with A5 x Z2 and (2, 2, n)
    with D_n x Z2.  So classify on these groups finds every sphere
    hypermap: the ten exceptional rows and the dihedral family.
    """
    rows = []
    for name in ("s4", "s4xz2", "a5xz2"):
        group = parse_group_file(DATA_DIR / f"{name}.grp").group
        spheres = [c.m_sequence for c in classify(group, name).classes
                   if c.m_sequence.genus == 0 and c.m_sequence.orientable]
        rows.append(spheres)
    assert [len(r) for r in rows] == [2, 4, 4]
    assert {(m.genus, m.k, m.m, m.n, m.vertices, m.hyperedges,
             m.hyperfaces, m.flags) for r in rows for m in r} == _SPHERE_ROWS
    for n in range(3, 25):
        group = dihedral_times_z2_group(n)[0]
        spheres = [str(c.m_sequence) for c in classify(group, "").classes
                   if c.m_sequence.genus == 0 and c.m_sequence.orientable]
        assert spheres == [f"[0;2,2,{n};{n},{n},2;{4 * n}]"], n
