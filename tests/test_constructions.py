from __future__ import annotations

import sys
import threading

import pytest

from linhyp import constructions
from linhyp.classify import classify
from linhyp.constructions import (
    PLATONIC_SCHLAFLI,
    _PLATONIC_TRIPLES,
    _SPHERE_ROWS,
    _symmetry_group,
    RegularMapTriple,
    build_dihedral_family,
    build_half_twist_family,
    digon,
    dihedral_times_z2_group,
    matches_sphere_table,
    medial,
    platonic_map,
    search_platonic_triple,
    simple_graph_check,
)
from linhyp.errors import BadParameter, NotSimple, UnknownSolid
from linhyp.regular import MSequence

SPHERE_ROWS = {
    "tetrahedron": ("[0;2,3,3;6,4,4;24]", "[0;3,2,3;4,6,4;24]"),
    "cube": ("[0;2,3,4;12,8,6;48]", "[0;3,2,4;8,12,6;48]"),
    "octahedron": ("[0;2,4,3;12,6,8;48]", "[0;4,2,3;6,12,8;48]"),
    "dodecahedron": ("[0;2,3,5;30,20,12;120]", "[0;3,2,5;20,30,12;120]"),
    "icosahedron": ("[0;2,5,3;30,12,20;120]", "[0;5,2,3;12,30,20;120]"),
}


# --- dihedral families --------------------------------------------------------


def test_m1_family_sequences():
    for n in range(3, 9):
        ms = build_dihedral_family(n, "m1").m_sequence()
        assert str(ms) == f"[0;2,2,{n};{n},{n},2;{4 * n}]"
        assert ms.orientable and ms.genus == 0


def test_m2_family_sequences():
    for n in (3, 5, 7):
        ms = build_dihedral_family(n, "m2").m_sequence()
        assert str(ms) == f"[1;2,2,{2 * n};{n},{n},1;{4 * n}]"
        assert not ms.orientable and ms.genus == 1


def test_smallest_m1_matches_sphere_picture():
    # three vertices, three two-valent hyperedges, two hyperfaces
    ms = build_dihedral_family(3).m_sequence()
    assert (ms.vertices, ms.hyperedges, ms.hyperfaces) == (3, 3, 2)


def test_dihedral_bad_parameters():
    with pytest.raises(BadParameter):
        build_dihedral_family(2)
    with pytest.raises(BadParameter):
        build_dihedral_family(4, "m2")
    with pytest.raises(BadParameter):
        build_dihedral_family(5, "m3")


def test_half_twist_sequences():
    assert str(build_half_twist_family(8).m_sequence()) == "[1;2,2,8;4,4,1;16]"
    assert str(build_half_twist_family(12).m_sequence()) == "[1;2,2,12;6,6,1;24]"
    assert not build_half_twist_family(8).m_sequence().orientable


def test_half_twist_bad_parameters():
    for m in (4, 5, 6, 10):
        with pytest.raises(BadParameter):
            build_half_twist_family(m)


# --- platonic maps -------------------------------------------------------------


def test_platonic_schlafli_and_group_orders():
    expected_orders = {
        "tetrahedron": 24, "cube": 48, "octahedron": 48,
        "dodecahedron": 120, "icosahedron": 120,
    }
    for solid, (p, q) in PLATONIC_SCHLAFLI.items():
        t = platonic_map(solid)
        g = t.group
        assert g.order == expected_orders[solid]
        assert g.element_order(g.mul(t.r0, t.r1)) == p
        assert g.element_order(g.mul(t.r1, t.r2)) == q
        assert g.element_order(g.mul(t.r0, t.r2)) == 2
        assert g.subgroup_bits(t.indices).bit_count() == g.order


def test_concurrent_platonic_maps_share_one_group(monkeypatch):
    monkeypatch.setattr(constructions, "_group_cache", {})
    barrier = threading.Barrier(8, timeout=30)
    groups = []

    def build():
        barrier.wait()
        groups.append(platonic_map("cube").group)

    threads = [threading.Thread(target=build) for _ in range(8)]
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
    assert len(groups) == 8
    assert all(g is groups[0] for g in groups)


def test_unknown_solid():
    with pytest.raises(UnknownSolid):
        platonic_map("teapot")


def test_pinned_triples_match_fresh_search():
    # re-derive the checked-in table from scratch
    for solid, (p, q) in PLATONIC_SCHLAFLI.items():
        g = _symmetry_group(solid)
        found = search_platonic_triple(g, p, q)
        assert found is not None
        words = tuple(g.word(i) for i in found)
        assert words == _PLATONIC_TRIPLES[solid]


def test_simple_graph_check_on_platonic_maps():
    for solid in PLATONIC_SCHLAFLI:
        assert simple_graph_check(platonic_map(solid))


def test_simple_graph_check_rejects_face_width_two():
    # a digon-faced map: |r0 r1| = 2 forces K inside H
    from linhyp.permgroup import closure, parse_cycles
    g = closure([parse_cycles(w, 6) for w in ["(1 2)", "(3 4)", "(5 6)"]])
    t = RegularMapTriple(
        g,
        g.index_of(parse_cycles("(1 2)", 6)),
        g.index_of(parse_cycles("(3 4)", 6)),
        g.index_of(parse_cycles("(5 6)", 6)),
        (2, 2),
    )
    assert g.element_order(g.mul(t.r0, t.r1)) == 2
    assert not simple_graph_check(t)


def test_simple_graph_check_rejects_k_inside_h():
    # r0 = r1 * r2 makes <r0, r2> a subset of <r1, r2>
    from linhyp.permgroup import closure, parse_cycles
    g = closure([parse_cycles(w, 6) for w in ["(1 2)", "(3 4)", "(5 6)"]])
    t = RegularMapTriple(
        g,
        g.index_of(parse_cycles("(1 2)(3 4)", 6)),
        g.index_of(parse_cycles("(1 2)", 6)),
        g.index_of(parse_cycles("(3 4)", 6)),
        (2, 2),
    )
    assert not simple_graph_check(t)


def test_medial_rejects_non_simple():
    from linhyp.permgroup import closure, parse_cycles
    g = closure([parse_cycles(w, 6) for w in ["(1 2)", "(3 4)", "(5 6)"]])
    t = RegularMapTriple(
        g,
        g.index_of(parse_cycles("(1 2)", 6)),
        g.index_of(parse_cycles("(3 4)", 6)),
        g.index_of(parse_cycles("(5 6)", 6)),
        (2, 2),
    )
    with pytest.raises(NotSimple):
        medial(t)
    with pytest.raises(NotSimple):
        digon(t)


# --- medial and digon hypermaps ---------------------------------------------------


def test_medial_and_digon_sequences():
    for solid, (med_row, dig_row) in SPHERE_ROWS.items():
        t = platonic_map(solid)
        assert str(medial(t).m_sequence()) == med_row
        assert str(digon(t).m_sequence()) == dig_row


def test_every_medial_has_k2_every_digon_has_m2():
    for solid in PLATONIC_SCHLAFLI:
        t = platonic_map(solid)
        assert medial(t).m_sequence().k == 2
        assert digon(t).m_sequence().m == 2


def test_medial_and_digon_are_dual_to_each_other():
    for solid in PLATONIC_SCHLAFLI:
        t = platonic_map(solid)
        med, dig = medial(t), digon(t)
        assert med.dual().triple == dig.triple
        assert dig.dual().triple == med.triple


def test_ten_rows_are_exactly_the_non_dihedral_sphere_table():
    produced = set()
    for solid in PLATONIC_SCHLAFLI:
        t = platonic_map(solid)
        produced.add(str(medial(t).m_sequence()))
        produced.add(str(digon(t).m_sequence()))
    expected = {row for pair in SPHERE_ROWS.values() for row in pair}
    assert produced == expected
    assert len(produced) == 10


def test_genus_zero_constructions_are_medial_or_digon():
    # every sphere hypermap built here has k = 2 or m = 2
    for solid in PLATONIC_SCHLAFLI:
        t = platonic_map(solid)
        for m in (medial(t), digon(t)):
            ms = m.m_sequence()
            assert ms.genus == 0
            assert ms.k == 2 or ms.m == 2
    for n in range(3, 9):
        ms = build_dihedral_family(n).m_sequence()
        assert ms.genus == 0
        assert ms.k == 2 or ms.m == 2


# --- the sphere table ----------------------------------------------------------------


def test_sphere_table_membership():
    for solid in PLATONIC_SCHLAFLI:
        t = platonic_map(solid)
        assert matches_sphere_table(medial(t).m_sequence())
        assert matches_sphere_table(digon(t).m_sequence())
        assert medial(t).m_sequence().flags >= 12
    for n in range(3, 9):
        assert matches_sphere_table(build_dihedral_family(n).m_sequence())


def test_sphere_table_is_what_classify_finds_on_the_triangle_groups(
        s4_classes, s4xz2_classes, a5xz2_classes):
    # a sphere hypermap's group is a finite extended triangle group: S4 is
    # D(2,3,3), S4 x Z2 is D(2,3,4), A5 x Z2 is D(2,3,5), D_j x Z2 is D(2,2,j)
    results = {None: [s4_classes, s4xz2_classes, a5xz2_classes]}
    for j in range(3, 11):
        results[j] = [classify(dihedral_times_z2_group(j)[0])]
    seen = set()
    for j, found in results.items():
        spheres = [c.m_seq for r in found for c in r.classes
                   if c.m_seq.genus == 0 and c.m_seq.orientable]
        assert all(matches_sphere_table(ms) for ms in spheres)
        rows = {(ms.genus, ms.k, ms.m, ms.n, ms.vertices, ms.hyperedges,
                 ms.hyperfaces, ms.flags) for ms in spheres}
        if j is not None:
            assert (0, 2, 2, j, j, j, 2, 4 * j) in rows
        seen |= rows
    assert _SPHERE_ROWS <= seen


def test_sphere_table_rejections():
    assert not matches_sphere_table(build_dihedral_family(5, "m2").m_sequence())
    assert not matches_sphere_table(build_half_twist_family(8).m_sequence())
    # a sphere sequence with too few flags
    tiny = MSequence(0, 2, 2, 2, 2, 2, 2, 8, True)
    assert not matches_sphere_table(tiny)


def test_family_spec_dispatch():
    from linhyp.constructions import FamilySpec
    assert str(FamilySpec("z2xd2n", n=4).build().m_sequence()) == \
        "[0;2,2,4;4,4,2;16]"
    assert str(FamilySpec("d2m", m=8).build().m_sequence()) == \
        "[1;2,2,8;4,4,1;16]"
    assert FamilySpec("platonic", solid="cube").build().schlafli == (4, 3)
    with pytest.raises(BadParameter):
        FamilySpec("z2xd2n").build()
    with pytest.raises(BadParameter):
        FamilySpec("moebius").build()
