from __future__ import annotations

import itertools

import pytest

from torus_fixture import (
    build_torus_hypermap,
    hypergraphs_isomorphic,
    torus_hypergraph,
)

from linhyp.errors import (
    DegenerateHypermap,
    InvalidHypermap,
    NonIntegralGenus,
)
from linhyp.hypermap import (
    FlagHypermap,
    LinearHypergraph,
    configuration_check,
    extract_cells,
    genus_from_euler,
    orientability,
    surface_invariant,
    underlying_hypergraph,
    validate_hypermap,
)
from linhyp.permgroup import parse_cycles
from linhyp.regular import RegularLinearHypermap, triple_from_words


@pytest.fixture(scope="module")
def torus():
    return build_torus_hypermap()


def _regular_flags(group, triple_text):
    return RegularLinearHypermap.from_triple(
        triple_from_words(group, triple_text)).to_flag_hypermap()


@pytest.fixture(scope="module")
def sphere_253_flags(a5xz2):
    # the orientable sphere-partner class with 30 vertices and 12 hyperedges
    return _regular_flags(a5xz2, "(1 2)(3 5)(6 7);(1 2)(3 4)(6 7);(1 3)(2 4)(6 7)")


@pytest.fixture(scope="module")
def genus10_flags(a5xz2):
    return _regular_flags(a5xz2, "(1 2)(3 5);(1 2)(3 4)(6 7);(1 4)(2 3)")


# --- construction guards ------------------------------------------------------


def test_construction_rejects_small_flag_sets():
    p = parse_cycles("(1 2)", 2)
    with pytest.raises(DegenerateHypermap):
        FlagHypermap(p, p, p)


def test_construction_rejects_fixed_points():
    r = parse_cycles("(1 2)", 4)  # fixes 3 and 4
    with pytest.raises(DegenerateHypermap):
        FlagHypermap(r, r, r)


def test_construction_rejects_non_involution():
    r = parse_cycles("(1 2 3 4)", 4)
    ok = parse_cycles("(1 2)(3 4)", 4)
    with pytest.raises(DegenerateHypermap):
        FlagHypermap(r, ok, ok)


# --- validation ----------------------------------------------------------------


def test_s4_regular_representation_validates(s4):
    h = _regular_flags(s4, "(1 3);(1 2);(3 4)")
    assert h.flag_count == 24
    report = validate_hypermap(h)
    assert report.ok


def test_equal_involutions_fail_pairwise_distinct():
    r = parse_cycles("(1 2)(3 4)", 4)
    other = parse_cycles("(1 3)(2 4)", 4)
    h = FlagHypermap(r, r, other)
    report = validate_hypermap(h)
    assert not report.check("pairwise-distinct").passed


def test_torus_hypermap_validates(torus):
    report = torus.validate()
    assert report.ok, report.summary()


def test_klein_four_flags_fail_stabilizer_intersection():
    h = FlagHypermap(parse_cycles("(1 2)(3 4)", 4),
                     parse_cycles("(1 3)(2 4)", 4),
                     parse_cycles("(1 4)(2 3)", 4))
    report = validate_hypermap(h)
    assert not report.ok
    assert not report.check("stabilizer-intersection").passed


def test_disconnected_flags_fail_transitivity():
    # two disjoint squares of flags
    h = FlagHypermap(parse_cycles("(1 2)(3 4)(5 6)(7 8)", 8),
                     parse_cycles("(1 3)(2 4)(5 7)(6 8)", 8),
                     parse_cycles("(1 4)(2 3)(5 8)(6 7)", 8))
    assert not h.validate().check("transitive").passed


def test_pointwise_condition_agrees_with_one_flag_per_orbit(torus, s4):
    # on a transitive hypermap, checking one flag must agree with checking all
    from linhyp.hypermap import _perm_subgroup, _product_condition_all_flags

    for h in (torus, _regular_flags(s4, "(1 3);(1 2);(3 4)")):
        n = h.flag_count
        hsub = _perm_subgroup(n, [h.r1.images, h.r2.images])
        ksub = _perm_subgroup(n, [h.r0.images, h.r2.images])
        all_flags, _ = _product_condition_all_flags(n, hsub, ksub)

        phi = 0
        h_orbit = {g[phi] for g in hsub}
        k_orbit = {g[phi] for g in ksub}
        hk = {k[x] for x in h_orbit for k in ksub}
        kh = {g[x] for x in k_orbit for g in hsub}
        one_flag = hk & kh == h_orbit | k_orbit
        assert all_flags == one_flag


# --- cells ---------------------------------------------------------------------


def test_torus_cell_counts(torus):
    assert extract_cells(torus).counts == (9, 6, 3)


def test_sphere_253_cell_counts(sphere_253_flags):
    assert extract_cells(sphere_253_flags).counts == (30, 12, 20)


def test_cells_partition_flags(torus):
    cells = extract_cells(torus)
    n = torus.flag_count
    for part in (cells.vertices, cells.hyperedges, cells.hyperfaces):
        flags = sorted(itertools.chain.from_iterable(part))
        assert flags == list(range(1, n + 1))


def test_hyperedge_orbits_have_even_size(torus, sphere_253_flags):
    for h in (torus, sphere_253_flags):
        for orbit in extract_cells(h).hyperedges:
            assert len(orbit) % 2 == 0


def test_extract_cells_refuses_invalid():
    h = FlagHypermap(parse_cycles("(1 2)(3 4)", 4),
                     parse_cycles("(1 3)(2 4)", 4),
                     parse_cycles("(1 4)(2 3)", 4))
    with pytest.raises(InvalidHypermap):
        extract_cells(h)


# --- underlying hypergraph ---------------------------------------------------


def test_torus_hypergraph_matches_declared_edges(torus):
    hg = underlying_hypergraph(torus)
    assert len(hg.hyperedges) == 6
    assert all(len(e) == 3 for e in hg.hyperedges)
    assert hypergraphs_isomorphic(hg, torus_hypergraph())


def test_sphere_253_hypergraph_is_configuration(sphere_253_flags):
    hg = underlying_hypergraph(sphere_253_flags)
    assert len(hg.hyperedges) == 12
    assert all(len(e) == 5 for e in hg.hyperedges)
    assert set(hg.vertex_degrees().values()) == {2}
    report = configuration_check(hg)
    assert report.is_configuration
    assert report.parameters == (30, 2, 12, 5)


def test_smallest_dihedral_hypergraph():
    from linhyp.constructions import build_dihedral_family
    h = build_dihedral_family(3).to_flag_hypermap()
    hg = underlying_hypergraph(h)
    assert len(hg.vertex_ids) == 3
    assert sorted(tuple(sorted(e)) for e in hg.hyperedges) == [
        (1, 2), (1, 3), (2, 3)]


def test_underlying_hypergraph_always_linear_on_validated(torus, genus10_flags):
    for h in (torus, genus10_flags):
        assert underlying_hypergraph(h).is_linear()


# --- orientability and genus ----------------------------------------------------


def test_torus_orientable(torus):
    assert orientability(torus) is True


def test_genus10_non_orientable(genus10_flags):
    assert orientability(genus10_flags) is False


def test_sphere_253_orientable(sphere_253_flags):
    assert orientability(sphere_253_flags) is True


def test_even_subgroup_orbit_count_is_one_or_two(torus, sphere_253_flags, genus10_flags):
    from linhyp.hypermap import _orbit_partition
    for h in (torus, sphere_253_flags, genus10_flags):
        orbits = _orbit_partition(h.flag_count, [h.r0 * h.r1, h.r1 * h.r2])
        assert len(orbits) in (1, 2)


def test_torus_surface(torus):
    s = surface_invariant(torus)
    assert (s.euler_characteristic, s.orientable, s.genus) == (0, True, 1)


def test_sphere_surface(s4):
    h = _regular_flags(s4, "(1 3);(1 2);(3 4)")
    s = surface_invariant(h)
    assert (s.euler_characteristic, s.orientable, s.genus) == (2, True, 0)


def test_genus_ten_surface(genus10_flags):
    s = surface_invariant(genus10_flags)
    assert (s.euler_characteristic, s.orientable, s.genus) == (-8, False, 10)


def test_genus_from_euler_rejects_bad_counts():
    with pytest.raises(NonIntegralGenus):
        genus_from_euler(1, True)     # odd characteristic, orientable
    with pytest.raises(NonIntegralGenus):
        genus_from_euler(3, True)
    with pytest.raises(NonIntegralGenus):
        genus_from_euler(2, False)    # sphere cannot be non-orientable
    assert genus_from_euler(2, True) == 0
    assert genus_from_euler(1, False) == 1
    assert genus_from_euler(-8, False) == 10


def test_chi_at_most_two(torus, sphere_253_flags, genus10_flags):
    for h in (torus, sphere_253_flags, genus10_flags):
        assert surface_invariant(h).euler_characteristic <= 2


# --- configuration check ---------------------------------------------------------


FANO_EDGES = [
    {0, 1, 3}, {1, 2, 4}, {2, 3, 5}, {3, 4, 6},
    {4, 5, 0}, {5, 6, 1}, {6, 0, 2},
]


def test_fano_plane_is_7_3_configuration():
    hg = LinearHypergraph(tuple(range(7)),
                          tuple(frozenset(e) for e in FANO_EDGES))
    report = configuration_check(hg)
    assert report.is_configuration
    assert report.parameters == (7, 3, 7, 3)


def test_non_linear_hypergraph_reported():
    hg = LinearHypergraph((1, 2, 3), (frozenset({1, 2}), frozenset({2, 3}),
                                      frozenset({1, 2, 3})))
    report = configuration_check(hg)
    assert not report.linear
    assert not report.is_configuration
    assert hg.linearity_violations() == [(1, 2), (2, 3)]


def test_linearity_violations_match_pairwise_definition():
    ids = (20, 3, 9, 7, 15)
    edges = (frozenset({20, 3, 9}), frozenset({9, 3, 7}),
             frozenset({20, 9, 15}), frozenset({3, 20}))
    hg = LinearHypergraph(ids, edges)
    pairwise = [(u, v) for u, v in itertools.combinations(sorted(ids), 2)
                if sum(u in e and v in e for e in edges) > 1]
    assert pairwise == [(3, 9), (3, 20), (9, 20)]
    assert hg.linearity_violations() == pairwise
    assert hg.vertex_degrees() == {v: sum(v in e for e in edges) for v in ids}
    assert list(hg.vertex_degrees()) == list(ids)


def test_hypergraph_rejects_unknown_vertices():
    with pytest.raises(ValueError):
        LinearHypergraph((1, 2), (frozenset({1, 3}),))


# --- one validation per hypermap, bounded stabilisers ---------------------------


def test_each_flag_hypermap_is_validated_once(monkeypatch, capsys, data_dir):
    import linhyp.hypermap as hm
    from linhyp.catalog import load_flag_hypermap
    from linhyp.cli import main

    calls = []
    original = hm._product_condition_all_flags
    monkeypatch.setattr(hm, "_product_condition_all_flags",
                        lambda *a: calls.append(a) or original(*a))
    h = load_flag_hypermap(data_dir / "torus9.flags")
    report = validate_hypermap(h)
    h.validate()
    extract_cells(h)
    orientability(h)
    surface_invariant(h)
    underlying_hypergraph(h)
    assert len(calls) == 1
    assert h.validate() is report and validate_hypermap(h) is report

    calls.clear()
    assert main(["validate-flags", "--flags",
                 str(data_dir / "torus9.flags")]) == 0
    assert "genus 1" in capsys.readouterr().out
    assert len(calls) == 1


def _hostile_flags(path):
    """200 flags whose <r1,r2>-orbits are alternating cycles of half-lengths
    2, 3, 5, ..., 23, so |<r1,r2>| = 2 * lcm = 446185740."""
    r1, r2, start = [], [], 1
    for half in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        p = range(start, start + 2 * half)
        r1 += [(p[2 * i], p[2 * i + 1]) for i in range(half)]
        r2 += [(p[2 * i + 1], p[(2 * i + 2) % (2 * half)]) for i in range(half)]
        start += 2 * half
    r0 = [pair for b in range(1, start, 4) for pair in ((b, b + 2), (b + 1, b + 3))]

    def cycles(pairs):
        return "".join(f"({a} {b})" for a, b in pairs)
    path.write_text(f"flags: {start - 1}\nr0: {cycles(r0)}\nr1: {cycles(r1)}\n"
                    f"r2: {cycles(r2)}\n", encoding="utf-8")
    return path


def test_huge_stabiliser_refused_before_enumeration(tmp_path, capsys):
    import time

    from linhyp.catalog import load_flag_hypermap
    from linhyp.cli import main
    from linhyp.errors import GroupTooLarge

    path = _hostile_flags(tmp_path / "hostile.flags")
    with pytest.raises(GroupTooLarge, match="446185740"):
        validate_hypermap(load_flag_hypermap(path))
    started = time.perf_counter()
    assert main(["validate-flags", "--flags", str(path)]) == 1
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: <r1,r2> has 446185740 elements, over the cap of "
                   "200000 (LHM_MAX_GROUP_ORDER)"]


def test_stabiliser_bound_is_the_closure_cap(monkeypatch, torus):
    # |<r1,r2>| = 4 and |<r0,r2>| = 6 on the torus
    from linhyp.errors import GroupTooLarge

    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", "5")
    with pytest.raises(GroupTooLarge, match="<r0,r2> has 6 elements"):
        validate_hypermap(FlagHypermap(torus.r0, torus.r1, torus.r2))
    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", "6")
    assert validate_hypermap(FlagHypermap(torus.r0, torus.r1, torus.r2)).ok
