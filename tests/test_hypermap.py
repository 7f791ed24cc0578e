from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from linhyp.permgroup import Permutation, parse_cycles
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


def _bfs_subgroup(gens):
    """Every element of the group generated by image tuples, by closure."""
    ident = tuple(range(len(gens[0])))
    seen, queue = {ident}, [ident]
    for x in queue:
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _subgroup_checks_by_definition(h):
    """Verdict and detail of both subgroup conditions, from |H & K| and from
    HK(phi) & KH(phi) = H(phi) | K(phi) tested at every flag phi."""
    hsub = _bfs_subgroup([h.r1.images, h.r2.images])
    ksub = _bfs_subgroup([h.r0.images, h.r2.images])
    meet = len(hsub & ksub)
    stab = (meet == 2, "" if meet == 2 else
            f"<r1,r2> meets <r0,r2> in {meet} elements, expected 2")
    for phi in range(h.flag_count):
        h_orbit = {g[phi] for g in hsub}
        k_orbit = {g[phi] for g in ksub}
        hk = {k[x] for x in h_orbit for k in ksub}
        kh = {g[x] for x in k_orbit for g in hsub}
        if hk & kh != h_orbit | k_orbit:
            return stab, (False, f"product condition fails at flag {phi + 1}")
    return stab, (True, "")


def _assert_subgroup_checks_match_definition(h):
    report = validate_hypermap(FlagHypermap(h.r0, h.r1, h.r2))
    got = tuple((report.check(name).passed, report.check(name).detail)
                for name in ("stabilizer-intersection", "product-intersection"))
    assert got == _subgroup_checks_by_definition(h)


def _flags_from_cycles(n, *words):
    return FlagHypermap(*(parse_cycles(w, n) for w in words))


def test_subgroup_checks_match_the_definition(torus, s4):
    _assert_subgroup_checks_match_definition(torus)
    _assert_subgroup_checks_match_definition(
        _regular_flags(s4, "(1 3);(1 2);(3 4)"))
    klein = _flags_from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)")
    _assert_subgroup_checks_match_definition(klein)
    # transitive, stabilisers meeting in <r2>, product condition failing at
    # flag 2: two hyperedges share a pair of vertices
    twelve = _flags_from_cycles(12, "(1 8)(2 6)(3 7)(4 10)(5 12)(9 11)",
                                "(1 5)(2 3)(4 9)(6 7)(8 10)(11 12)",
                                "(1 8)(2 4)(3 9)(5 6)(7 11)(10 12)")
    report = validate_hypermap(twelve)
    assert report.check("stabilizer-intersection").passed
    assert report.check("product-intersection").detail == (
        "product condition fails at flag 2")
    _assert_subgroup_checks_match_definition(twelve)


@st.composite
def _involution_triples(draw, max_half=12):
    """Three fixed-point-free involutions on 4..2*max_half flags; r0 is
    sometimes r1 with two 2-cycles exchanged, so that near-misses are
    common."""
    rng = draw(st.randoms(use_true_random=True))
    n = 2 * rng.randint(2, max_half)

    def matching():
        order = rng.sample(range(n), n)
        images = [0] * n
        for a, b in zip(order[::2], order[1::2]):
            images[a], images[b] = b, a
        return images

    r0, r1, r2 = matching(), matching(), matching()
    if rng.random() < 0.3:
        r0 = list(r1)
        a, b = rng.randrange(n), rng.randrange(n)
        a2, b2 = r0[a], r0[b]
        if len({a, a2, b, b2}) == 4:
            r0[a], r0[a2], r0[b], r0[b2] = b, b2, a, a2
    return FlagHypermap(*(Permutation(r) for r in (r0, r1, r2)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_involution_triples())
def test_subgroup_checks_match_the_definition_on_random_triples(h):
    _assert_subgroup_checks_match_definition(h)


def _union_find_orbits(n, perms):
    """Reference orbits: union-find over every image, regrouped and sorted."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i, v in enumerate(p.images):
            parent[find(v)] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i + 1)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda t: t[0])


def _pair_count_product_failure(cells):
    """Reference product scan: the least flag whose hyperedge meets a vertex
    that ``linearity_violations()`` pairs with the flag's vertex."""
    vertex_of = {f: v for v, orbit in enumerate(cells.vertices, 1) for f in orbit}
    hg = LinearHypergraph(tuple(range(1, len(cells.vertices) + 1)), tuple(
        frozenset(vertex_of[f] for f in orbit) for orbit in cells.hyperedges))
    partners = {}
    for u, w in hg.linearity_violations():
        partners.setdefault(u, set()).add(w)
        partners.setdefault(w, set()).add(u)
    return min((flag for orbit, edge in zip(cells.hyperedges, hg.hyperedges)
                for flag in orbit
                if not edge.isdisjoint(partners.get(vertex_of[flag], ()))),
               default=None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_involution_triples(max_half=30))
def test_orbit_and_product_scans_match_their_references(h):
    from linhyp.hypermap import (
        CellStructure, _cells, _parity_walk, _product_failure)

    n, r0, r1, r2 = h.flag_count, h.r0, h.r1, h.r2
    orbits, swapped = _parity_walk((r0, r1, r2))
    assert orbits == len(_union_find_orbits(n, [r0, r1, r2]))
    # each monodromy orbit 2-colours exactly when the even words split it
    assert swapped == (len(_union_find_orbits(n, [r0 * r1, r1 * r2]))
                       == 2 * orbits)
    numbers = []
    for pair in ([r1, r2], [r0, r2], [r0, r1]):
        orbits, cell_of = _cells(*pair)
        assert list(orbits) == _union_find_orbits(n, pair)
        assert cell_of == [0] + [next(c for c, o in enumerate(orbits, 1) if f in o)
                                 for f in range(1, n + 1)]
        numbers.append(cell_of)
    cells = CellStructure(*(tuple(_union_find_orbits(n, pair))
                            for pair in ([r1, r2], [r0, r2], [r0, r1])))
    vertex_of, edge_of = numbers[:2]
    incidence = tuple(frozenset(vertex_of[f] for f in e) for e in cells.hyperedges)
    assert (_product_failure(cells.vertices, edge_of, incidence)
            == _pair_count_product_failure(cells))


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_involution_triples())
def test_underlying_hypergraph_matches_a_flag_to_vertex_rebuild(h):
    # the incidence kept by validation against one rebuilt from the cells
    if not validate_hypermap(h).ok:
        return
    cells = extract_cells(h)
    vertex_of = {f: v for v, orbit in enumerate(cells.vertices, 1) for f in orbit}
    expected = LinearHypergraph(tuple(range(1, len(cells.vertices) + 1)), tuple(
        frozenset(vertex_of[f] for f in orbit) for orbit in cells.hyperedges))
    if len(expected.hyperedges) < 2 or min(map(len, expected.hyperedges)) < 2:
        with pytest.raises(DegenerateHypermap):
            underlying_hypergraph(h)
    else:
        assert underlying_hypergraph(h) == expected


# --- orientability and genus ----------------------------------------------------


def test_torus_orientable(torus):
    assert orientability(torus) is True


def test_genus10_non_orientable(genus10_flags):
    assert orientability(genus10_flags) is False


def test_sphere_253_orientable(sphere_253_flags):
    assert orientability(sphere_253_flags) is True


def test_even_subgroup_orbit_count_is_one_or_two(torus, sphere_253_flags, genus10_flags):
    for h in (torus, sphere_253_flags, genus10_flags):
        orbits = _union_find_orbits(h.flag_count, [h.r0 * h.r1, h.r1 * h.r2])
        assert len(orbits) in (1, 2)
        assert orientability(h) == (len(orbits) == 2)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(1, 8), max_size=5), max_size=8)
       .flatmap(lambda edges: st.lists(st.sampled_from(edges), max_size=3)
                .map(lambda twice: edges + twice) if edges else st.just(edges)))
def test_is_linear_agrees_with_the_pair_count(edges):
    # the second draw repeats some hyperedges; singletons and empty ones come
    # from the frozensets themselves
    hg = LinearHypergraph(tuple(range(1, 9)), tuple(edges))
    assert hg.is_linear() == (not hg.linearity_violations())


def test_hypergraph_rejects_unknown_vertices():
    with pytest.raises(ValueError):
        LinearHypergraph((1, 2), (frozenset({1, 3}),))


# --- one validation per hypermap, bounded stabilisers ---------------------------


def test_each_flag_hypermap_is_validated_once(monkeypatch, capsys, data_dir):
    import linhyp.hypermap as hm
    from linhyp.catalog import load_flag_hypermap
    from linhyp.cli import main

    calls = []
    original = hm._product_failure
    monkeypatch.setattr(hm, "_product_failure",
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


def test_validation_trusts_the_constructor_for_involutions(monkeypatch, torus):
    # FlagHypermap() already refused any ri that is not a fixed-point-free
    # involution, so validation does not test that again
    h = FlagHypermap(torus.r0, torus.r1, torus.r2)

    def refuse(self, *args):
        raise AssertionError("recomputed after construction")
    monkeypatch.setattr(Permutation, "is_involution", refuse)
    monkeypatch.setattr(Permutation, "fixed_points", refuse)
    report = validate_hypermap(h)
    assert report.ok
    assert [(c.name, c.passed) for c in report.checks[:2]] == [
        ("involutions", True), ("fixed-point-free", True)]


def _hostile_flags(path, halves=(2, 3, 5, 7, 11, 13, 17, 19, 23)):
    """Flags whose <r1,r2>-orbits are alternating cycles of the given
    half-lengths, so |<r1,r2>| = 2 * lcm(halves); by default 200 flags and
    |<r1,r2>| = 446185740.  The flag count must be a multiple of 4."""
    r1, r2, start = [], [], 1
    for half in halves:
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


def test_stabiliser_meet_walks_without_listing_the_larger_stabiliser(tmp_path):
    # |<r1,r2>| = 2 * lcm(8, 9, 5, 7, 11) = 55440 on 400 flags: listing it
    # as image tuples needs about 180 MB, more than the child may map
    import resource
    import subprocess
    import sys

    limit = 200 * 2**20
    path = _hostile_flags(tmp_path / "wide.flags", (8, 9, 5, 7, 11) + (1,) * 160)

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "linhyp.cli", "validate-flags", "--flags",
         str(path)], capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert ("stabilizer-intersection: FAIL  <r1,r2> meets <r0,r2> in 4 "
            "elements, expected 2") in proc.stdout.splitlines()


@pytest.mark.parametrize("halves", [(2, 4), (3, 6, 4, 1), (8, 9, 5, 7, 11)])
def test_equal_stabilisers_meet_in_the_whole_group(tmp_path, halves):
    # r0 = r1 makes H = K, so |H & K| = |H| = 2 * lcm(halves); cycles of
    # sigma of lengths 2, 2, 4, 4 need the offsets combined modulo the lcm
    from math import lcm

    from linhyp.catalog import load_flag_hypermap

    h = load_flag_hypermap(_hostile_flags(tmp_path / "equal.flags", halves))
    report = validate_hypermap(FlagHypermap(h.r1, h.r1, h.r2))
    assert report.check("stabilizer-intersection").detail == (
        f"<r1,r2> meets <r0,r2> in {2 * lcm(*halves)} elements, expected 2")


def test_stabiliser_meet_of_2000_flags_needs_no_element_list(tmp_path):
    # r0 = r1 on an 80-flag core of half-lengths 8, 9, 5, 7, 11, padded to
    # 2000 flags with blocks where r1 = r2: both stabilisers have 55440
    # elements and meet in 27720; holding one as image tuples took 875 MB
    import resource
    import subprocess
    import sys

    limit = 200 * 2**20
    r1, r2, start = [], [], 1
    for half in (8, 9, 5, 7, 11):
        p = range(start, start + 2 * half)
        r1 += [(p[2 * i], p[2 * i + 1]) for i in range(half)]
        r2 += [(p[2 * i + 1], p[(2 * i + 2) % (2 * half)]) for i in range(half)]
        start += 2 * half
    r0 = list(r1)
    for b in range(start, 2001, 4):
        r1 += [(b, b + 1), (b + 2, b + 3)]
        r2 += [(b, b + 1), (b + 2, b + 3)]
        r0 += [(b, b + 2), (b + 1, b + 3)]
    words = ["".join(f"({a} {b})" for a, b in r) for r in (r0, r1, r2)]
    path = tmp_path / "meet.flags"
    path.write_text("flags: 2000\n" + "".join(
        f"r{i}: {w}\n" for i, w in enumerate(words)), encoding="utf-8")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "linhyp.cli", "validate-flags", "--flags",
         str(path)], capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert ("stabilizer-intersection: FAIL  <r1,r2> meets <r0,r2> in 27720 "
            "elements, expected 2") in proc.stdout.splitlines()
    assert proc.stderr == ""


def test_valid_flag_path_decides_linearity_once(monkeypatch, torus):
    # configuration_check(underlying_hypergraph(h)) asks is_linear() twice
    # of one hypergraph; the verdict is kept, so each vertex is tested once
    import linhyp.hypermap as hm

    validate_hypermap(torus)
    tested = []
    meet_only_at = hm._meet_only_at
    monkeypatch.setattr(hm, "_meet_only_at",
                        lambda at: tested.append(at) or meet_only_at(at))
    assert configuration_check(underlying_hypergraph(torus)).linear
    assert len(tested) == len(extract_cells(torus).vertices)


def test_product_condition_scans_flags_without_listing_vertex_pairs(tmp_path):
    # r1 = r2 makes 2000 two-flag vertices and one hyperedge over all 4000
    # flags: its C(2000, 2) vertex pairs take about 226 MB as a Counter
    import resource
    import subprocess
    import sys

    limit = 200 * 2**20
    n = 4000
    r2 = "".join(f"({i} {i + 1})" for i in range(1, n, 2))
    r0 = "".join(f"({i} {i % n + 1})" for i in range(2, n + 1, 2))
    path = tmp_path / "one-edge.flags"
    path.write_text(f"flags: {n}\nr0: {r0}\nr1: {r2}\nr2: {r2}\n",
                    encoding="utf-8")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "linhyp.cli", "validate-flags", "--flags",
         str(path)], capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "pairwise-distinct: FAIL  two of r0, r1, r2 coincide" in lines
    assert "product-intersection: PASS" in lines
    assert "Traceback" not in proc.stderr and "MemoryError" not in proc.stderr


SIX_FLAGS = ("flags: 6\nr0: (1 5)(2 4)(3 6)\nr1: (1 5)(2 3)(4 6)\n"
             "r2: (1 4)(2 6)(3 5)\n")


@pytest.mark.parametrize("text, message", [
    (SIX_FLAGS, r"hyperedge 1 of 1 meets 1 vertex\(es\)"),
    ("flags: 6\nr0: (1 5)(2 4)(3 6)\nr1: (1 4)(2 3)(5 6)\n"
     "r2: (1 4)(2 5)(3 6)\n", r"hyperedge 2 of 2 meets 1 vertex\(es\)"),
])
def test_degenerate_hypergraph_of_a_valid_file_is_an_input_error(
        tmp_path, text, message):
    from linhyp.catalog import load_flag_hypermap

    path = tmp_path / "degenerate.flags"
    path.write_text(text, encoding="utf-8")
    h = load_flag_hypermap(path)
    assert validate_hypermap(h).ok
    with pytest.raises(DegenerateHypermap, match=message):
        underlying_hypergraph(h)
