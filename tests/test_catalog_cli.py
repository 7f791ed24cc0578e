from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from linhyp.catalog import (
    file_sha256,
    load_catalog,
    load_flag_hypermap,
    parse_group_file,
)
from linhyp.cli import main
from linhyp.errors import DuplicateName, ParseError
from linhyp.hypermap import extract_cells
from linhyp.permgroup import Permutation
from linhyp.regular import RegularLinearHypermap, triple_from_words

from conftest import REPO_ROOT


# --- catalog parsing ------------------------------------------------------------


def test_bundled_catalog(data_dir):
    entries = load_catalog([data_dir])
    by_name = {e.name: e for e in entries}
    assert set(by_name) == {"a5xz2", "s4", "s4xz2"}
    assert by_name["a5xz2"].group.order == 120
    assert by_name["s4"].group.order == 24
    assert by_name["s4xz2"].group.order == 48
    assert by_name["a5xz2"].degree == 7
    assert by_name["a5xz2"].times_z2


def test_parse_error_unclosed_cycle(tmp_path):
    path = tmp_path / "broken.grp"
    path.write_text("name: broken\ndegree: 3\ngens:\n(1 2\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_group_file(path)


def test_parse_error_missing_header(tmp_path):
    path = tmp_path / "noname.grp"
    path.write_text("degree: 3\ngens:\n(1 2)\n", encoding="utf-8")
    with pytest.raises(ParseError, match="name"):
        parse_group_file(path)


def test_duplicate_names_rejected(tmp_path):
    text = "name: twin\ndegree: 2\ngens:\n(1 2)\n"
    (tmp_path / "a.grp").write_text(text, encoding="utf-8")
    (tmp_path / "b.grp").write_text(text, encoding="utf-8")
    with pytest.raises(DuplicateName):
        load_catalog([tmp_path])


def test_cli_computes_each_m_sequence_once(monkeypatch, capsys, data_dir):
    import linhyp.regular as regular
    calls = []
    original = regular.m_sequence
    monkeypatch.setattr(regular, "m_sequence",
                        lambda m: calls.append(m) or original(m))
    assert main(["classify", "--group", str(data_dir / "s4xz2.grp"),
                 "--format", "json"]) == 0
    assert len(calls) == json.loads(capsys.readouterr().out)["class_count"]
    calls.clear()
    assert main(["dual", "--group", str(data_dir / "a5xz2.grp"), "--triple",
                 "(1 2)(3 5);(1 2)(3 4)(6 7);(1 4)(2 3)"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("degree", ["0", "\u00b2", "99999999999"])
def test_degree_checked_before_allocation(tmp_path, capsys, degree):
    bad = tmp_path / "huge.grp"
    bad.write_text(f"name: huge\ndegree: {degree}\ngens:\n(1 2)\n",
                   encoding="utf-8")
    with pytest.raises(ParseError, match="degree"):
        parse_group_file(bad)
    assert main(["classify", "--group", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "degree" in err[0]


def test_degree_above_closure_cap_names_the_variable(tmp_path, monkeypatch):
    path = tmp_path / "s4.grp"
    path.write_text("name: s4\ndegree: 4\ngens:\n(1 2)\n(1 2 3 4)\n",
                    encoding="utf-8")
    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", "3")
    with pytest.raises(ParseError, match="LHM_MAX_GROUP_ORDER"):
        parse_group_file(path)
    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", "24")
    assert parse_group_file(path).group.order == 24


def test_group_past_the_image_budget_is_refused_before_any_composition(
        tmp_path, capsys, monkeypatch):
    # a 20000-cycle generates 20000 elements: under the order cap, but past
    # the 64 * 200000 / 20000 = 640 elements of degree 20000 that the image
    # budget allows; its orbit of 20000 points shows it before the walk
    monkeypatch.delenv("LHM_MAX_GROUP_ORDER", raising=False)
    path = tmp_path / "cycle20000.grp"
    path.write_text("name: cycle20000\ndegree: 20000\ngens:\n("
                    + " ".join(map(str, range(1, 20001))) + ")\n",
                    encoding="utf-8")
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda *args: pytest.fail("a permutation composed"))
    assert main(["classify", "--group", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: closure of degree 20000 exceeded 640 elements, the budget of "
        "12800000 images (64 per element of the cap of 200000)"]


def test_catalog_entry_is_frozen(data_dir):
    entry = parse_group_file(data_dir / "s4.grp")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.name = "other"


def test_times_z2_adjoins_central_involution(tmp_path):
    path = tmp_path / "z2sq.grp"
    path.write_text(
        "# tiny example\nname: z2sq\ndegree: 2\ntimes-z2: true\n"
        "gens:\n(1 2)\n", encoding="utf-8")
    entry = parse_group_file(path)
    assert entry.degree == 4
    assert entry.group.order == 4
    from linhyp.permgroup import parse_cycles
    central = entry.group.index_of(parse_cycles("(3 4)", 4))
    for i in range(entry.group.order):
        assert entry.group.mul(i, central) == entry.group.mul(central, i)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.grp"
    path.write_text(
        "# heading\n\nname: c  # trailing comment\n"
        "degree: 3\n\ngens:\n# generator list\n(1 2 3)\n\n(1 2)\n",
        encoding="utf-8")
    entry = parse_group_file(path)
    assert entry.group.order == 6


def test_flag_file_round_trip(data_dir, tmp_path):
    h = load_flag_hypermap(data_dir / "torus9.flags")
    assert h.flag_count == 36
    assert h.validate().ok
    assert extract_cells(h).counts == (9, 6, 3)

    from torus_fixture import build_torus_hypermap
    built = build_torus_hypermap()
    assert h.r0 == built.r0 and h.r1 == built.r1 and h.r2 == built.r2


def test_flag_file_errors(tmp_path):
    bad = tmp_path / "bad.flags"
    bad.write_text("flags: 4\nr0: (1 2)(3 4)\nr1: (1 3)(2 4)\n",
                   encoding="utf-8")
    with pytest.raises(ParseError, match="r2"):
        load_flag_hypermap(bad)


def test_flag_file_unknown_key(tmp_path):
    bad = tmp_path / "extra.flags"
    bad.write_text("flags: 6\nr0: (1 5)(2 4)(3 6)\nr1: (1 5)(2 3)(4 6)\n"
                   "r2: (1 4)(2 6)(3 5)\nr3: (1 2)\n", encoding="utf-8")
    with pytest.raises(ParseError, match="unknown key 'r3'") as info:
        load_flag_hypermap(bad)
    assert info.value.line == 5
    assert main(["validate-flags", "--flags", str(bad)]) == 1


GRP_TAIL = "gens:\n(1 2 3)\n"
FLAGS_TAIL = "r1: (1 3)(2 4)\nr2: (1 4)(2 3)\n"


@pytest.mark.parametrize("suffix, text, line, message", [
    (".grp", None, None, "[Errno 2] No such file or directory: {path!r}"),
    (".grp", "name: a\ndegree 3\n" + GRP_TAIL, 2,
     "expected 'key: value', got 'degree 3'"),
    (".grp", "name: a\ndegree: 3\ntimes-z2: yes\n" + GRP_TAIL, 3,
     "times-z2 must be true or false, got 'yes'"),
    (".grp", "name: a\n# order\ndegree: 3\norder: 6\n" + GRP_TAIL, 4,
     "unknown header key 'order'"),
    (".grp", "name: a\ndegree: 3\ngens: (1 2 3)\n", 3,
     "unknown header key 'gens'"),
    (".grp", "name: a\ndegree: 3\n", None, "missing 'gens:' section"),
    (".grp", "name: a\ndegree: 3\ngens:\n", None, "missing 'gens:' section"),
    (".grp", "degree: 3\n" + GRP_TAIL, None, "missing 'name:' header"),
    (".grp", "name: a\n" + GRP_TAIL, None, "missing 'degree:' header"),
    (".grp", "name: a\ndegree: three\n" + GRP_TAIL, 2, "bad degree 'three'"),
    (".grp", "name: a\ndegree: 200001\n" + GRP_TAIL, 2,
     "degree 200001 exceeds the cap of 200000 (LHM_MAX_GROUP_ORDER)"),
    (".grp", "name: a\ndegree: 3\ngens:\n(1 2\n", 4,
     "bad generator '(1 2': unclosed cycle in '(1 2'"),
    (".flags", None, None, "[Errno 2] No such file or directory: {path!r}"),
    (".flags", "flags: 4\nr0 (1 2)(3 4)\n" + FLAGS_TAIL, 2,
     "expected 'key: value', got 'r0 (1 2)(3 4)'"),
    (".flags", "flags: 4\nr0: (1 2)(3 4)\n" + FLAGS_TAIL + "r3: (1 2)\n", 5,
     "unknown key 'r3'"),
    (".flags", "flags: 4\nr0: (1 2)(3 4)\n\nr0: (1 2)(3 4)\n" + FLAGS_TAIL, 4,
     "duplicate key 'r0'"),
    (".flags", "flags: 4\nr0: (1 2)(3 4)\nr1: (1 3)(2 4)\n", None,
     "missing 'r2' line"),
    (".flags", "r0: (1 2)(3 4)\n" + FLAGS_TAIL, None, "missing 'flags' line"),
    (".flags", "flags: four\nr0: (1 2)(3 4)\n" + FLAGS_TAIL, 1,
     "bad flag count 'four'"),
    (".flags", "flags: 200001\nr0: (1 2)(3 4)\n" + FLAGS_TAIL, 1,
     "flag count 200001 exceeds the cap of 200000 (LHM_MAX_GROUP_ORDER)"),
    (".flags", "flags: 4\nr0: (1 2)(3 5)\n" + FLAGS_TAIL, 2,
     "bad involution: point 5 outside 1..4"),
])
def test_each_input_fault_is_one_parse_error(tmp_path, monkeypatch, capsys,
                                             suffix, text, line, message):
    monkeypatch.delenv("LHM_MAX_GROUP_ORDER", raising=False)
    path = tmp_path / f"input{suffix}"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    message = message.format(path=str(path))
    where = f"{path}:" if line is None else f"{path}:{line}:"
    read, argv = ((parse_group_file, ["classify", "--group", str(path)])
                  if suffix == ".grp" else
                  (load_flag_hypermap, ["validate-flags", "--flags", str(path)]))
    with pytest.raises(ParseError) as info:
        read(path)
    assert (str(info.value), info.value.line) == (f"{where} {message}", line)
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {where} {message}"]


@pytest.mark.parametrize("count", ["99999999999", "0", "\u00b2"])
def test_flag_count_checked_before_allocation(tmp_path, count):
    bad = tmp_path / "huge.flags"
    bad.write_text(f"flags: {count}\nr0: (1 2)\nr1: (1 2)\nr2: (1 2)\n",
                   encoding="utf-8")
    with pytest.raises(ParseError, match="flag count"):
        load_flag_hypermap(bad)
    assert main(["validate-flags", "--flags", str(bad)]) == 1


# int() refuses more than 4300 digits, so the cap is decided on the digit
# count first; the message quotes the digits past any leading zeros
DIGITS = "9" * 5000


@pytest.mark.parametrize("suffix, text, argv, line, label", [
    (".grp", f"name: a\ndegree: 000{DIGITS}\n" + GRP_TAIL,
     ["classify", "--group"], 2, "degree"),
    (".flags", f"flags: {DIGITS}\nr0: (1 2)(3 4)\n" + FLAGS_TAIL,
     ["validate-flags", "--flags"], 1, "flag count"),
], ids=["grp", "flags"])
def test_count_of_thousands_of_digits_is_one_parse_error(
        tmp_path, monkeypatch, capsys, suffix, text, argv, line, label):
    monkeypatch.delenv("LHM_MAX_GROUP_ORDER", raising=False)
    path = tmp_path / f"huge{suffix}"
    path.write_text(text, encoding="utf-8")
    where = f"{path}:" if line is None else f"{path}:{line}:"
    assert main(argv + [str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {where} {label} {DIGITS} exceeds the cap of 200000 "
        "(LHM_MAX_GROUP_ORDER)"]


# --- CLI ------------------------------------------------------------------------


def run_cli(*argv) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "linhyp.cli", *argv],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_point_of_thousands_of_digits_is_one_error_line(data_dir, tmp_path):
    # int() refuses a point of more than 4300 digits; parse_cycles refuses
    # it first, as out of range
    point = "1" * 5000
    flags = tmp_path / "huge-point.flags"
    flags.write_text(f"flags: 4\nr0: (1 {point})\nr1: (1 3)(2 4)\n"
                     "r2: (1 4)(2 3)\n", encoding="utf-8")
    grp = tmp_path / "huge-point.grp"
    grp.write_text(f"name: huge\ndegree: 4\ngens:\n(1 {point})\n",
                   encoding="utf-8")
    for argv in (["validate-flags", "--flags", str(flags)],
                 ["classify", "--group", str(grp)],
                 ["invariants", "--group", str(data_dir / "s4.grp"),
                  "--triple", f"(1 {point}); (1 2); (3 4)"]):
        code, _, err = run_cli(*argv)
        assert code == 1, err
        assert len(err.splitlines()) == 1, err
        assert f"point {point} outside 1..4" in err


def test_cli_classify_json(data_dir, tmp_path):
    out = tmp_path / "s4.json"
    code = main(["classify", "--group", str(data_dir / "s4.grp"),
                 "--out", str(out), "--jobs", "1"])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["group"] == "s4"
    assert payload["class_count"] == 4
    assert payload["admissible_triples"] == 96
    assert payload["manifest"]["tool_version"]
    assert list(payload["manifest"]["input_hashes"].values())[0].startswith("sha256:")


LADDER_GOLDENS = json.loads(
    (REPO_ROOT / "perfbench" / "goldens.json").read_text(encoding="utf-8"))["ladder"]


@pytest.mark.parametrize("name", sorted(LADDER_GOLDENS))
def test_cli_classify_matches_pinned_ladder_goldens(name, tmp_path):
    # the classify contract: JSON byte-identical outside the manifest
    out = tmp_path / f"{name}.json"
    group = REPO_ROOT / "perfbench" / "groups" / f"{name}.grp"
    assert main(["classify", "--group", str(group), "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    data.pop("manifest")
    body = json.dumps(data, indent=2) + "\n"
    assert {"sha256": hashlib.sha256(body.encode()).hexdigest(),
            "order": data["group_order"], "aut": data["aut_group_size"],
            "admissible": data["admissible_triples"],
            "classes": data["class_count"]} == LADDER_GOLDENS[name]


# The same digests for groups past the ladder: a6 and s6xz2 as the
# automorphism enumeration classified them, and a7, over its 2048-element
# cap, as checked once against the enumeration with the cap raised to 4096.
LARGE_GROUP_DIGESTS = {
    "a6": ("788f0b08b1fb844ac514807d0007c66cccf08bd9e53c3fc87341f2f412826559",
           360, 1440, 37440, 26),
    "s6xz2": ("ac3431774f67a81beb525ec829c499ae0437bb534d8584aa5516dabb988f539d",
              1440, 2880, 132480, 46),
    "a7": ("c7502ec6f595347309bd7ebaa83a73957d48f8bfd9b0f3e80bc6f950895e97e6",
           2520, 5040, 186480, 37),
}


@pytest.mark.parametrize("name", sorted(LARGE_GROUP_DIGESTS))
def test_cli_classify_large_groups_match_pinned_digests(name, tmp_path):
    out = tmp_path / f"{name}.json"
    group = REPO_ROOT / "perfbench" / "groups" / f"{name}.grp"
    assert main(["classify", "--group", str(group), "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    data.pop("manifest")
    body = json.dumps(data, indent=2) + "\n"
    assert (hashlib.sha256(body.encode()).hexdigest(), data["group_order"],
            data["aut_group_size"], data["admissible_triples"],
            data["class_count"]) == LARGE_GROUP_DIGESTS[name]


def _cycle(first, last):
    return "(" + " ".join(str(p) for p in range(first, last + 1)) + ")"


@pytest.mark.parametrize("degree, gens, message", [
    # cyclic of order 2050 = lcm(2, 25, 41): one involution, so no classes,
    # and |Aut| is left to the enumeration, whose cap it exceeds
    (68, ["(1 2)" + _cycle(3, 27) + _cycle(28, 68)],
     "|G| = 2050 exceeds the automorphism cap 2048"),
    # Z2^12: 4095 involutions, but no three of them generate it, so the
    # scan is skipped rather than run over about 4095^3 triples
    (24, [f"({2 * i + 1} {2 * i + 2})" for i in range(12)],
     "|G| = 4096 exceeds the automorphism cap 2048"),
    # cyclic of order 4098 = lcm(2, 3, 683), past the table limit
    (688, ["(1 2)" + _cycle(3, 5) + _cycle(6, 688)],
     "|G| = 4098 exceeds the table limit 4096 that classify needs"),
    # dihedral of order 2m: m + 1 involutions, so at least (m+1)m(m-1) / 2m
    # Inn-least triples, far past the scan's 4 * 2048^2 / 2m
    *((m, [_cycle(1, m), "".join(f"({i} {m + 2 - i})"
                                 for i in range(2, m // 2 + 1))],
       f"the Inn(G) scan of |G| = {2 * m} would visit more than "
       f"{4 * 2048 ** 2 // (2 * m)} triples, its work cap of 4 * 2048^2 / |G|")
      for m in (1024, 2048)),
], ids=["cyclic-2050", "z2-power-12", "cyclic-4098", "dihedral-2048",
        "dihedral-4096"])
def test_cli_classify_refuses_large_groups_in_one_line(
        tmp_path, capsys, monkeypatch, degree, gens, message):
    # each is refused before the scan builds its conjugation rows
    import importlib
    cl = importlib.import_module("linhyp.classify")
    monkeypatch.setattr(cl, "_inner_rows",
                        lambda *args: pytest.fail("the scan started"))
    path = tmp_path / "big.grp"
    path.write_text(f"name: big\ndegree: {degree}\ngens:\n"
                    + "".join(g + "\n" for g in gens), encoding="utf-8")
    assert main(["classify", "--group", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_cli_classify_deterministic_bytes(data_dir, tmp_path):
    args = ["classify", "--group", str(data_dir / "s4.grp"), "--format", "json",
            "--jobs", "1"]
    import contextlib
    import io

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(args)) == 0
        return buf.getvalue()

    first, second = run(), run()
    # identical bytes outside the manifest block
    assert first.split('"manifest"')[0] == second.split('"manifest"')[0]
    a, b = json.loads(first), json.loads(second)
    a.pop("manifest"), b.pop("manifest")
    assert a == b


def test_cli_classify_jobs_equivalence(data_dir, tmp_path):
    out1, out2 = tmp_path / "j1.json", tmp_path / "j2.json"
    assert main(["classify", "--group", str(data_dir / "s4xz2.grp"),
                 "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["classify", "--group", str(data_dir / "s4xz2.grp"),
                 "--out", str(out2), "--jobs", "2"]) == 0
    a = json.loads(out1.read_text(encoding="utf-8"))
    b = json.loads(out2.read_text(encoding="utf-8"))
    a.pop("manifest"), b.pop("manifest")
    assert a == b


def test_cli_classify_csv(data_dir, tmp_path):
    out = tmp_path / "s4.csv"
    assert main(["classify", "--group", str(data_dir / "s4.grp"),
                 "--out", str(out), "--format", "csv", "--jobs", "1"]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("group,r0,r1,r2,genus")
    assert len(lines) == 5
    assert "canonical" not in lines[0]  # csv is the lossy projection


def test_cli_json_round_trip_revalidates(data_dir, tmp_path):
    out = tmp_path / "a5.json"
    assert main(["classify", "--group", str(data_dir / "a5xz2.grp"),
                 "--out", str(out), "--jobs", "1"]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    entry = parse_group_file(data_dir / "a5xz2.grp")
    assert payload["class_count"] == 19
    for cls in payload["classes"]:
        t = triple_from_words(entry.group,
                              ";".join((cls["r0"], cls["r1"], cls["r2"])))
        m = RegularLinearHypermap.from_triple(t)
        assert str(m.m_sequence()) == cls["m_sequence"]


def test_cli_invariants_stdout(data_dir):
    code, out, err = run_cli(
        "invariants", "--group", str(data_dir / "a5xz2.grp"),
        "--triple", "(1 2)(3 5);(1 2)(3 4)(6 7);(1 4)(2 3)")
    assert code == 0
    assert out.splitlines()[0] == "[10;2,5,6;30,12,10;120]"


def test_cli_dual(data_dir):
    code, out, err = run_cli(
        "dual", "--group", str(data_dir / "a5xz2.grp"),
        "--triple", "(1 2)(3 5)(6 7);(1 2)(3 4)(6 7);(1 3)(2 4)(6 7)")
    assert code == 0
    assert out.splitlines()[0] == "[0;5,2,3;12,30,20;120]"


def test_cli_validate_flags_pass(data_dir):
    code, out, err = run_cli(
        "validate-flags", "--flags", str(data_dir / "torus9.flags"))
    assert code == 0
    assert "genus 1" in out


def test_cli_validate_flags_fail(tmp_path):
    bad = tmp_path / "bad.flags"
    bad.write_text(
        "flags: 4\nr0: (1 2)(3 4)\nr1: (1 3)(2 4)\nr2: (1 4)(2 3)\n",
        encoding="utf-8")
    code, out, err = run_cli("validate-flags", "--flags", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_cli_family_subcommand():
    code, out, _ = run_cli("family", "--family", "z2xd2n", "--n", "5",
                           "--variant", "m2")
    assert code == 0
    assert out.splitlines()[0] == "[1;2,2,10;5,5,1;20]"
    code, out, _ = run_cli("family", "--family", "d2m", "--m", "8")
    assert code == 0
    assert out.splitlines()[0] == "[1;2,2,8;4,4,1;16]"
    code, out, _ = run_cli("family", "--family", "platonic", "--solid",
                           "dodecahedron", "--derive", "digon")
    assert code == 0
    assert out.splitlines()[0] == "[0;3,2,5;20,30,12;120]"


def test_cli_family_bad_parameter_exit_1():
    code, _, err = run_cli("family", "--family", "z2xd2n", "--n", "2")
    assert code == 1
    assert "n >= 3" in err


def test_cli_census(data_dir, tmp_path):
    out = tmp_path / "census.json"
    assert main(["census", "--catalog", str(data_dir), "--proper",
                 "--orientable", "--out", str(out), "--jobs", "1"]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["per_genus_orientable"] == {"5": 1}
    assert payload["per_genus_non_orientable"] == {}
    assert "small-groups database" in payload["coverage"]
    status = {s["name"]: s for s in payload["manifest"]["per_group_status"]}
    assert status["a5xz2"]["classes_matching"] == 1
    assert status["s4"]["classes_matching"] == 0


def test_cli_usage_error_exit_64():
    code, _, err = run_cli("classify")  # missing --group
    assert code == 64
    code, _, err = run_cli("no-such-command")
    assert code == 64


def test_cli_bad_triple_exit_1(data_dir):
    code, _, err = run_cli(
        "invariants", "--group", str(data_dir / "s4.grp"),
        "--triple", "(1 2")
    assert code == 1


def test_cli_invalid_triple_exit_1(data_dir):
    # a non-generating triple is a user-input validation failure
    code, _, err = run_cli(
        "invariants", "--group", str(data_dir / "a5xz2.grp"),
        "--triple", "(1 2)(3 5);(1 2)(3 4);(1 3)(2 4)")
    assert code == 1
    assert "not a regular linear hypermap" in err


def test_cli_invalid_triple_names_the_witness(data_dir, capsys):
    # fails product-intersection only; the witness is in the message
    code = main(["invariants", "--group", str(data_dir / "s4.grp"),
                 "--triple", "(1 2);(3 4);(1 3)"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "product-intersection (" in lines[0]
    assert "(1 2)(3 4)" in lines[0]


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_unwritable_out_is_one_line_error(data_dir, tmp_path, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, _, err = run_cli("classify", "--group", str(data_dir / "s4.grp"),
                           "--out", str(out))
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {out}: ")


def test_lhm_never_imports_numpy(tmp_path):
    # numpy is only for FiniteGroup.table_view; start-up must not pay for it
    script = (
        "import sys\n"
        "import linhyp, linhyp.cli\n"
        "argv = ['classify', '--group', 'data/a5xz2.grp', '--out', sys.argv[1]]\n"
        "assert linhyp.cli.main(argv) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "a5xz2.json")],
        cwd=REPO_ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_lhm_classify_loads_neither_constructions_nor_dataclasses(tmp_path):
    # only ``lhm family`` needs the family builders, and the value classes
    # are built without the dataclasses module
    script = (
        "import sys\n"
        "preloaded = 'dataclasses' in sys.modules\n"
        "import linhyp.cli\n"
        "argv = ['classify', '--group', 'data/a5xz2.grp', '--out', sys.argv[1]]\n"
        "assert linhyp.cli.main(argv) == 0\n"
        "banned = {'numpy', 'linhyp.constructions'}\n"
        "if not preloaded:\n"
        "    banned.add('dataclasses')\n"
        "loaded = sorted(banned & sys.modules.keys())\n"
        "assert not loaded, loaded\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "a5xz2.json")],
        cwd=REPO_ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_file_sha256(data_dir):
    digest = file_sha256(data_dir / "s4.grp")
    assert digest.startswith("sha256:") and len(digest) == 71


def test_cli_census_warns_on_unreachable_genus(data_dir):
    code, out, err = run_cli(
        "census", "--catalog", str(data_dir / "s4.grp"),
        "--genus-range", "1000:1001", "--jobs", "1")
    assert code == 0
    assert "cannot reach genus 1000" in err


def test_cli_table_format_written_to_file(data_dir, tmp_path):
    out = tmp_path / "s4.txt"
    assert main(["classify", "--group", str(data_dir / "s4.grp"),
                 "--out", str(out), "--format", "table", "--jobs", "1"]) == 0
    text = out.read_text(encoding="utf-8")
    assert "4 classes" in text and "m-sequence" in text


def test_cli_internal_error_exit_2(monkeypatch):
    # a corrupted pinned triple is an internal failure, not a user error
    import importlib
    cons = importlib.import_module("linhyp.constructions")
    broken = dict(cons._PLATONIC_TRIPLES)
    broken["cube"] = ("(1 2)", "(3 4)", "(5 6)")
    monkeypatch.setattr(cons, "_PLATONIC_TRIPLES", broken)
    code = main(["family", "--family", "platonic", "--solid", "cube"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["census", "--catalog", "DATA"],
    ["invariants", "--group", "DATA/s4.grp",
     "--triple", "(1 2);(2 3);(3 4)"],
])
def test_cli_csv_is_a_usage_error_outside_classify(data_dir, capsys, argv):
    argv = [a.replace("DATA", str(data_dir)) for a in argv]
    assert main(argv + ["--format", "csv"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "usage error: --format csv is only available for classify"]


@pytest.mark.parametrize("argv", [
    ["classify", "--group", "BAD"],
    ["invariants", "--group", "DATA/s4.grp",
     "--triple", "(1 \u00b2);(1 2);(2 3)"],
])
def test_cli_non_decimal_cycle_token_exit_1(data_dir, tmp_path, capsys, argv):
    bad = tmp_path / "bad.grp"
    bad.write_text("name: bad\ndegree: 4\ngens:\n(1 \u00b2)\n",
                   encoding="utf-8")
    argv = [a.replace("DATA", str(data_dir)).replace("BAD", str(bad))
            for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "non-numeric token" in err[0]


def test_cli_non_decimal_genus_range_exit_64(data_dir, capsys):
    argv = ["census", "--catalog", str(data_dir), "--genus-range", "\u00b2:3"]
    assert main(argv) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--genus-range" in err[0]


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_bad_closure_cap_env_exit_64(data_dir, monkeypatch, capsys, value):
    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", value)
    code = main(["classify", "--group", str(data_dir / "s4.grp")])
    assert code == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "LHM_MAX_GROUP_ORDER" in err[0]


@pytest.mark.parametrize("key, line, header", [
    ("name", 2, "name: a\nname: b\ndegree: 4\n"),
    ("degree", 3, "name: a\ndegree: 4\ndegree: 3\n"),
    ("times-z2", 4, "name: a\ntimes-z2: false\ndegree: 4\ntimes-z2: true\n"),
], ids=["name", "degree", "times-z2"])
def test_repeated_grp_header_key_is_a_parse_error(tmp_path, capsys, key, line,
                                                  header):
    path = tmp_path / "dup.grp"
    path.write_text(header + "gens:\n(1 2 3)\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f":{line}: duplicate key '{key}'"):
        parse_group_file(path)
    assert main(["classify", "--group", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}:{line}: duplicate key '{key}'"]


@pytest.mark.parametrize("argv, order", [
    (["--family", "z2xd2n", "--n", "400000000"], 1600000000),
    (["--family", "d2m", "--m", "400000000"], 800000000),
])
def test_family_order_checked_before_allocation(capsys, argv, order):
    assert main(["family", *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"group of order {order}, over the cap of 200000" in err[0]
    assert "LHM_MAX_GROUP_ORDER" in err[0]


def test_family_order_bound_is_the_closure_cap(monkeypatch, capsys):
    monkeypatch.setenv("LHM_MAX_GROUP_ORDER", "40")
    assert main(["family", "--family", "z2xd2n", "--n", "10"]) == 0
    assert main(["family", "--family", "z2xd2n", "--n", "11"]) == 1
    assert main(["family", "--family", "d2m", "--m", "20"]) == 0
    assert main(["family", "--family", "d2m", "--m", "24"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" gives")[0] for line in err] == [
        "error: n = 11", "error: m = 24"]


def test_family_over_the_image_budget_is_refused_at_once():
    # order 40000 on 20000 points is under the order cap, but its closure
    # would hold 8e8 images: refused up front, not by a MemoryError
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "linhyp.cli", "family", "--family", "d2m",
         "--m", "20000"],
        cwd=REPO_ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=60)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 1, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: m = 20000 gives a group of order 40000 "
                             "on 20000 points, over the budget of 12800000")
    assert elapsed < 2.0


_ALL_SUBCOMMANDS = [
    ["classify", "--group", "DATA/s4.grp"],
    ["invariants", "--group", "DATA/s4.grp", "--triple", "(1 2);(2 3);(3 4)"],
    ["dual", "--group", "DATA/s4.grp", "--triple", "(1 2);(2 3);(3 4)"],
    ["validate-flags", "--flags", "DATA/torus9.flags"],
    ["family", "--family", "d2m", "--m", "8"],
    ["census", "--catalog", "DATA"],
]


@pytest.mark.parametrize("where", ["missing-directory", "directory", "file"])
@pytest.mark.parametrize("argv", _ALL_SUBCOMMANDS, ids=lambda a: a[0])
def test_unwritable_out_refused_before_the_work(data_dir, tmp_path, capsys,
                                                monkeypatch, argv, where):
    import linhyp.cli as cli

    def refuse(*_):
        raise AssertionError("the work started")
    monkeypatch.setattr(cli, "classify", refuse)
    for name in ("_cmd_classify", "_cmd_triple", "_cmd_validate_flags",
                 "_cmd_family", "_cmd_census"):
        monkeypatch.setattr(cli, name, refuse)
    (tmp_path / "plain").write_text("", encoding="utf-8")
    out = {"missing-directory": tmp_path / "missing" / "x.json",
           "directory": tmp_path,
           "file": tmp_path / "plain" / "x.json"}[where]
    argv = [a.replace("DATA", str(data_dir)) for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")


def test_out_is_neither_created_nor_truncated_by_failed_work(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("name: bad\ngens:\n(1 2)\n", encoding="utf-8")
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("old\n", encoding="utf-8")
    for out in (fresh, kept):
        assert main(["classify", "--group", str(bad), "--out", str(out)]) == 1
    assert not fresh.exists()
    assert kept.read_text(encoding="utf-8") == "old\n"
