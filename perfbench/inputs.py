"""Workload definitions and seeded input generation.

Every input is derived from the workload seed alone, so the same seed gives
the same inputs.  Expected outputs come from :mod:`oracle`, never from the
validators under test.  linhyp is used here only to build the groups'
element lists and, for regular flag files, ``to_flag_hypermap``.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
GROUP_DIR = HERE / "groups"

LADDER = ("z2cubed", "s4", "s4xz2", "a5", "a5xz2", "s5", "psl27", "s5xz2")

# Per pass and per group: (admissible, rejected) triples.  The split follows
# each group's natural admissible share among ordered triples of distinct
# involutions (about 43%, 4% and 17%), and it is fixed so that every seed
# asks for the same mix of cheap rejections and invariant computations.
QUERY_QUOTAS = {"a6": (130, 170), "s6xz2": (12, 288), "a7": (51, 249)}

# Per group: the invariant vector of the base triple and the flag files made
# from it.  The invariant vector pins the cost of a file; the seed picks the
# base triple and the swapped 2-cycles.  A "regular" file is the base
# hypermap itself.  A "valid-swap" swaps two r0 2-cycles and stays a linear
# hypermap (no longer regular).  An "invalid-swap" fails only the
# product-intersection check, within the first EARLY_FLAGS flags, because
# the cost of rejecting a file grows with the first failing flag.  a6 gets
# no invalid swap: with eight files, op_p50_ms is the mean of the 4th and
# 5th op, which sit either side of a tenfold gap in cost, so it does not
# hop between two ops of nearly the same cost from run to run.
FILE_KINDS = ("regular", "valid-swap", "invalid-swap")
FLAG_PLAN = {
    "a6": ("[41;4,3,5;45,60,36;360]", FILE_KINDS[:2]),
    "s6xz2": ("[242;4,4,6;180,180,120;1440]", FILE_KINDS),
    "a7": ("[485;6,5,4;210,252,315;2520]", FILE_KINDS),
}

# The tiny inputs of smoke mode, also used as the traced run's layer probe.
SMOKE_LADDER = ("z2cubed", "s4")
SMOKE_QUOTAS = {"s4": (2, 4)}
SMOKE_FLAG_PLAN = {"a5xz2": ("[0;3,2,5;20,30,12;120]", ("regular",))}

MAX_DRAWS = 20_000
MAX_SWAPS = 200
MAX_BASES = 20
EARLY_FLAGS = 16


def group_path(name: str) -> Path:
    return GROUP_DIR / f"{name}.grp"


class GroupInputs:
    """A parsed group with its involutions and an oracle."""

    def __init__(self, name: str):
        from linhyp.catalog import parse_group_file
        self.name = name
        self.group = parse_group_file(group_path(name)).group
        self.images = [e.images for e in self.group.elements]
        self.involutions = [
            i for i, p in enumerate(self.images)
            if any(p[j] != j for j in range(len(p)))
            and all(p[p[j]] == j for j in range(len(p)))]
        self.oracle = oracle.GroupOracle(self.images)

    def random_triple(self, rng: random.Random) -> tuple[int, int, int]:
        return tuple(rng.sample(self.involutions, 3))

    def expected(self, triple) -> dict:
        return self.oracle.hypermap(*(self.images[i] for i in triple))

    def word(self, i: int) -> str:
        return cycle_string(self.images[i])


def cycle_string(images) -> str:
    """1-based disjoint-cycle notation of a 0-based image sequence."""
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if seen[i] or images[i] == i:
            continue
        cyc, j = [], i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = images[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def query_inputs(seed: int, quotas: dict) -> dict:
    """Seeded ordered involution triples with a fixed admissible mix."""
    rng = random.Random(seed)
    ops, expected = [], []
    for name, (want_ok, want_bad) in quotas.items():
        gi = GroupInputs(name)
        picked = {True: [], False: []}
        want = {True: want_ok, False: want_bad}
        for _ in range(MAX_DRAWS):
            if all(len(picked[v]) >= want[v] for v in picked):
                break
            t = gi.random_triple(rng)
            exp = gi.expected(t)
            if len(picked[exp["ok"]]) < want[exp["ok"]]:
                picked[exp["ok"]].append((t, exp))
        else:
            raise RuntimeError(f"could not fill the triple quota on {name}")
        for t, exp in picked[True] + picked[False]:
            ops.append([name] + [gi.word(i) for i in t])
            expected.append(exp)
    order = list(range(len(ops)))
    rng.shuffle(order)
    return {"groups": {name: str(group_path(name)) for name in quotas},
            "ops": [ops[i] for i in order],
            "expected": [expected[i] for i in order]}


def _swaps(r0: list[int], rng: random.Random, below: int):
    """Swaps of two 2-cycles of ``r0`` whose smaller flags lie below
    ``below``: every such swap in a seeded order when there are at most
    MAX_SWAPS of them, else MAX_SWAPS random draws."""
    cycles = [(i, r0[i]) for i in range(below) if i < r0[i]]
    if len(cycles) * (len(cycles) - 1) // 2 <= MAX_SWAPS:
        pairs = list(itertools.combinations(cycles, 2))
        rng.shuffle(pairs)
    else:
        pairs = (rng.sample(cycles, 2) for _ in range(MAX_SWAPS))
    for (a, b), (c, d) in pairs:
        out = list(r0)
        out[a], out[b], out[c], out[d] = c, d, a, b
        yield out


def _base_flags(gi: GroupInputs, mseq: str, rng: random.Random) -> list:
    """Right-multiplication flag involutions of a random admissible triple
    with the invariant vector ``mseq``."""
    from linhyp.regular import InvolutionTriple, RegularLinearHypermap
    for _ in range(MAX_DRAWS):
        t = gi.random_triple(rng)
        exp = gi.expected(t)
        if exp["ok"] and exp["mseq"] == mseq:
            flags = RegularLinearHypermap.from_triple(
                InvolutionTriple(gi.group, *t)).to_flag_hypermap()
            return [list(r.images) for r in (flags.r0, flags.r1, flags.r2)]
    raise RuntimeError(f"no admissible triple of type {mseq} on {gi.name}")


def _flag_case(base: list, kind: str, rng: random.Random):
    """Involution images for one planned flag file, with the oracle's
    answer, or None when no swap of ``base`` gives that kind of file."""
    n = len(base[0])
    if kind == "regular":
        candidates = [base[0]]
    else:
        candidates = _swaps(
            base[0], rng, EARLY_FLAGS if kind == "invalid-swap" else n)
    for r0 in candidates:
        rs = [r0] + base[1:]
        exp, facts = oracle.flag_hypermap(*rs)
        if kind == "invalid-swap":
            good = (exp["failed"] == ["product-intersection"]
                    and facts["first_bad_flag"] < EARLY_FLAGS)
        else:
            good = exp["ok"] and not facts["degenerate"] and exp["config"][2]
        if good:
            return rs, exp
    return None


def _group_cases(name: str, mseq: str, kinds, rng: random.Random) -> list:
    """One case per kind, all made from the same base triple; a base that
    cannot give every kind is replaced by the next one drawn."""
    gi = GroupInputs(name)
    for _ in range(MAX_BASES):
        base = _base_flags(gi, mseq, rng)
        cases = []
        for kind in kinds:
            case = _flag_case(base, kind, rng)
            if case is None:
                break
            cases.append(case)
        else:
            return cases
    raise RuntimeError(f"no base triple on {name} gives every kind of file")


def flag_inputs(seed: int, plan: dict, workdir: Path) -> dict:
    """Seeded ``.flags`` files written to ``workdir``, with expected outputs."""
    rng = random.Random(seed)
    ops, expected = [], []
    for name, (mseq, kinds) in plan.items():
        for kind, (rs, exp) in zip(kinds, _group_cases(name, mseq, kinds, rng)):
            path = workdir / f"{name}-{kind}.flags"
            path.write_text(
                f"flags: {len(rs[0])}\n"
                + "".join(f"r{i}: {cycle_string(r)}\n" for i, r in enumerate(rs)),
                encoding="utf-8")
            ops.append(str(path))
            expected.append(exp)
    order = list(range(len(ops)))
    rng.shuffle(order)
    return {"groups": {name: str(group_path(name)) for name in plan},
            "ops": [ops[i] for i in order],
            "expected": [expected[i] for i in order]}


def ladder_inputs(seed: int, names=LADDER) -> dict:
    """The fixed ladder; the seed orders each pass."""
    return {"groups": {name: str(group_path(name)) for name in names},
            "ops": list(names), "seed": seed}
