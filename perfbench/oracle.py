"""Reference answers for the benchmark's correctness checks.

These functions recompute, from raw permutations, what linhyp's validators
and invariant routines must return.  They share no code with linhyp and use
different algorithms where that is cheap: breadth-first spans over numpy
image arrays, the normal core as the set of elements whose every conjugate
stays in the subgroup, and orientability as bipartiteness of the flag graph.

Composition is left to right, as in linhyp: ``x * g`` applies ``x`` first.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

def _order(p) -> int:
    """Order of a permutation given as an image sequence."""
    seen = [False] * len(p)
    out = 1
    for i in range(len(p)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        if length:
            out = math.lcm(out, length)
    return out


def _format_mseq(genus, k, m, n, v, e, f, flags) -> str:
    return "[%d;%d,%d,%d;%d,%d,%d;%d]" % (genus, k, m, n, v, e, f, flags)


def _genus(chi: int, orientable: bool) -> int | None:
    if orientable:
        return (2 - chi) // 2 if chi <= 2 and chi % 2 == 0 else None
    return 2 - chi if chi <= 1 else None


class GroupOracle:
    """Group-level answers for ordered triples of one permutation group."""

    def __init__(self, elements):
        self.perms = np.asarray(elements, dtype=np.int64)
        self.order, self.degree = self.perms.shape
        self._weights = self.degree ** np.arange(self.degree, dtype=np.int64)
        self._identity = np.arange(self.degree, dtype=np.int64)
        self._inverses = np.argsort(self.perms, axis=1)

    def _keys(self, perms: np.ndarray) -> np.ndarray:
        return perms.reshape(-1, self.degree) @ self._weights

    def span(self, gens) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys and image rows of the subgroup generated by ``gens``."""
        gens = np.asarray(gens, dtype=np.int64)
        frontier = self._identity[None, :]
        keys = self._keys(frontier)
        rows = [frontier]
        while len(frontier):
            cand = gens[:, frontier].reshape(-1, self.degree)
            ck, first = np.unique(self._keys(cand), return_index=True)
            fresh = ~np.isin(ck, keys)
            frontier = cand[first[fresh]]
            keys = np.union1d(keys, ck[fresh])
            rows.append(frontier)
        return keys, np.concatenate(rows)

    def _mul(self, a, b):
        return np.asarray(b)[np.asarray(a)]

    def _products(self, a_rows, b_rows) -> np.ndarray:
        """Keys of all products x * y with x in ``a_rows``, y in ``b_rows``."""
        return np.unique(self._keys(b_rows[:, a_rows]))

    def hypermap(self, r0, r1, r2) -> dict:
        """Verdicts of the three group-level checks and, when all pass, the
        invariant vector, the core type and the dual's invariant vector."""
        r0, r1, r2 = (np.asarray(r, dtype=np.int64) for r in (r0, r1, r2))
        whole, _ = self.span([r0, r1, r2])
        hk, h = self.span([r1, r2])
        kk, k = self.span([r0, r2])
        failed = []
        if len(whole) != self.order:
            failed.append("generates")
        expected = np.unique(self._keys(np.stack([self._identity, r2])))
        if not np.array_equal(np.intersect1d(hk, kk), expected):
            failed.append("stabilizer-intersection")
        both = np.intersect1d(self._products(h, k), self._products(k, h))
        if not np.array_equal(both, np.union1d(hk, kk)):
            failed.append("product-intersection")
        out = {"ok": not failed, "failed": failed}
        if failed:
            return out
        out["mseq"] = self._mseq(r0, r1, r2, len(hk), len(kk))
        out["dual"] = self._mseq(r1, r0, r2, len(kk), len(hk))
        out["core"] = self._core(hk, h, r2)
        return out

    def _mseq(self, r0, r1, r2, hsize, ksize) -> str:
        n = self.order
        lsize = len(self.span([r0, r1])[0])
        even = len(self.span([self._mul(r0, r2), self._mul(r1, r2)])[0])
        if even not in (n, n // 2):
            return "impossible: rotation subgroup of index %d" % (n // even)
        orientable = even == n // 2
        v, e, f = n // hsize, n // ksize, n // lsize
        genus = _genus(v + e + f - n // 2, orientable)
        if genus is None:
            return "impossible: non-integral genus"
        k, m, l = (_order(self._mul(a, b)) for a, b in ((r1, r2), (r0, r2),
                                                         (r0, r1)))
        return _format_mseq(genus, k, m, l, v, e, f, n)

    def _core(self, hkeys, h, r2) -> str:
        """Trivial, central r2, or anything else (which is impossible)."""
        # g^-1 h g for every g in G and h in H: apply g^-1, then h, then g
        step = h[:, self._inverses]
        conj = np.take_along_axis(
            np.broadcast_to(self.perms, step.shape), step, axis=2)
        inside = np.isin(self._keys(conj).reshape(conj.shape[:2]), hkeys)
        core = np.unique(self._keys(h[inside.all(axis=1)]))
        if len(core) == 1:
            return "trivial"
        pair = np.unique(self._keys(np.stack([self._identity, r2])))
        if np.array_equal(core, pair):
            return "central-r2"
        return "impossible: core of order %d" % len(core)


# --- flag level --------------------------------------------------------------


def _flag_span(gens) -> list[np.ndarray]:
    """All elements of the permutation group on flags generated by ``gens``."""
    ident = np.arange(len(gens[0]))
    seen = {ident.tobytes(): ident}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = g[x]
            key = y.tobytes()
            if key not in seen:
                seen[key] = y
                queue.append(y)
    return list(seen.values())


def _orbit_labels(n: int, gens) -> np.ndarray:
    """Least flag of each flag's orbit, by label propagation."""
    labels = np.arange(n)
    while True:
        nxt = labels
        for g in gens:
            nxt = np.minimum(nxt, nxt[g])
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def _bipartite(n: int, gens) -> bool:
    side = [-1] * n
    side[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = int(g[x])
            if side[y] < 0:
                side[y] = 1 - side[x]
                queue.append(y)
            elif side[y] == side[x]:
                return False
    return True


def flag_hypermap(r0, r1, r2) -> tuple[dict, dict]:
    """Flag-level verdicts and, for a valid hypermap, cells, surface and the
    configuration summary of its underlying hypergraph.

    The three arguments are 0-based image sequences of fixed-point-free
    involutions on the same flags.  Returns the expected answer and facts
    that decide whether it suits the benchmark: ``first_bad_flag``, the
    first flag in increasing order at which the product condition fails (the
    last flag when it holds everywhere), and ``degenerate``, whether the
    hypergraph has fewer than two hyperedges or a hyperedge with fewer than
    two vertices.
    """
    rs = [np.asarray(r, dtype=np.int64) for r in (r0, r1, r2)]
    n = len(rs[0])
    failed = []
    if any(np.array_equal(rs[i], rs[j]) for i, j in ((0, 1), (0, 2), (1, 2))):
        failed.append("pairwise-distinct")
    if len(np.unique(_orbit_labels(n, rs))) != 1:
        failed.append("transitive")
    h = np.stack(_flag_span([rs[1], rs[2]]))
    k = np.stack(_flag_span([rs[0], rs[2]]))
    hset = {row.tobytes() for row in h}
    kset = {row.tobytes() for row in k}
    if hset & kset != {np.arange(n).tobytes(), rs[2].tobytes()}:
        failed.append("stabilizer-intersection")
    for phi in range(n):
        h_orbit = np.unique(h[:, phi])
        k_orbit = np.unique(k[:, phi])
        both = np.intersect1d(k[:, h_orbit], h[:, k_orbit])
        if not np.array_equal(both, np.union1d(h_orbit, k_orbit)):
            failed.append("product-intersection")
            break
    out = {"ok": not failed, "failed": failed}
    facts = {"first_bad_flag": phi, "degenerate": False}
    if failed:
        return out, facts

    vlab = _orbit_labels(n, [rs[1], rs[2]])
    elab = _orbit_labels(n, [rs[0], rs[2]])
    flab = _orbit_labels(n, [rs[0], rs[1]])
    v, e, f = (len(np.unique(x)) for x in (vlab, elab, flab))
    chi = v + e + f - n // 2
    orientable = _bipartite(n, rs)
    out["cells"] = [v, e, f]
    out["surface"] = [chi, orientable, _genus(chi, orientable)]

    vid = {int(lab): i for i, lab in enumerate(np.unique(vlab))}
    edges: dict[int, set[int]] = {}
    for flag in range(n):
        edges.setdefault(int(elab[flag]), set()).add(vid[int(vlab[flag])])
    pairs: dict[tuple[int, int], int] = {}
    degree = [0] * v
    for members in edges.values():
        ms = sorted(members)
        for a in ms:
            degree[a] += 1
        for i, a in enumerate(ms):
            for b in ms[i + 1:]:
                pairs[a, b] = pairs.get((a, b), 0) + 1
    linear = all(c == 1 for c in pairs.values())
    sizes = {len(m) for m in edges.values()}
    degrees = set(degree)
    facts["degenerate"] = len(edges) < 2 or min(sizes) < 2
    block = sizes.pop() if len(sizes) == 1 else None
    point = degrees.pop() if len(degrees) == 1 else None
    out["config"] = [v, len(edges), linear, block, point,
                     linear and block is not None and point is not None]
    return out, facts
