"""Spans around linhyp's public calls, recorded in memory from outside.

The tracer replaces each traced function wherever a linhyp module binds it
and restores the originals afterwards; nothing under ``src/`` changes.  A
span is ``[name, start_ns, end_ns, parent, op, ok]``: ``parent`` indexes
the enclosing span (-1 for none), ``op`` names the operation the span
belongs to, and ``ok`` keeps the verdict of a validation report.  The layer
of a span is the part of its name before the first dot, which is the linhyp
module for traced calls.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, span name) of every traced public call
TRACED = (
    ("catalog", "parse_group_file", "catalog.parse_group_file"),
    ("catalog", "load_flag_hypermap", "catalog.load_flag_hypermap"),
    ("permgroup", "closure", "permgroup.closure"),
    ("permgroup", "FiniteGroup.__init__", "permgroup.group_init"),
    ("permgroup", "automorphism_group", "permgroup.automorphism_group"),
    ("classify", "classify", "classify.classify"),
    ("regular", "validate_regular", "regular.validate_regular"),
    ("regular", "RegularLinearHypermap.from_triple", "regular.from_triple"),
    ("regular", "m_sequence", "regular.m_sequence"),
    ("regular", "core_dichotomy", "regular.core_dichotomy"),
    ("regular", "dual", "regular.dual"),
    ("hypermap", "validate_hypermap", "hypermap.validate_hypermap"),
    ("hypermap", "extract_cells", "hypermap.extract_cells"),
    ("hypermap", "surface_invariant", "hypermap.surface_invariant"),
    ("hypermap", "underlying_hypergraph", "hypermap.underlying_hypergraph"),
    ("hypermap", "configuration_check", "hypermap.configuration_check"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("harness", "startup", "cli", "catalog", "permgroup", "classify",
          "regular", "hypermap")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _, ok in spans:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par, self.op, ok])

    def _wrap(self, name: str, fn):
        is_report = name.split(".", 1)[1].startswith("validate_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if is_report:
                rec[5] = result.ok
            return result
        return traced

    def install(self) -> None:
        import linhyp.cli  # noqa: F401  (loads every module that binds a target)
        modules = [m for key, m in sys.modules.items()
                   if key == "linhyp" or key.startswith("linhyp.")]
        for modname, path, name in TRACED:
            owner = sys.modules[f"linhyp.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)


def child_durations(spans: list[list]) -> list[int]:
    """Per span, the time covered by its direct children."""
    out = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] += end - start
    return out


def self_times(spans: list[list], keep) -> dict[str, int]:
    """Self time in ns per layer, over the spans whose op passes ``keep``."""
    covered = child_durations(spans)
    out = dict.fromkeys(LAYERS, 0)
    for i, (name, start, end, _, op, _) in enumerate(spans):
        if keep(op):
            layer = layer_of(name)
            out[layer] = out.get(layer, 0) + (end - start) - covered[i]
    return out
