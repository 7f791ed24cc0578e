"""Command-line surface: classify, invariants, dual, validate-flags, family,
census.

Exit codes: 0 success, 1 a user input failed validation or parsing,
2 an internal consistency check failed (a bug, not a user error),
64 command-line usage errors, including ``--format csv`` outside
``classify`` and a malformed ``LHM_MAX_GROUP_ORDER``.

Output policy: with ``--out`` the file is written in the requested
``--format`` (json by default) and stdout gets a human-readable summary;
without ``--out`` the requested format goes to stdout (table by default).
JSON output is byte-deterministic for fixed inputs except for the manifest
block, which records input hashes, filters and elapsed time.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .catalog import (
    file_sha256,
    load_catalog,
    load_flag_hypermap,
    parse_group_file,
)
from .classify import (
    CensusReport,
    ClassificationResult,
    census,
    classify,
    genus_upper_bound,
)
from .constructions import PLATONIC_SCHLAFLI, FamilySpec, digon, medial
from .errors import BadEnvironment, InternalCheckFailed, LinhypError
from .hypermap import extract_cells, surface_invariant, validate_hypermap
from .regular import MSequence, RegularLinearHypermap, triple_from_words

USAGE_EXIT = 64


class _UsageError(Exception):
    pass


class _ArgumentError(_UsageError):
    """A malformed command line; the full help follows the message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _manifest(inputs: dict[str, str], filters: dict | None,
              started: float, per_group=None) -> dict:
    out = {
        "tool_version": __version__,
        "input_hashes": dict(sorted(inputs.items())),
        "filters": filters or {},
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    }
    if per_group is not None:
        out["per_group_status"] = per_group
    return out


def _hypermap_dict(m: RegularLinearHypermap, ms: MSequence, **extra) -> dict:
    words = m.triple.words()
    return {
        "r0": words[0],
        "r1": words[1],
        "r2": words[2],
        "m_sequence": str(ms),
        "genus": ms.genus,
        "type": [ms.k, ms.m, ms.n],
        "vertices": ms.vertices,
        "hyperedges": ms.hyperedges,
        "hyperfaces": ms.hyperfaces,
        "flags": ms.flags,
        "orientable": ms.orientable,
        "proper": ms.proper,
    } | extra


def _classification_dict(result: ClassificationResult, manifest: dict) -> dict:
    classes = []
    for i, cls in enumerate(result.classes):
        classes.append({"index": i} | _hypermap_dict(
            cls.hypermap, cls.m_seq,
            canonical_key=list(cls.canonical_key), orbit_size=cls.orbit_size))
    return {
        "group": result.group_name,
        "group_order": result.group.order,
        "degree": result.group.degree,
        "aut_group_size": result.aut_group_size,
        "admissible_triples": result.admissible_triple_count,
        "class_count": result.class_count,
        "classes": classes,
        "manifest": manifest,
    }


def _classification_csv(result: ClassificationResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "r0", "r1", "r2", "genus", "k", "m", "n",
                     "vertices", "hyperedges", "hyperfaces", "flags",
                     "orientable", "proper"])
    for cls in result.classes:
        ms = cls.m_sequence
        w = cls.triple.words()
        writer.writerow([result.group_name, w[0], w[1], w[2], ms.genus,
                         ms.k, ms.m, ms.n, ms.vertices, ms.hyperedges,
                         ms.hyperfaces, ms.flags,
                         str(ms.orientable).lower(), str(ms.proper).lower()])
    return buf.getvalue()


def _classification_table(result: ClassificationResult) -> str:
    lines = [
        f"group {result.group_name}: order {result.group.order}, "
        f"|Aut| = {result.aut_group_size}, "
        f"{result.admissible_triple_count} admissible triples, "
        f"{result.class_count} classes",
    ]
    fmt = "%3s  %-28s  %-12s  %-6s  %s"
    lines.append(fmt % ("#", "m-sequence", "orientable", "proper",
                        "triple (r0; r1; r2)"))
    for i, cls in enumerate(result.classes):
        ms = cls.m_sequence
        lines.append(fmt % (
            i, str(ms), "yes" if ms.orientable else "no",
            "yes" if ms.proper else "no", "; ".join(cls.triple.words())))
    return "\n".join(lines) + "\n"


def _census_dict(report: CensusReport, manifest: dict) -> dict:
    return {
        "filters": report.filters(),
        "per_genus_orientable": {
            str(g): c for g, c in sorted(report.per_genus_orientable.items())},
        "per_genus_non_orientable": {
            str(g): c for g, c in sorted(report.per_genus_non_orientable.items())},
        "coverage": report.coverage_note,
        "manifest": manifest,
    }


def _census_table(report: CensusReport) -> str:
    lines = ["census filters: " + json.dumps(report.filters())]
    lines.append("per-genus orientable: " + json.dumps(
        {str(g): c for g, c in sorted(report.per_genus_orientable.items())}))
    lines.append("per-genus non-orientable: " + json.dumps(
        {str(g): c for g, c in sorted(report.per_genus_non_orientable.items())}))
    for status in report.per_group:
        if status.ok:
            lines.append(
                f"  {status.name} (order {status.order}): "
                f"{status.classes_matching}/{status.classes_total} classes match")
        else:
            lines.append(f"  {status.name}: ERROR {status.error}")
    lines.append("note: " + report.coverage_note)
    return "\n".join(lines) + "\n"


def _emit(args, payload_json: dict | None, table: str,
          csv_text: str | None = None) -> None:
    """Apply the output policy shared by all subcommands.

    ``csv_text`` is given only by ``classify``; ``main`` rejects
    ``--format csv`` for every other subcommand.  An ``--out`` path that
    cannot be written is a user error (exit 1), not a traceback.
    """
    if args.format == "json":
        text = json.dumps(payload_json, indent=2) + "\n"
    elif args.format == "csv":
        text = csv_text
    else:
        text = table
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise LinhypError(f"cannot write {args.out}: {exc.strerror}") from exc
        sys.stdout.write(table)
    else:
        sys.stdout.write(text)


def _check_out(out: str) -> None:
    """Refuse an ``--out`` that is a directory, or whose parent is not one,
    before any work is done.  Nothing is created or truncated here, and
    ``_emit`` still reports a write that fails later."""
    path = Path(out)
    if path.is_dir():
        code = errno.EISDIR
    elif path.parent.is_dir():
        return
    else:
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    raise LinhypError(f"cannot write {out}: {os.strerror(code)}")


def _single_hypermap_output(args, m: RegularLinearHypermap,
                            inputs: dict[str, str], started: float,
                            heading: str) -> None:
    ms = m.m_sequence()
    manifest = _manifest(inputs, None, started)
    payload = {"hypermap": _hypermap_dict(m, ms), "manifest": manifest}
    core = m.core_dichotomy()
    table = (
        f"{ms}\n"
        f"{heading}\n"
        f"triple: {'; '.join(m.triple.words())}\n"
        f"orientable: {'yes' if ms.orientable else 'no'}   "
        f"proper: {'yes' if ms.proper else 'no'}   core: {core.value}\n")
    _emit(args, payload, table)


# --- subcommand handlers -----------------------------------------------------


def _cmd_classify(args) -> int:
    started = time.perf_counter()
    entry = parse_group_file(args.group)
    result = classify(entry.group, entry.name, jobs=args.jobs)
    manifest = _manifest({entry.source_path: file_sha256(entry.source_path)},
                         None, started)
    _emit(args, _classification_dict(result, manifest),
          _classification_table(result), _classification_csv(result))
    return 0


def _cmd_triple(args) -> int:
    """``invariants`` and ``dual``: one checked triple, or its dual."""
    started = time.perf_counter()
    entry = parse_group_file(args.group)
    m = RegularLinearHypermap.from_triple(
        triple_from_words(entry.group, args.triple))
    if args.command == "dual":
        m, heading = m.dual(), f"dual hypermap on {entry.name}"
    else:
        heading = f"group {entry.name} (order {entry.group.order})"
    _single_hypermap_output(
        args, m, {entry.source_path: file_sha256(entry.source_path)},
        started, heading)
    return 0


def _cmd_validate_flags(args) -> int:
    started = time.perf_counter()
    h = load_flag_hypermap(args.flags)
    report = validate_hypermap(h)
    lines = [f"flags: {h.flag_count}"]
    for check in report.checks:
        status = "PASS" if check.passed else f"FAIL  {check.detail}"
        lines.append(f"{check.name}: {status}")
    payload = {
        "flags": h.flag_count,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks],
        "valid": report.ok,
    }
    if report.ok:
        cells = extract_cells(h)
        surface = surface_invariant(h)
        lines.append(
            "cells: %d vertices, %d hyperedges, %d hyperfaces" % cells.counts)
        lines.append(
            f"surface: chi = {surface.euler_characteristic}, "
            f"{'orientable' if surface.orientable else 'non-orientable'}, "
            f"genus {surface.genus}")
        payload["cells"] = list(cells.counts)
        payload["surface"] = {
            "euler_characteristic": surface.euler_characteristic,
            "orientable": surface.orientable,
            "genus": surface.genus,
        }
    payload["manifest"] = _manifest(
        {args.flags: file_sha256(args.flags)}, None, started)
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if report.ok else 1


def _cmd_family(args) -> int:
    started = time.perf_counter()
    if args.derive and args.family != "platonic":
        raise _UsageError("--derive only applies to --family platonic")
    if args.family == "z2xd2n":
        if args.n is None:
            raise _UsageError("--family z2xd2n requires --n")
        m = FamilySpec("z2xd2n", n=args.n, variant=args.variant).build()
        heading = f"dihedral-times-Z2 family, n = {args.n}, variant {args.variant}"
    elif args.family == "d2m":
        if args.m is None:
            raise _UsageError("--family d2m requires --m")
        m = FamilySpec("d2m", m=args.m).build()
        heading = f"half-twist dihedral family, m = {args.m}"
    else:
        if args.solid is None:
            raise _UsageError("--family platonic requires --solid")
        t = FamilySpec("platonic", solid=args.solid).build()
        if args.derive is None:
            p, q = t.schlafli
            manifest = _manifest({}, None, started)
            table = (
                f"platonic map {args.solid}: schlafli ({p}, {q}), "
                f"group order {t.group.order}\n"
                f"triple: {'; '.join(t.words())}\n")
            payload = {
                "solid": args.solid,
                "schlafli": [p, q],
                "group_order": t.group.order,
                "r0": t.words()[0], "r1": t.words()[1], "r2": t.words()[2],
                "manifest": manifest,
            }
            _emit(args, payload, table)
            return 0
        m = medial(t) if args.derive == "medial" else digon(t)
        heading = f"{args.derive} hypermap of the {args.solid}"
    _single_hypermap_output(args, m, {}, started, heading)
    return 0


def _parse_genus_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep or not lo.isdecimal() or not hi.isdecimal() or int(lo) > int(hi):
        raise _UsageError(f"bad --genus-range {text!r}; expected LO:HI")
    return int(lo), int(hi)


def _cmd_census(args) -> int:
    started = time.perf_counter()
    entries = load_catalog(args.catalog)
    genus_range = _parse_genus_range(args.genus_range) if args.genus_range else None
    if genus_range is not None:
        for entry in entries:
            bound = genus_upper_bound(entry.group.order, args.orientable)
            if genus_range[0] > bound:
                sys.stderr.write(
                    f"warning: group {entry.name} of order {entry.group.order} "
                    f"cannot reach genus {genus_range[0]}\n")
    report = census(
        [(e.name, e.group) for e in entries],
        proper_only=args.proper,
        orientable_only=args.orientable,
        genus_range=genus_range,
        jobs=args.jobs,
    )
    per_group = [
        {"name": s.name, "order": s.order,
         "status": "ok" if s.ok else "error",
         "classes_total": s.classes_total,
         "classes_matching": s.classes_matching,
         **({"error": s.error} if s.error else {})}
        for s in report.per_group]
    manifest = _manifest(
        {e.source_path: file_sha256(e.source_path) for e in entries},
        report.filters(), started, per_group=per_group)
    _emit(args, _census_dict(report, manifest), _census_table(report))
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lhm",
        description="Regular linear hypermaps: validation, invariants, "
                    "classification and census.")
    parser.add_argument("--version", action="version",
                        version=f"linhyp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the result to this file")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default=None, help="output format")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; enumeration runs "
                            "in one process and output never depends on it")

    p = sub.add_parser("classify",
                       help="all hypermap classes on one group")
    p.add_argument("--group", required=True, help="catalog file (*.grp)")
    add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("invariants",
                       help="m-sequence and invariants of one triple")
    p.add_argument("--group", required=True)
    p.add_argument("--triple", required=True,
                   help="three cycle words separated by ';'")
    add_common(p)
    p.set_defaults(handler=_cmd_triple)

    p = sub.add_parser("dual", help="invariants of the dual hypermap")
    p.add_argument("--group", required=True)
    p.add_argument("--triple", required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_triple)

    p = sub.add_parser("validate-flags",
                       help="validate a flag-hypermap file")
    p.add_argument("--flags", required=True, help="flag file (*.flags)")
    add_common(p)
    p.set_defaults(handler=_cmd_validate_flags)

    p = sub.add_parser("family", help="build a named family member")
    p.add_argument("--family", required=True,
                   choices=("z2xd2n", "d2m", "platonic"))
    p.add_argument("--n", type=int, help="parameter for z2xd2n")
    p.add_argument("--m", type=int, help="parameter for d2m")
    p.add_argument("--variant", choices=("m1", "m2"), default="m1")
    p.add_argument("--solid", choices=tuple(sorted(PLATONIC_SCHLAFLI)))
    p.add_argument("--derive", choices=("medial", "digon"))
    add_common(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("census", help="per-genus counts over a catalog")
    p.add_argument("--catalog", required=True, nargs="+",
                   help="catalog files or directories of *.grp files")
    p.add_argument("--proper", action="store_true",
                   help="keep only types with k, m, n >= 3")
    p.add_argument("--orientable", action="store_true",
                   help="keep only orientable hypermaps")
    p.add_argument("--genus-range", help="inclusive range LO:HI")
    add_common(p)
    p.set_defaults(handler=_cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format is None:
            args.format = "json" if args.out else "table"
        if args.format == "csv" and args.command != "classify":
            raise _UsageError("--format csv is only available for classify")
        if args.out:
            _check_out(args.out)
        return args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        if isinstance(exc, _ArgumentError):
            sys.stderr.write("\n")
            parser.print_help(sys.stderr)
        return USAGE_EXIT
    except BadEnvironment as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT
    except InternalCheckFailed as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 2
    except LinhypError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
