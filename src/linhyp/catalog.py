"""Catalog and flag-file ingestion.

Group catalog files (``*.grp``) are UTF-8 text::

    # comment lines start with '#', blank lines are ignored
    name: a5xz2
    degree: 5
    times-z2: true        # optional; adjoin a central involution on two
                          # fresh points (the effective degree grows by 2)
    gens:
    (1 2 3 4 5)
    (1 2 3)

Header keys may appear in any order before ``gens:``; every non-comment
line after ``gens:`` is one permutation in cycle notation at the declared
base degree.  ``degree`` is a positive decimal integer no larger than the
closure cap (``LHM_MAX_GROUP_ORDER``, default 200000), checked before any
generator is parsed, since each generator is built as a list of ``degree``
images.  A header key given twice is a parse error.

Flag-hypermap files (``*.flags``) are::

    flags: 36
    r0: (1 2)(3 4)...
    r1: ...
    r2: ...

``flags`` is bounded like ``degree``.  Both formats are read the same way:
every ``key: value`` line is checked for its colon, a known key and a first
use, then the required keys are looked for, and only then are the values
parsed.  A file with two faults may therefore report a later line first.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Sequence

from ._frozen import dataclass, field
from .errors import DuplicateName, LinhypError, ParseError
from .hypermap import FlagHypermap
from .permgroup import (
    CLOSURE_CAP_ENV,
    FiniteGroup,
    Permutation,
    _decimal_digits,
    closure,
    closure_cap,
    parse_cycles,
)


@dataclass(frozen=True)
class CatalogEntry:
    """One named group: parsed generators plus the built closure."""

    name: str
    source_path: str
    base_degree: int
    times_z2: bool
    generator_words: tuple[str, ...]
    group: FiniteGroup = field(repr=False)

    @property
    def degree(self) -> int:
        return self.base_degree + (2 if self.times_z2 else 0)


def _lines(path: Path) -> list[tuple[int, str]]:
    """The file's non-comment lines, stripped, with their line numbers."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


def _fields(path: Path, lines: list[tuple[int, str]], keys: tuple[str, ...],
            unknown: str) -> dict[str, tuple[int, str]]:
    """``key: value`` lines as ``{key: (line number, value)}``; a line
    without a colon, a key outside ``keys`` or a repeated key is an error."""
    fields: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            message = f"expected 'key: value', got {line!r}"
        elif key not in keys:
            message = f"{unknown} {key!r}"
        elif key in fields:
            message = f"duplicate key {key!r}"
        else:
            fields[key] = lineno, value.strip()
            continue
        raise ParseError(message, path=str(path), line=lineno)
    return fields


def _count(label: str, value: str, path: Path, line: int) -> int:
    """A positive decimal count no larger than the closure cap.

    Past its leading zeros, a count with more digits than the cap exceeds
    it; that is decided on the digits, because ``int`` refuses a string of
    more than a few thousand of them.  The digits are quoted in ASCII.
    """
    if not value.isdecimal():
        raise ParseError(f"bad {label} {value!r}", path=str(path), line=line)
    digits = _decimal_digits(value)
    if not digits:
        raise ParseError(f"bad {label} {value!r}", path=str(path), line=line)
    cap = closure_cap()
    if len(digits) > len(str(cap)) or int(digits) > cap:
        raise ParseError(f"{label} {digits} exceeds the cap of {cap} "
                         f"({CLOSURE_CAP_ENV})", path=str(path), line=line)
    return int(digits)


def parse_group_file(path: str | Path,
                     max_order: int | None = None) -> CatalogEntry:
    """Parse one catalog file and build its group."""
    path = Path(path)
    lines = _lines(path)
    split = next((i for i, (_, line) in enumerate(lines) if line == "gens:"),
                 len(lines))
    fields = _fields(path, lines[:split], ("name", "degree", "times-z2"),
                     "unknown header key")
    gen_lines = lines[split + 1:]
    for key in ("name", "degree"):
        if key not in fields:
            raise ParseError(f"missing '{key}:' header", path=str(path))
    degree = _count("degree", fields["degree"][1], path, fields["degree"][0])
    lineno, flag = fields.get("times-z2", (None, "false"))
    if flag not in ("true", "false"):
        raise ParseError(f"times-z2 must be true or false, got {flag!r}",
                         path=str(path), line=lineno)
    times_z2 = flag == "true"
    if not gen_lines:
        raise ParseError("missing 'gens:' section", path=str(path))

    effective = degree + (2 if times_z2 else 0)
    gens: list[Permutation] = []
    for lineno, word in gen_lines:
        try:
            gens.append(parse_cycles(word, degree).extended(effective))
        except LinhypError as exc:
            raise ParseError(f"bad generator {word!r}: {exc}",
                             path=str(path), line=lineno) from exc
    if times_z2:
        gens.append(parse_cycles(f"({degree + 1} {degree + 2})", effective))
    group = closure(gens, max_order=max_order)
    return CatalogEntry(
        name=fields["name"][1],
        source_path=str(path),
        base_degree=degree,
        times_z2=times_z2,
        generator_words=tuple(word for _, word in gen_lines),
        group=group,
    )


def expand_catalog_paths(paths: Iterable[str | Path]) -> list[Path]:
    """Files stay files; directories contribute their ``*.grp``, sorted."""
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.glob("*.grp")))
        else:
            out.append(p)
    return out


def load_catalog(paths: Sequence[str | Path],
                 max_order: int | None = None) -> list[CatalogEntry]:
    """Load entries in path order; duplicate names are rejected."""
    entries: list[CatalogEntry] = []
    seen: dict[str, str] = {}
    for path in expand_catalog_paths(paths):
        entry = parse_group_file(path, max_order=max_order)
        if entry.name in seen:
            raise DuplicateName(
                f"name {entry.name!r} appears in both {seen[entry.name]} "
                f"and {entry.source_path}")
        seen[entry.name] = entry.source_path
        entries.append(entry)
    return entries


def load_flag_hypermap(path: str | Path) -> FlagHypermap:
    """Read a flag-hypermap file: flag count plus three involutions."""
    path = Path(path)
    keys = ("flags", "r0", "r1", "r2")
    fields = _fields(path, _lines(path), keys, "unknown key")
    for key in keys:
        if key not in fields:
            raise ParseError(f"missing {key!r} line", path=str(path))
    n = _count("flag count", fields["flags"][1], path, fields["flags"][0])
    perms = []
    for key in keys[1:]:
        lineno, value = fields[key]
        try:
            perms.append(parse_cycles(value, n))
        except LinhypError as exc:
            raise ParseError(f"bad involution: {exc}", path=str(path),
                             line=lineno) from exc
    return FlagHypermap(*perms)


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"
