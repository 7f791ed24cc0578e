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


def _non_comment_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_group_file(path: str | Path,
                     max_order: int | None = None) -> CatalogEntry:
    """Parse one catalog file and build its group."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc

    name: str | None = None
    degree: int | None = None
    times_z2 = False
    gen_words: list[str] = []
    seen: set[str] = set()
    in_gens = False
    for lineno, line in _non_comment_lines(text):
        if in_gens:
            gen_words.append(line)
            continue
        if line == "gens:":
            in_gens = True
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {line!r}",
                             path=str(path), line=lineno)
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ParseError(f"duplicate key {key!r}",
                             path=str(path), line=lineno)
        seen.add(key)
        if key == "name":
            name = value
        elif key == "degree":
            if not value.isdecimal() or int(value) < 1:
                raise ParseError(f"bad degree {value!r}",
                                 path=str(path), line=lineno)
            degree, cap = int(value), closure_cap()
            if degree > cap:
                raise ParseError(
                    f"degree {degree} exceeds the cap of {cap} "
                    f"({CLOSURE_CAP_ENV})", path=str(path), line=lineno)
        elif key == "times-z2":
            if value not in ("true", "false"):
                raise ParseError(f"times-z2 must be true or false, got {value!r}",
                                 path=str(path), line=lineno)
            times_z2 = value == "true"
        else:
            raise ParseError(f"unknown header key {key!r}",
                             path=str(path), line=lineno)
    if name is None:
        raise ParseError("missing 'name:' header", path=str(path))
    if degree is None:
        raise ParseError("missing 'degree:' header", path=str(path))
    if not gen_words:
        raise ParseError("missing 'gens:' section", path=str(path))

    effective = degree + (2 if times_z2 else 0)
    gens: list[Permutation] = []
    for word in gen_words:
        try:
            gens.append(parse_cycles(word, degree).extended(effective))
        except LinhypError as exc:
            raise ParseError(f"bad generator {word!r}: {exc}",
                             path=str(path)) from exc
    if times_z2:
        gens.append(parse_cycles(f"({degree + 1} {degree + 2})", effective))
    group = closure(gens, max_order=max_order)
    return CatalogEntry(
        name=name,
        source_path=str(path),
        base_degree=degree,
        times_z2=times_z2,
        generator_words=tuple(gen_words),
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
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    fields: dict[str, str] = {}
    for lineno, line in _non_comment_lines(text):
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: value', got {line!r}",
                             path=str(path), line=lineno)
        key = key.strip()
        if key not in ("flags", "r0", "r1", "r2"):
            raise ParseError(f"unknown key {key!r}",
                             path=str(path), line=lineno)
        if key in fields:
            raise ParseError(f"duplicate key {key!r}",
                             path=str(path), line=lineno)
        fields[key] = value.strip()
    for key in ("flags", "r0", "r1", "r2"):
        if key not in fields:
            raise ParseError(f"missing {key!r} line", path=str(path))
    count = fields["flags"]
    if not count.isdecimal() or int(count) < 1:
        raise ParseError(f"bad flag count {count!r}", path=str(path))
    n, cap = int(count), closure_cap()
    if n > cap:
        raise ParseError(
            f"flag count {n} exceeds the cap of {cap} ({CLOSURE_CAP_ENV})",
            path=str(path))
    try:
        perms = [parse_cycles(fields[k], n) for k in ("r0", "r1", "r2")]
    except LinhypError as exc:
        raise ParseError(f"bad involution: {exc}", path=str(path)) from exc
    return FlagHypermap(*perms)


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"
