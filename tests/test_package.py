"""The package surface: its public names, and its frozen value classes
measured against the standard ``dataclasses`` ones."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import types

import pytest

import linhyp
from linhyp.errors import IndexOutOfRange
from linhyp.regular import InvolutionTriple

from conftest import REPO_ROOT, build_group

# the modules that define value classes with ``linhyp._frozen.dataclass``
_RECORD_MODULES = ("catalog", "classify", "constructions", "hypermap",
                   "permgroup", "regular", "report")


def test_star_import_gives_the_public_api():
    names: dict = {}
    exec("from linhyp import *", names)
    assert "annotations" not in names
    public = set(linhyp.__all__)
    assert public <= names.keys()
    for module in ("errors", "permgroup", "catalog", "constructions"):
        assert module not in public
    for name in ("FamilySpec", "platonic_map", "classify", "census",
                 "FlagHypermap", "InvolutionTriple", "closure"):
        assert name in public
    assert all(inspect.isclass(names[n]) or inspect.isfunction(names[n])
               for n in public)


def test_package_names_resolve_after_submodule_imports():
    script = (
        "import linhyp.cli, linhyp.classify, linhyp.constructions\n"
        "import linhyp, types\n"
        "from linhyp import classify, FamilySpec\n"
        "assert isinstance(classify, types.FunctionType), classify\n"
        "assert linhyp.classify is classify\n"
        "assert FamilySpec is linhyp.constructions.FamilySpec\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        linhyp.no_such_name


def test_only_permgroup_reads_the_multiplication_table():
    # the table's layout stays inside FiniteGroup: other modules read it
    # through its methods
    package = REPO_ROOT / "src" / "linhyp"
    readers = [path.name for path in sorted(package.glob("*.py"))
               if "_flat" in path.read_text(encoding="utf-8")]
    assert readers == ["permgroup.py"]


# --- value classes against dataclasses -----------------------------------------


def _reference_classes() -> list[tuple[type, type]]:
    """Each value class paired with the same class body decorated by the
    standard ``dataclasses.dataclass``: every module is re-run from its
    source with the ``_frozen`` import swapped for ``dataclasses``."""
    pairs = []
    for name in _RECORD_MODULES:
        module = importlib.import_module(f"linhyp.{name}")
        source = inspect.getsource(module)
        assert "from ._frozen import" in source
        source = source.replace("from ._frozen import",
                                "from dataclasses import")
        reference = types.ModuleType(f"linhyp._reference_{name}")
        reference.__package__ = "linhyp"
        # dataclasses looks the module of a class up in sys.modules
        sys.modules[reference.__name__] = reference
        try:
            exec(compile(source, module.__file__, "exec"), vars(reference))
        finally:
            del sys.modules[reference.__name__]
        for key, ref in vars(reference).items():
            if (isinstance(ref, type) and dataclasses.is_dataclass(ref)
                    and ref.__module__ == reference.__name__):
                pairs.append((getattr(module, key), ref))
    return pairs


_PAIRS = _reference_classes()


def test_every_value_class_is_compared():
    assert len(_PAIRS) == 17


def _samples(cls) -> tuple[list, list]:
    """Two argument lists for ``cls`` that differ in every field but a
    group."""
    g = build_group(["(1 2)", "(1 2 3 4)"], 4)
    invs = [i for i in range(g.order) if g.is_involution_index(i)]
    names = [f.name for f in dataclasses.fields(cls)]
    if cls.__name__ == "InvolutionTriple":
        return [g, *invs[:3]], [g, *invs[3:6]]
    if cls.__name__ == "LinearHypergraph":
        return ([(1, 2, 3), (frozenset({1, 2}), frozenset({2, 3}))],
                [(1, 2, 3, 4), (frozenset({1, 3}),)])
    first = [f"{cls.__name__}.{n}" for n in names]
    second = [f"{v}'" for v in first]
    if "triple" in names:   # its own repr reads the triple's words
        i = names.index("triple")
        first[i] = InvolutionTriple(g, *invs[:3])
        second[i] = InvolutionTriple(g, *invs[3:6])
    return first, second


@pytest.mark.parametrize("ours, ref", _PAIRS, ids=lambda c: c.__name__)
def test_value_class_matches_dataclass(ours, ref):
    fields = dataclasses.fields(ref)
    names = [f.name for f in fields]
    assert ours.__match_args__ == ref.__match_args__ == tuple(names)
    sig = [(p.name, p.kind, p.default)
           for p in inspect.signature(ours).parameters.values()]
    assert sig == [(p.name, p.kind, p.default)
                   for p in inspect.signature(ref).parameters.values()]

    first, second = _samples(ref)
    a, r = ours(*first), ref(*first)
    assert [getattr(a, n) for n in names] == first
    assert ours(**dict(zip(names, first))) == a
    assert repr(a) == repr(r)
    assert a == ours(*first) and not a != ours(*first)
    assert hash(a) == hash(r) == hash(ours(*first))
    assert a != r and r != a

    # a field takes part in == and hash exactly when the dataclass's does
    for i, f in enumerate(fields):
        mixed = first[:i] + [second[i]] + first[i + 1:]
        assert (ours(*mixed) == a) == (ref(*mixed) == r)
        assert (hash(ours(*mixed)) == hash(a)) == (
            hash(ref(*mixed)) == hash(r))

    required = [f for f in fields if f.default is dataclasses.MISSING]
    a, r = ours(*first[:len(required)]), ref(*first[:len(required)])
    assert [getattr(a, n) for n in names] == [getattr(r, n) for n in names]
    with pytest.raises(TypeError):
        ours(*first[:len(required) - 1])
    with pytest.raises(TypeError):
        ours(*first, no_such_field=1)
    with pytest.raises(TypeError):
        ours(*first, *first)

    for target in (a, r):
        for attr in (names[0], "no_such_field"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, attr, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(target, names[0])


def test_post_init_still_validates():
    pairs = {ours.__name__: (ours, ref) for ours, ref in _PAIRS}
    g = build_group(["(1 2)", "(1 2 3 4)"], 4)
    a, b = [i for i in range(g.order) if g.is_involution_index(i)][:2]
    for cls in pairs["InvolutionTriple"]:
        with pytest.raises(IndexOutOfRange):
            cls(g, a, b, g.order)
    for cls in pairs["LinearHypergraph"]:
        with pytest.raises(ValueError, match="unknown vertices"):
            cls((1, 2), (frozenset({1, 3}),))
