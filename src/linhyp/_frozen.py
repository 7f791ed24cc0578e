"""Frozen value classes without :mod:`dataclasses`.

``dataclass(frozen=True)`` and ``field(repr=)`` here are the part of
the standard ones that this package uses.  Importing :mod:`dataclasses`
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
decoration ``exec``s six methods; together that was a large share of
``lhm``'s start-up.

The fields are the class's own annotations, in order, with an optional
default given as a plain value; ``field(repr=False)`` marks a field
without a default that the repr leaves out.  The class gets these
methods, each unless it defines it itself:

- ``__init__``, positional or keyword, which calls ``__post_init__`` if
  the class has one;
- ``__repr__`` as ``Name(a=1, b=2)``, leaving out ``repr=False`` fields;
- ``__eq__`` and ``__hash__`` over all the fields, equal only for
  instances of the same class.

Its ``__setattr__`` and ``__delattr__`` raise
``dataclasses.FrozenInstanceError``, imported only to be raised.

``__init__``, ``__eq__`` and ``__hash__`` are straight-line code, compiled
with one ``exec`` per class, so they cost what the generated dataclass
methods cost.  Not supported: ``default_factory``, ``ClassVar``,
subclasses, and the ``dataclasses`` helpers (``fields``, ``asdict``,
``replace``, ``is_dataclass``).
"""

from __future__ import annotations

_MISSING = object()


class _Field:
    __slots__ = ("repr",)

    def __init__(self, repr):
        self.repr = repr


def field(*, repr: bool = True) -> _Field:
    return _Field(repr)


def _refuse_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _tuple(exprs: list[str]) -> str:
    return "(" + "".join(f"{e}," for e in exprs) + ")"


def dataclass(*, frozen: bool):
    if not frozen:
        raise TypeError("only frozen value classes are supported")
    return _process


def _process(cls):
    names, shown = [], []
    namespace = {"_setattr": object.__setattr__,
                 "__name__": cls.__module__}
    params = ["self"]
    for name in cls.__dict__.get("__annotations__", {}):
        default, show = cls.__dict__.get(name, _MISSING), True
        if isinstance(default, _Field):
            delattr(cls, name)
            default, show = _MISSING, default.repr
        if default is _MISSING:
            params.append(name)
        else:
            namespace[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
        names.append(name)
        if show:
            shown.append(name)

    body = [f"    _setattr(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    mine = _tuple([f"self.{n}" for n in names])
    theirs = _tuple([f"other.{n}" for n in names])
    fields = ", ".join(f"{n}={{self.{n}!r}}" for n in shown)
    source = "\n".join([
        f"def __init__({', '.join(params)}):",
        *(body or ["    pass"]),
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {mine} == {theirs}",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash({mine})",
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({fields})'",
    ])
    exec(source, namespace)

    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name not in cls.__dict__:
            fn = namespace[name]
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    cls.__match_args__ = tuple(names)
    return cls
