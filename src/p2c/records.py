"""Immutable value records, with nothing generated when a class is defined.

The package's value types (feature specs, states, configs, datasets, rules,
plan steps and cost reports) are plain classes on :class:`Record`.  Each
lists its constructor's parameters in ``_fields`` and stores them in its
instance's ``__dict__`` from its own ``__init__``.  The base reads that
tuple for what ``@dataclass(frozen=True)`` would generate and ``exec`` per
class at import: equality and hash over the compared fields, a repr naming
each field, and no setting or deleting of attributes.  :func:`replace`
rebuilds a record through its ``__init__``, as ``dataclasses.replace`` does.
"""

from __future__ import annotations

from typing import TypeVar

R = TypeVar("R", bound="Record")


class Record:
    """An immutable value, equal to another of its class with equal fields.

    ``_fields`` names the constructor's parameters in order; the repr and
    :func:`replace` read them.  ``_compared`` names the fields equality and
    hash read, in that order: ``_fields`` unless a class names fewer.
    ``_kept`` names entries of ``__dict__`` that are not fields and that
    :func:`replace` copies onto the rebuilt record.  An
    instance keeps its fields in its ``__dict__``, so it pickles and copies
    as a dataclass does, by that dict and without calling ``__init__``, and
    ``functools.cached_property`` can keep a value there.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _kept: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields
        cls.__match_args__ = cls._fields

    def _key(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = self.__dict__
        shown = ", ".join([f"{name}={fields[name]!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: R, /, **changes) -> R:
    """A record of ``record``'s class with its fields, but for ``changes``,
    built through that class's ``__init__``: its checks run again, and what
    the constructor does not set (a cached property's value) is not copied,
    but for the entries the class names in ``_kept``."""
    fields = record.__dict__
    rebuilt = record.__class__(**{**{name: fields[name] for name in record._fields}, **changes})
    for name in record._kept:
        rebuilt.__dict__[name] = fields[name]
    return rebuilt
