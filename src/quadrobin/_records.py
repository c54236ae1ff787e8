"""One JSON codec for the dataclass records that leave the package."""

from __future__ import annotations

import dataclasses
import json
import typing
from functools import cache

import numpy as np


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


@cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _decode(tp, value):
    if value is None:
        return None
    tp = next((t for t in typing.get_args(tp) if t is not type(None)), tp)  # X | None -> X
    if tp is np.ndarray:
        return np.asarray(value, dtype=float)
    if issubclass(tp, Record):
        return tp.from_dict(value)
    return tp(value)


class Record:
    """Mixin that derives the JSON methods of a dataclass from its fields.

    ``to_dict`` emits the fields in declaration order (arrays as lists,
    nested records as dicts), then the read-only properties named in
    ``_derived``.  ``from_dict`` converts each field by its annotation, keeps
    the default for a missing key and ignores every other key.
    """

    _derived = ()

    def to_dict(self) -> dict:
        names = [f.name for f in dataclasses.fields(self)] + list(self._derived)
        return {name: _encode(getattr(self, name)) for name in names}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict):
        types = _field_types(cls)
        return cls(**{k: _decode(types[k], v) for k, v in data.items() if k in types})

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))
