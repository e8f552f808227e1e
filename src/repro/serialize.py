"""Config (de)serialization derived from dataclass fields, and hashing.

Every config dataclass (``SimulationConfig`` and the nested
``SolverConfig``/``AMGOptions``/``RecoveryPolicy``/``FaultSpec``, plus
the campaign ``JobSpec``) inherits :class:`Serializable`, whose
``to_dict()``/``from_dict()`` are derived from the class's fields and
annotations: there is no per-class field list to keep in sync.  Each
annotation maps to one parser (:data:`_PARSERS`; a nested config
dataclass or a tuple of them is parsed by its own ``from_dict``), and
the per-class schema is built once and cached.  ``to_dict`` emits
tuples as lists and nested configs as dicts; ``from_dict`` calls the
class's ``validate()`` when it defines one.  A field whose metadata
carries :data:`RUNTIME_ONLY` (e.g. ``SimulationConfig.clock``) has no
serialized form: ``to_dict`` raises while it is set.

The contract is deliberately strict — this dict is the campaign cache
key, so silent coercion or silently-dropped keys would alias distinct
configurations:

* unknown keys raise ``ValueError`` (no typo ever falls back to a
  default);
* every value is type-checked with the exact JSON-compatible kind the
  field declares (``bool`` is *not* an ``int`` here);
* ``int`` is accepted where ``float`` is declared (JSON writers emit
  ``1`` for ``1.0``) and normalized to ``float``.

:func:`stable_digest` is the canonical content hash: sorted-key,
separator-free JSON, SHA-256.  Two dicts that differ only in key order
digest identically; any value change changes the digest.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from typing import Any, Callable, TypeVar

Parser = Callable[[Any, str], Any]
T = TypeVar("T")


def canonical_json(doc: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def stable_digest(doc: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``doc``."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _type_error(path: str, expected: str, value: Any) -> ValueError:
    return ValueError(
        f"{path}: expected {expected}, got {type(value).__name__} "
        f"({value!r})"
    )


def as_bool(value: Any, path: str) -> bool:
    """A real bool (``0``/``1`` are rejected: they round-trip as ints)."""
    if not isinstance(value, bool):
        raise _type_error(path, "bool", value)
    return value


def as_int(value: Any, path: str) -> int:
    """An int; bool is explicitly rejected despite being an int subtype."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _type_error(path, "int", value)
    return int(value)


def as_float(value: Any, path: str) -> float:
    """A float; ints are accepted (JSON writes ``1.0`` as ``1``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _type_error(path, "float", value)
    return float(value)


def as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise _type_error(path, "str", value)
    return value


def as_opt_str(value: Any, path: str) -> str | None:
    if value is None:
        return None
    return as_str(value, path)


def as_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _type_error(path, "mapping", value)
    return value


def as_str_tuple(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise _type_error(path, "list of str", value)
    return tuple(as_str(v, f"{path}[{i}]") for i, v in enumerate(value))


def as_float_triple(value: Any, path: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise _type_error(path, "list of 3 floats", value)
    x, y, z = (as_float(v, f"{path}[{i}]") for i, v in enumerate(value))
    return (x, y, z)


def nested(from_dict: Callable[[Any], Any]) -> Parser:
    """Parser for a nested config block handled by its own ``from_dict``."""

    def parse(value: Any, path: str) -> Any:
        if not isinstance(value, dict):
            raise _type_error(path, "mapping", value)
        return from_dict(value)

    return parse


def nested_list(from_dict: Callable[[Any], Any]) -> Parser:
    """Parser for a list of nested config blocks (e.g. fault specs)."""

    def parse(value: Any, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise _type_error(path, "list of mappings", value)
        out = []
        for i, item in enumerate(value):
            if not isinstance(item, dict):
                raise _type_error(f"{path}[{i}]", "mapping", item)
            out.append(from_dict(item))
        return tuple(out)

    return parse


def strict_kwargs(
    cls_name: str, data: Any, parsers: dict[str, Parser]
) -> dict[str, Any]:
    """Parse ``data`` into constructor kwargs, strictly.

    Unknown keys raise (listing both the offenders and the accepted
    keys); each present key runs through its declared parser.  Absent
    keys are simply omitted so dataclass defaults apply.
    """
    if not isinstance(data, dict):
        raise _type_error(cls_name, "mapping", data)
    unknown = sorted(set(data) - set(parsers))
    if unknown:
        raise ValueError(
            f"{cls_name}: unknown config keys {unknown}; "
            f"accepted keys: {sorted(parsers)}"
        )
    return {
        key: parsers[key](value, f"{cls_name}.{key}")
        for key, value in data.items()
    }


#: Field metadata marking a runtime-only field (no serialized form).
RUNTIME_ONLY = {"runtime_only": True}

#: Parser of each supported scalar/container field annotation.
_PARSERS: dict[Any, Parser] = {
    bool: as_bool,
    int: as_int,
    float: as_float,
    str: as_str,
    str | None: as_opt_str,
    tuple[str, ...]: as_str_tuple,
    tuple[float, float, float]: as_float_triple,
    dict: as_mapping,
}


def _parser(annotation: Any) -> Parser:
    if dataclasses.is_dataclass(annotation):
        return nested(annotation.from_dict)
    args = typing.get_args(annotation)
    if (
        typing.get_origin(annotation) is tuple
        and len(args) == 2
        and args[1] is Ellipsis
        and dataclasses.is_dataclass(args[0])
    ):
        return nested_list(args[0].from_dict)
    if annotation in _PARSERS:
        return _PARSERS[annotation]
    raise TypeError(f"no config parser for annotation {annotation!r}")


@functools.cache
def _schema(cls: type) -> tuple[dict[str, Parser], tuple[str, ...]]:
    """``({field: parser}, runtime-only field names)`` of a config class."""
    hints = typing.get_type_hints(cls)
    parsers: dict[str, Parser] = {}
    runtime: list[str] = []
    for f in dataclasses.fields(cls):
        if f.metadata.get("runtime_only"):
            runtime.append(f.name)
        else:
            parsers[f.name] = _parser(hints[f.name])
    return parsers, tuple(runtime)


def _dump(value: Any) -> Any:
    if isinstance(value, Serializable):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_dump(v) for v in value]
    return value


class Serializable:
    """Mixin deriving ``to_dict``/``from_dict`` from the dataclass fields."""

    def to_dict(self) -> dict:
        """JSON-shaped dict of every serializable field (round-trip form)."""
        cls = type(self)
        parsers, runtime = _schema(cls)
        for name in runtime:
            if getattr(self, name) is not None:
                raise ValueError(
                    f"{cls.__name__}.{name} is runtime-only and cannot be "
                    "serialized; clear it before to_dict()"
                )
        return {name: _dump(getattr(self, name)) for name in parsers}

    @classmethod
    def from_dict(cls: type[T], data: dict) -> T:
        """Strictly-validated inverse of :meth:`to_dict`.

        Unknown keys and type mismatches raise ``ValueError``; absent
        keys take the dataclass defaults.  The result is ``validate()``-d
        when the class defines a ``validate`` method.
        """
        obj = cls(**strict_kwargs(cls.__name__, data, _schema(cls)[0]))
        validate = getattr(obj, "validate", None)
        if validate is not None:
            validate()
        return obj
