"""The one reader and field-type rule of every JSON file the program reads:
run and gradcheck configs, checkpoints and dataset sidecars."""

import json
import math
from itertools import chain
from pathlib import Path

# The Python types a JSON value of each kind may have; a bool is never a
# number, and any other kind (dict, or a config class) is a JSON object.
_TYPES = {"str": {str}, "int": {int}, "float": {int, float}, "bool": {bool}, "list": {list}}


class ConfigError(ValueError):
    """An invalid input file or field; the message names it."""


def read_object(path, what: str, types: dict | None = None, required=None) -> dict:
    """The JSON object in a UTF-8 file, each error naming the file as what it
    is; given types, its fields pass check_fields first."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except ValueError as e:  # not UTF-8, not JSON, or an int too long to read
        raise ConfigError(f"{what} {path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path}: expected a JSON object")
    return doc if types is None else check_fields(types, doc, f"{what} {path}: ", required)


def check_fields(types: dict, doc: dict, where: str, required=None) -> dict:
    """doc, once every field is in types and of its kind ("T | None" also takes
    null) and every required one (by default all) is present; otherwise a
    ConfigError names the first field that is not, after where."""
    unknown = sorted(doc.keys() - types)
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}: unknown field")
    for name, value in doc.items():
        kind, _, optional = types[name].partition(" | ")
        if not (value is None and optional) and not _fits(kind, [value]):
            expected = kind.replace("float", "finite float")
            raise ConfigError(f"{where}{name}: expected {expected}, got {value!r:.40}")
    for name in types if required is None else required:
        if name not in doc:
            raise ConfigError(f"{where}{name}: required")
    return doc


def _fits(kind: str, values: list) -> bool:
    """Whether every value is of the kind: "list[T]" is a list whose entries
    are all T, and a float is finite. A whole list is checked in a few passes
    over its entries, not one call per entry."""
    if kind.startswith("list["):
        return _fits("list", values) and _fits(kind[5:-1], list(chain.from_iterable(values)))
    try:  # math.isfinite raises for an int past the float range
        return set(map(type, values)) <= _TYPES.get(kind, {dict}) and (
            kind != "float" or all(map(math.isfinite, values))
        )
    except OverflowError:
        return False


def member(enum, value, where: str, what: str):
    """enum(value), or a ConfigError naming the field and the bad value."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(f"{where}: unknown {what} {value!r}") from None
