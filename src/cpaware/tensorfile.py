"""One binary container for named arrays plus JSON metadata.

Datasets and checkpoints are both written as this container; each
module says only what its metadata and arrays hold.  Layout (integers
little-endian):

    magic (4) | version u8 = 2 | header_len u32
    | header JSON (utf-8, sorted keys):
      {"arrays": [[name, dtype, shape], ...], "meta": {...}}
    | array data, C order, in the listed order

``dtype`` is one of ``<f4``, ``<f8`` or ``<i8``.  The reader checks the
header, and that the file size is exactly the header end plus the array
sizes, before it reads any data; every malformed file raises ValueError
naming the path.  Arrays are read straight from the open file, so a
load holds each array once and never the file as a whole.

``from_json`` is the matching check for configs read back from JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import typing

import numpy as np

VERSION = 2
DTYPES = ("<f4", "<f8", "<i8")

_PREFIX = struct.Struct("<4sBI")
_SCALARS = {int: (int,), float: (int, float)}  # annotation -> accepted JSON types


def write(path, magic: bytes, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` (JSON-serializable) and ``arrays`` to ``path``."""
    listed = []
    for name, a in arrays.items():
        dtype = a.dtype.newbyteorder("<").str
        if dtype not in DTYPES:
            raise ValueError(f"array {name!r}: dtype {a.dtype} not one of {DTYPES}")
        listed.append([name, dtype, list(a.shape)])
    header = json.dumps({"arrays": listed, "meta": meta}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, VERSION, len(header)))
        fh.write(header)
        for (_, dtype, _), a in zip(listed, arrays.values()):
            fh.write(np.ascontiguousarray(a, dtype=dtype).data)


def read(path, magic: bytes, meta_keys) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and arrays of a container written by ``write``.

    The metadata must be a JSON object with exactly the keys ``meta_keys``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX.size)
        if prefix[:4] != magic:
            raise ValueError(f"{path}: bad magic, expected {magic!r}")
        if len(prefix) > 4 and prefix[4] != VERSION:
            raise ValueError(f"{path}: unsupported version {prefix[4]}, expected {VERSION}")
        if len(prefix) < _PREFIX.size:
            raise ValueError(f"{path}: truncated header")
        header_len = _PREFIX.unpack(prefix)[2]
        if _PREFIX.size + header_len > size:
            raise ValueError(f"{path}: header length {header_len} exceeds the file")
        try:
            header = json.loads(fh.read(header_len))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: corrupt header: {exc}") from None
        listed = _checked_listing(path, header, set(meta_keys))
        expected = _PREFIX.size + header_len + sum(
            np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in listed)
        if size != expected:
            raise ValueError(f"{path}: file is {size} bytes, its header describes {expected}")
        arrays = {}
        for name, dtype, shape in listed:
            try:
                arrays[name] = np.fromfile(fh, dtype=dtype, count=math.prod(shape)).reshape(shape)
            except ValueError as exc:
                raise ValueError(f"{path}: array {name!r}: {exc}") from None
    return header["meta"], arrays


def _checked_listing(path, header, meta_keys: set) -> list:
    if not (isinstance(header, dict) and set(header) == {"arrays", "meta"}
            and isinstance(header["meta"], dict) and set(header["meta"]) == meta_keys
            and isinstance(header["arrays"], list)):
        raise ValueError(f"{path}: header must hold 'arrays' and 'meta' with keys "
                         f"{sorted(meta_keys)}")
    names = set()
    for entry in header["arrays"]:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and entry[0] not in names and entry[1] in DTYPES
                and isinstance(entry[2], list)
                and all(type(d) is int and d >= 0 for d in entry[2])):
            raise ValueError(f"{path}: bad array entry {entry!r}")
        names.add(entry[0])
    return header["arrays"]


def from_json(cls, data):
    """Build the dataclass ``cls`` from the JSON object ``data``.

    ``data`` must hold every field of ``cls`` and no other key.  A field
    typed as a dataclass is built by the same rule, and JSON arrays become
    tuples.  A field annotated ``int`` takes an integer (not a boolean), and
    one annotated ``float`` an integer or a float.  A missing or unknown
    key, or a value of the wrong type, raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    if set(data) != names:
        problems = [f"{kind} keys {sorted(keys)}" for kind, keys in
                    (("missing", names - set(data)), ("unknown", set(data) - names)) if keys]
        raise ValueError(f"{cls.__name__}: {', '.join(problems)}")
    types = typing.get_type_hints(cls)
    for f in fields:
        allowed = _SCALARS.get(types[f.name])
        value = data[f.name]
        if allowed and (isinstance(value, bool) or not isinstance(value, allowed)):
            raise ValueError(f"{cls.__name__}.{f.name}: expected {allowed[-1].__name__}, "
                             f"got {value!r}")
    try:
        return cls(**{name: from_json(types[name], value)
                      if dataclasses.is_dataclass(types[name]) else _tuples(value)
                      for name, value in data.items()})
    except (TypeError, RecursionError) as exc:
        raise ValueError(f"{cls.__name__}: {exc}") from None


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value
