"""JSON and CSV serialization for bases, protocols, and decompositions.

Matrices are stored as nested lists of rows, each entry a [re, im] pair of
decimal doubles, so files are flat, language-neutral, and diffable.  Floats
go through Python's shortest round-trip repr, which makes load(save(x))
bit-exact.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from typing import Any

import numpy as np

from .bases import UnitaryBasis
from .protocol import CanonicalDecomposition, InvalidProtocolError, Protocol


class SerializationError(ValueError):
    """Malformed file content; carries the offending path and field."""

    def __init__(self, path: str, field: str, detail: str):
        super().__init__(f"{path}: field '{field}': {detail}")
        self.path = path
        self.field = field


def _complex_array(data: Any, depth: int) -> np.ndarray:
    """`data`, lists `depth` deep whose innermost entries are [re, im] pairs of
    finite JSON numbers, as one complex array of that many axes: a matrix at
    depth 2, a stack of matrices of one shape at depth 3.

    Only the outermost list is checked as one: JSON's other containers
    iterate as strings, which fail the pair length or the type set of the
    entries.
    """
    if not isinstance(data, list):
        raise ValueError(f"expected a list of rows, got {type(data).__name__}")
    levels = [data]
    for _ in range(depth - 1):
        levels.append(list(itertools.chain.from_iterable(levels[-1])))
    pairs = levels.pop()
    if not pairs:
        raise ValueError("empty matrix")
    shape = [len(data)]
    for level in levels:
        shape.append(len(level[0]))
        if any(len(item) != shape[-1] for item in level):
            raise ValueError("ragged rows")
    if set(map(len, pairs)) != {2}:
        raise ValueError("entries must be [re, im] pairs")
    parts = list(itertools.chain.from_iterable(pairs))
    # exact types: JSON true/false load as bool, a subclass of int
    if not set(map(type, parts)) <= {int, float}:
        raise ValueError("entries must be JSON numbers")
    m = np.array(parts, dtype=float).view(complex).reshape(shape)
    # Python's json reads NaN and Infinity, which are not JSON
    if not np.isfinite(m).all():
        raise ValueError("entries must be finite, not NaN or Infinity")
    return m


def matrix_from_json(data: Any, path: str, field: str) -> np.ndarray:
    try:
        return _complex_array(data, 2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(path, field, f"not a valid complex matrix: {exc}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise SerializationError(path, "<file>", "file not found") from None
    except UnicodeDecodeError as exc:
        raise SerializationError(path, "<document>", f"not UTF-8 text: {exc}") from None


def _load_json(path: str) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SerializationError(path, "<document>", f"invalid JSON: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nested array or object
        raise SerializationError(path, "<document>", "JSON nested too deeply to read") from None


def write_text(text: str, path: str | None) -> None:
    """Write text to a file, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrix(m: np.ndarray, level: int) -> str:
    """A complex matrix as JSON rows of [re, im] pairs, `level` containers deep."""
    a = np.ascontiguousarray(np.atleast_2d(m), dtype=complex)
    if a.size == 0:
        return _encode(a.tolist(), level)
    parts = a.view(float).ravel().tolist()
    if not np.isfinite(a).all():
        parts = [x if math.isfinite(x) else json.dumps(x) for x in parts]
    s0, s1, s2, s3 = (" " * (level + k) for k in range(4))
    # "%s" of a float is float.__repr__, the text json writes
    pair = f"[\n{s3}%s,\n{s3}%s\n{s2}]"
    row = f"[\n{s2}" + f",\n{s2}".join([pair] * a.shape[1]) + f"\n{s1}]"
    return (f"[\n{s1}" + f",\n{s1}".join([row] * a.shape[0]) + f"\n{s0}]") % tuple(parts)


def _encode(obj: Any, level: int) -> str:
    """`obj` as json.dumps(obj, indent=1) writes it `level` containers deep,
    with a dataclass instance written as its fields, an ndarray as a complex
    matrix and a complex number as a [re, im] pair."""
    if isinstance(obj, np.ndarray):
        return _matrix(obj, level)
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be strings")
        items = [f"{json.dumps(key)}: {_encode(val, level + 1)}" for key, val in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_encode(val, level + 1) for val in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    pad = "\n" + " " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


def emit(doc: Any, path: str | None = None) -> None:
    """Write `doc` as JSON to a file or stdout, byte for byte as
    json.dumps(doc, indent=1) writes its list form: a dataclass instance
    becomes its field dict, an ndarray a matrix of [re, im] pairs and a
    complex number a [re, im] pair.  Floats are written by repr, NaN and
    infinities as json's NaN and Infinity tokens."""
    write_text(_encode(doc, 0) + "\n", path)


def _require(doc: dict, key: str, path: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise SerializationError(path, key, "missing required field")
    return doc[key]


def _is_positive_int(val: Any) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(val, int) and not isinstance(val, bool) and val >= 1


def _require_list(doc: dict, key: str, path: str) -> list:
    val = _require(doc, key, path)
    if not isinstance(val, list):
        raise SerializationError(path, key, f"expected a JSON list, got {type(val).__name__}")
    return val


def save_basis(b: UnitaryBasis, path: str | None) -> None:
    doc = {"d": b.d, "elements": b.elements}
    if b.labels is not None:
        doc["labels"] = b.labels
    emit(doc, path)


def _matrix_list(doc: dict, key: str, path: str) -> list[np.ndarray]:
    """The matrices of the list field `key`, read in one pass when they share
    a shape.  Otherwise they are read one by one, so that an error names the
    first bad matrix, `key[k]`."""
    data = _require_list(doc, key, path)
    try:
        return list(_complex_array(data, 3))
    except (TypeError, ValueError, OverflowError):
        return [matrix_from_json(m, path, f"{key}[{k}]") for k, m in enumerate(data)]


def load_basis(path: str) -> UnitaryBasis:
    doc = _load_json(path)
    d = _require(doc, "d", path)
    if not _is_positive_int(d):
        raise SerializationError(path, "d", f"expected a positive integer, got {d!r}")
    elements = _matrix_list(doc, "elements", path)
    for k, e in enumerate(elements):  # after the reads: an entry error comes first
        if e.shape != (d, d):
            raise SerializationError(path, f"elements[{k}]", f"shape {e.shape} is not {d}x{d}")
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise SerializationError(path, "labels", f"expected a JSON list of strings, got {labels!r}")
    if labels is not None and len(labels) != d * d:
        raise SerializationError(path, "labels", f"expected {d * d} labels, got {len(labels)}")
    try:
        return UnitaryBasis(
            d=d, elements=tuple(elements), labels=tuple(labels) if labels else None
        )
    except ValueError as exc:
        raise SerializationError(path, "elements", str(exc)) from exc


def save_protocol(p: Protocol, path: str) -> None:
    emit(p, path)  # the file's fields are the protocol's, in order


def load_protocol(path: str) -> Protocol:
    doc = _load_json(path)
    dims = {}
    for key in ("dim_a_prime", "dim_a_dbl", "dim_b"):
        val = _require(doc, key, path)
        if not _is_positive_int(val):
            raise SerializationError(path, key, f"expected a positive integer, got {val!r}")
        dims[key] = val
    tau = matrix_from_json(_require(doc, "tau", path), path, "tau")
    encoders = tuple(_matrix_list(doc, "encoders", path))
    p = Protocol(dims["dim_a_prime"], dims["dim_a_dbl"], dims["dim_b"], tau, encoders)
    try:
        p.validate()
    except InvalidProtocolError as exc:
        raise SerializationError(path, exc.field, exc.detail) from exc
    return p


def save_decomposition(dec: CanonicalDecomposition, path: str) -> None:
    blocks = [{"p": p, "s": s, "sign": int(sign)} for p, s, sign in dec.blocks]
    emit({"v": dec.v, "w": dec.w, "c": dec.c, "rho": dec.rho, "blocks": blocks}, path)


def load_decomposition(path: str) -> CanonicalDecomposition:
    doc = _load_json(path)
    v = matrix_from_json(_require(doc, "v", path), path, "v")
    w = matrix_from_json(_require(doc, "w", path), path, "w")
    c = tuple(_matrix_list(doc, "c", path))
    rho = matrix_from_json(_require(doc, "rho", path), path, "rho")
    blocks = []
    for k, blk in enumerate(_require_list(doc, "blocks", path)):
        p = matrix_from_json(_require(blk, "p", path), path, f"blocks[{k}].p")
        s = matrix_from_json(_require(blk, "s", path), path, f"blocks[{k}].s")
        sign = _require(blk, "sign", path)
        if isinstance(sign, bool) or sign not in (-1, 1):
            raise SerializationError(path, f"blocks[{k}].sign", f"expected +-1, got {sign!r}")
        blocks.append((p, s, int(sign)))
    return CanonicalDecomposition(v=v, w=w, c=c, rho=rho, blocks=tuple(blocks))


def save_eigenvalues_csv(eigenvalues, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("eigenvalue\n")
        for lam in eigenvalues:
            fh.write(f"{float(lam)!r}\n")


def load_eigenvalues_csv(path: str) -> list[float]:
    lines = [ln.strip() for ln in _read_text(path).split("\n") if ln.strip()]
    if not lines or lines[0] != "eigenvalue":
        raise SerializationError(path, "header", "expected header line 'eigenvalue'")
    try:
        vals = [float(ln) for ln in lines[1:]]
    except ValueError as exc:
        raise SerializationError(path, "rows", f"non-numeric eigenvalue: {exc}") from exc
    bad = [x for x in vals if not math.isfinite(x)]
    if bad:
        raise SerializationError(path, "rows", f"non-finite eigenvalue {bad[0]!r}")
    return vals
