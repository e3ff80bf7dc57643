"""File formats: JSON state files and trace CSVs.

A state file is a single JSON document::

    {"dims": [2, 2], "kind": "density", "matrix": [[[re, im], ...], ...]}

with optional ``name`` and ``metadata`` fields.  ``dims`` must be a
non-empty array of positive integers, and each matrix entry a ``[re, im]``
pair of JSON numbers.  ``kind: "density"`` enforces the full
density-matrix checks on load; ``kind: "operator"`` holds any square
matrix of the stated size (witness operators, and the per-party
unitaries of ``sepdist run --sym local:``).  Trace files are
CSV with the exact header ``c_t,c_s,d2``; a ``d2`` that is not finite
(``inf``, ``nan``) is a format error.  Floats are rendered with their
shortest round-trip representation, so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite, prod
from typing import Optional, Sequence

import numpy as np

from .errors import FileFormatError, ValidationError
from .gilbert import TraceRecord
from .linalg import DensityMatrix

TRACE_HEADER = "c_t,c_s,d2"

KIND_DENSITY = "density"
KIND_OPERATOR = "operator"


@dataclass(frozen=True)
class StateFile:
    """Parsed contents of a state file."""

    dims: tuple[int, ...]
    kind: str
    mat: np.ndarray
    name: Optional[str] = None
    metadata: Optional[dict] = None

    def __post_init__(self):
        # A density payload is checked once, here (raises unless it is a valid state).
        if self.kind == KIND_DENSITY:
            object.__setattr__(self, "_density", DensityMatrix(self.dims, self.mat))

    def to_density(self) -> DensityMatrix:
        if self.kind != KIND_DENSITY:
            raise ValidationError(f"state file holds kind {self.kind!r}, not a density matrix")
        return self._density


def _matrix_payload(mat: np.ndarray) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def dumps_state(
    mat: np.ndarray,
    dims: Sequence[int],
    kind: str = KIND_DENSITY,
    name: Optional[str] = None,
    metadata: Optional[dict] = None,
) -> str:
    doc: dict = {"dims": [int(d) for d in dims], "kind": kind}
    if name is not None:
        doc["name"] = name
    if metadata is not None:
        doc["metadata"] = metadata
    doc["matrix"] = _matrix_payload(np.asarray(mat, dtype=complex))
    return json.dumps(doc, indent=2) + "\n"


def write_state(path, mat, dims, kind: str = KIND_DENSITY, name=None, metadata=None) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dumps_state(mat, dims, kind=kind, name=name, metadata=metadata))


def write_density(path, rho: DensityMatrix, name=None, metadata=None) -> None:
    write_state(path, rho.mat, rho.dims, kind=KIND_DENSITY, name=name, metadata=metadata)


def _entry(pair) -> complex:
    # Taken as written: no object, bool or third number is read as an entry.
    if not (type(pair) is list and len(pair) == 2 and all(type(x) in (int, float) for x in pair)):
        raise ValueError(f"entry {pair!r} is not a [re, im] pair of numbers")
    return complex(pair[0], pair[1])


def loads_state(text: str) -> StateFile:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer of too many digits, or nesting too deep
        raise FileFormatError(f"cannot parse JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("state file must be a JSON object")
    try:
        dims = doc["dims"]
        kind = doc["kind"]
        rows = doc["matrix"]
    except KeyError as exc:
        raise FileFormatError(f"missing state-file field: {exc}") from exc
    # Taken as written: no float, string, bool or object is read as a dimension.
    if not (isinstance(dims, list) and dims and all(type(d) is int and d >= 1 for d in dims)):
        raise FileFormatError(f"dims must be a JSON array of positive integers, got {dims!r}")
    dims = tuple(dims)
    if kind not in (KIND_DENSITY, KIND_OPERATOR):
        raise FileFormatError(f"unknown state-file kind {kind!r}")
    total = prod(dims)
    try:
        mat = np.array([[_entry(entry) for entry in row] for row in rows])
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise FileFormatError(f"malformed matrix payload: {exc}") from exc
    if mat.shape != (total, total):
        raise FileFormatError(f"matrix shape {mat.shape} does not match dims {dims}")
    return StateFile(
        dims=dims,
        kind=kind,
        mat=mat,
        name=doc.get("name"),
        metadata=doc.get("metadata"),
    )


def read_state(path) -> StateFile:
    with open(path, "r", encoding="utf-8") as fp:
        return loads_state(fp.read())


def dumps_trace(trace: Sequence[TraceRecord]) -> str:
    lines = [TRACE_HEADER]
    for rec in trace:
        lines.append(f"{int(rec[0])},{int(rec[1])},{float(rec[2])!r}")
    return "\n".join(lines) + "\n"


def write_trace(path, trace: Sequence[TraceRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dumps_trace(trace))


def loads_trace(text: str) -> list[TraceRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise FileFormatError(f"trace file must start with header {TRACE_HEADER!r}")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise FileFormatError(f"line {i}: expected 3 columns, got {len(parts)}")
        try:
            record = TraceRecord(int(parts[0]), int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise FileFormatError(f"line {i}: {exc}") from exc
        if not isfinite(record.d2):
            raise FileFormatError(f"line {i}: d2 {parts[2].strip()!r} is not finite")
        records.append(record)
    return records


def read_trace(path) -> list[TraceRecord]:
    with open(path, "r", encoding="utf-8") as fp:
        return loads_trace(fp.read())
