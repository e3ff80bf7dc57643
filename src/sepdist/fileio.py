"""File formats: JSON state files, trace CSVs, report JSON.

A state file is a single JSON document::

    {"dims": [2, 2], "kind": "density", "matrix": [[[re, im], ...], ...]}

with optional ``name`` and ``metadata`` fields.  ``kind: "density"``
enforces the full density-matrix checks on load; ``kind: "operator"``
holds any square matrix of the stated size (witness operators, and the
per-party unitaries of ``sepdist run --sym local:``).  Trace files are
CSV with the exact header ``c_t,c_s,d2``; floats are rendered with
their shortest round-trip representation, so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

import numpy as np

from .analysis import ExtrapolationFit, PowerFit, Witness
from .errors import FileFormatError, ValidationError
from .gilbert import TraceRecord
from .linalg import DensityMatrix, assert_valid_density

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

    def to_density(self) -> DensityMatrix:
        if self.kind != KIND_DENSITY:
            raise ValidationError(f"state file holds kind {self.kind!r}, not a density matrix")
        rho = DensityMatrix(self.dims, self.mat)
        assert_valid_density(rho)
        return rho


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


def loads_state(text: str) -> StateFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("state file must be a JSON object")
    try:
        dims = tuple(int(d) for d in doc["dims"])
        kind = doc["kind"]
        rows = doc["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"missing or malformed state-file field: {exc}") from exc
    if kind not in (KIND_DENSITY, KIND_OPERATOR):
        raise FileFormatError(f"unknown state-file kind {kind!r}")
    total = prod(dims)
    try:
        mat = np.array([[complex(entry[0], entry[1]) for entry in row] for row in rows])
    except (TypeError, ValueError, IndexError) as exc:
        raise FileFormatError(f"malformed matrix payload: {exc}") from exc
    if mat.shape != (total, total):
        raise FileFormatError(f"matrix shape {mat.shape} does not match dims {dims}")
    if kind == KIND_DENSITY:
        rho = DensityMatrix(dims, mat)  # hermiticity/trace
        assert_valid_density(rho)  # positivity
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
            records.append(TraceRecord(int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise FileFormatError(f"line {i}: {exc}") from exc
    return records


def read_trace(path) -> list[TraceRecord]:
    with open(path, "r", encoding="utf-8") as fp:
        return loads_trace(fp.read())


def run_metadata(
    state_name: str,
    dims: Sequence[int],
    seed: int,
    halt: dict,
    final_d2: float,
    trials: int,
    successes: int,
    wall_seconds: float,
    *,
    mode: str,
    init: str,
    sym: Sequence[str],
    sym_cap: int,
) -> dict:
    """The ``meta.json`` document of a ``sepdist run``.

    Besides the outcome it records the settings the run depends on: the
    state, seed, sampler mode, initial state, symmetry generator specs and
    closure cap, and the halt criteria (by ``HaltCriteria`` field name).
    """
    return {
        "state": state_name,
        "dims": [int(d) for d in dims],
        "seed": int(seed),
        "mode": mode,
        "init": init,
        "sym": list(sym),
        "sym_cap": int(sym_cap),
        "halt": halt,
        "final_d2": float(final_d2),
        "c_t": int(trials),
        "c_s": int(successes),
        "wall_seconds": float(wall_seconds),
    }


def dumps_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def fit_report(ext: ExtrapolationFit, power: PowerFit) -> dict:
    return {
        "a": ext.a,
        "b": ext.b,
        "r": ext.r,
        "stride": ext.stride,
        "f": power.f,
        "r2": power.r2,
    }


def witness_report(witness: Witness) -> dict:
    return {
        "lambda": witness.sep_bound,
        "value_rho0": witness.target_value,
        "entangled": witness.entangled,
        "margin": witness.margin,
    }
