"""File formats: JSON state files and trace CSVs.

A state file is a single JSON document::

    {"dims": [2, 2], "kind": "density", "matrix": [[[re, im], ...], ...]}

with optional ``name`` and ``metadata`` fields.  ``dims`` must be a
non-empty array of positive integers, and each matrix entry a ``[re, im]``
pair of JSON numbers.  ``kind: "density"`` enforces the full
density-matrix checks on load; ``kind: "operator"`` holds any square
matrix of the stated size (witness operators, and the per-party
unitaries of ``sepdist run --sym local:``).  Trace files are
CSV with the exact header ``c_t,c_s,d2``.  The counters ``c_t`` and ``c_s``
are decimal integers within int64 (an optional sign and ASCII digits);
``d2`` is a float written with ASCII digits, and one that is not finite
(``inf``, ``nan``) is a format error.  Blank lines are skipped, and the
body is parsed in one numpy call; a format error names the line of the
file, blank lines counted.  A trace is read as a numpy record array of
``gilbert.TRACE_DTYPE``, one row per record with the fields of
:class:`~sepdist.gilbert.TraceRecord` (``trials``, ``successes``, ``d2``
for the columns ``c_t``, ``c_s``, ``d2``), and written from that table or
from any sequence of ``(trials, successes, d2)`` rows, with the same bytes.
Floats are rendered with their shortest round-trip representation, so
write -> read -> write is byte-identical.  A file that is not UTF-8 text is
a format error.  Writers refuse what readers would refuse, as the reader
words it: a state file's fields (density checks run on load only), trace rows.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

import numpy as np

from .errors import FileFormatError, ValidationError
from .gilbert import TRACE_DTYPE, TraceRecord
from .linalg import DensityMatrix

TRACE_HEADER = "c_t,c_s,d2"
# The file's name for each field of TRACE_DTYPE, in order.
_TRACE_COLUMNS = TRACE_HEADER.split(",")

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


def _fields(dims, kind, matrix) -> tuple[tuple[int, ...], np.ndarray]:
    """``(dims, matrix())``, with ``dims``, ``kind`` and the matrix checked in that order, by reader and writer alike."""
    # Taken as written: no float, string, bool or object is a dimension (a numpy integer is, on write).
    integers = isinstance(dims, (list, tuple)) and all(type(d) is int or isinstance(d, np.integer) for d in dims)
    if not (integers and dims and min(dims) >= 1):
        raise FileFormatError(f"dims must be a JSON array of positive integers, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    if kind not in (KIND_DENSITY, KIND_OPERATOR):
        raise FileFormatError(f"unknown state-file kind {kind!r}")
    try:
        mat = matrix()
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise FileFormatError(f"malformed matrix payload: {exc}") from exc
    total = prod(dims)
    if mat.shape != (total, total):
        raise FileFormatError(f"matrix shape {mat.shape} does not match dims {dims}")
    return dims, mat


def dumps_state(
    mat: np.ndarray,
    dims: Sequence[int],
    kind: str = KIND_DENSITY,
    name: Optional[str] = None,
    metadata: Optional[dict] = None,
) -> str:
    dims, mat = _fields(dims, kind, lambda: np.asarray(mat, dtype=complex))
    doc: dict = {"dims": list(dims), "kind": kind}
    if name is not None:
        doc["name"] = name
    if metadata is not None:
        doc["metadata"] = metadata
    doc["matrix"] = [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]
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
    dims, mat = _fields(dims, kind, lambda: np.array([[_entry(entry) for entry in row] for row in rows]))
    return StateFile(dims, kind, mat, name=doc.get("name"), metadata=doc.get("metadata"))


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return fp.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8 text: {exc}") from exc


def read_state(path) -> StateFile:
    return loads_state(_read_text(path))


def dumps_trace(trace: Sequence[TraceRecord]) -> str:
    """The CSV text of ``trace``: a table of ``TRACE_DTYPE``, or a sequence of ``(trials, successes, d2)`` rows.

    A line the reader would refuse, such as a counter that is a bool, a float or
    beyond int64, or a d2 that is not finite, raises the reader's :class:`FileFormatError`.
    """
    table = isinstance(trace, np.ndarray) and trace.dtype == TRACE_DTYPE
    body = [f"{rec[0]},{rec[1]},{float(rec[2])!r}" for rec in (trace.tolist() if table else trace)]
    # A table's counters are int64 by its dtype, so only its d2 column is checked; a sequence's lines are parsed as read.
    if body and not (np.isfinite(trace["d2"]).all() if table else _table(body) is not None):
        k, reason = _first_error(body)
        raise FileFormatError(f"line {k + 2}: {reason}")
    if not (table or all(isinstance(c, (int, np.integer)) for rec in trace for c in (rec[0], rec[1]))):
        raise FileFormatError("trace counters must be Python or numpy integers")
    return "\n".join([TRACE_HEADER, *body]) + "\n"


def write_trace(path, trace: Sequence[TraceRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dumps_trace(trace))


def _table(lines: list[str], dtype: np.dtype = TRACE_DTYPE) -> Optional[np.ndarray]:
    """``lines`` parsed as CSV rows of ``dtype``; None if a row does not parse or has a non-finite d2."""
    with warnings.catch_warnings():
        # Older numpy reads a float such as 1.0 into an integer column with only a DeprecationWarning.
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    if dtype.names and not np.isfinite(table["d2"]).all():
        return None
    return table


def _first_error(body: list[str]) -> tuple[int, str]:
    """The index in ``body`` of the first line that :func:`_table` rejects, and why."""
    # Rows parse independently, so bisect: body[:lo] parses, body[lo:hi] does not.
    lo, hi = 0, len(body)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _table(body[lo:mid]) is None:
            hi = mid
        else:
            lo = mid
    fields = body[lo].split(",")
    if len(fields) != 3:
        return lo, f"expected 3 columns, got {len(fields)}"
    for name, column, field in zip(TRACE_DTYPE.names, _TRACE_COLUMNS, fields):
        if _table([field], TRACE_DTYPE[name]) is None:
            kind = "a number" if name == "d2" else "a decimal integer within int64"
            return lo, f"{column} {field.strip()!r} is not {kind}"
    return lo, f"d2 {fields[2].strip()!r} is not finite"


def loads_trace(text: str) -> np.recarray:
    """The trace in ``text`` as a record array of ``TRACE_DTYPE``, empty for a header-only file.

    Its rows are ``np.record`` objects with ``TraceRecord``'s fields, so
    ``rec.successes`` and ``rec[1]`` read a row and ``table["d2"]`` a column.
    Raises :class:`FileFormatError` naming the first bad line of the file.
    """
    lines = text.splitlines()
    kept = [ln for ln in lines if ln.strip()]
    if not kept or kept[0].strip() != TRACE_HEADER:
        raise FileFormatError(f"trace file must start with header {TRACE_HEADER!r}")
    body = kept[1:]
    if not body:  # loadtxt would warn that there is no data
        return np.recarray(0, dtype=TRACE_DTYPE)
    table = _table(body)
    if table is None:
        k, reason = _first_error(body)
        # Name the file's line: body[k] is the (k + 2)-th line that is not blank.
        line = [i for i, ln in enumerate(lines, start=1) if ln.strip()][k + 1]
        raise FileFormatError(f"line {line}: {reason}")
    return table.view(np.recarray)


def read_trace(path) -> np.recarray:
    """The trace file at ``path`` as :func:`loads_trace` reads its text: a record array of ``TRACE_DTYPE``."""
    return loads_trace(_read_text(path))
