import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdist import (
    DimensionError,
    FileFormatError,
    ParameterError,
    TraceRecord,
    ValidationError,
    bell,
    css_max_entangled,
    fileio,
    fit_power,
)
from sepdist.gilbert import TRACE_DTYPE
from conftest import exact_decay_trace, random_density, reference_loads_trace, rng_for, with_dims, with_entry

RECORDED_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
HEADER = fileio.TRACE_HEADER
INT64_MAX = 2**63 - 1


def test_trace_csv_round_trip_is_byte_identical(tmp_path):
    trace = exact_decay_trace(0.002, 8.0, n=200) + [
        TraceRecord(10_000, 201, 0.1 + 0.2),
        TraceRecord(10_001, 202, 1.0 / 3.0),
        TraceRecord(10_002, 203, 5e-324),
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    fileio.write_trace(first, trace)
    records = fileio.read_trace(first)
    fileio.write_trace(second, records)
    assert second.read_bytes() == first.read_bytes()
    assert records.tolist() == trace


@pytest.mark.parametrize("name", ["bell_trace.csv", "ghz3_trace.csv"])
def test_table_and_record_list_write_the_same_bytes(name, tmp_path):
    text = (RECORDED_INPUTS / name).read_text(encoding="utf-8")
    fileio.write_trace(tmp_path / "table.csv", fileio.loads_trace(text))
    fileio.write_trace(tmp_path / "list.csv", reference_loads_trace(text))
    recorded = (RECORDED_INPUTS / name).read_bytes()
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "list.csv").read_bytes() == recorded


def test_header_only_trace_round_trips_and_does_not_fit(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text(f"{HEADER}\n\n", encoding="utf-8")
    table = fileio.read_trace(first)
    assert len(table) == 0 and table.dtype == TRACE_DTYPE
    fileio.write_trace(second, table)
    assert second.read_text(encoding="utf-8") == f"{HEADER}\n"
    expected = str(pytest.raises(ParameterError, fit_power, []).value)
    assert expected == "need at least 10 trace points, got 0"
    assert str(pytest.raises(ParameterError, fit_power, table).value) == expected


@pytest.mark.parametrize("d2", ["inf", "nan"])
def test_non_finite_trace_distance_is_a_format_error(d2):
    with pytest.raises(FileFormatError, match="line 2: d2 .* is not finite"):
        fileio.loads_trace(f"{fileio.TRACE_HEADER}\n7,1,{d2}\n14,2,0.25\n")


def assert_same_records(text):
    records = fileio.loads_trace(text)
    assert isinstance(records, np.recarray) and records.dtype == TRACE_DTYPE
    rows = records.tolist()
    assert rows == reference_loads_trace(text)
    for rec, row in zip(records, rows):
        assert (rec.trials, rec.successes, rec.d2) == row
        assert (type(row[0]), type(row[1]), type(row[2])) == (int, int, float)
    return rows


def error_line(parse, text):
    with pytest.raises(FileFormatError) as info:
        parse(text)
    return int(re.match(r"line (\d+): ", str(info.value)).group(1)), str(info.value)


@pytest.mark.parametrize("name", ["bell_trace.csv", "ghz3_trace.csv"])
def test_recorded_traces_read_as_the_reference_reads_them(name):
    assert len(assert_same_records((RECORDED_INPUTS / name).read_text(encoding="utf-8"))) > 2000


@pytest.mark.parametrize(
    "trace",
    [exact_decay_trace(0.002, 8.0), exact_decay_trace(0.01, 3.0, n=500, trial_step=3), exact_decay_trace(0.0, 1.0, n=10)],
    ids=["b8", "b3", "zero-limit"],
)
def test_exact_decay_traces_read_as_the_reference_reads_them(trace):
    assert assert_same_records(fileio.dumps_trace(trace)) == trace


@pytest.mark.parametrize(
    "text",
    [
        f"{HEADER}\n7,1,0.5\n\n   \n\t\n14,2,0.25\n\n",
        f"{HEADER}\r\n7,1,0.5\r\n14,2,0.25\r\n",
        f"  {HEADER} \n 7 ,  1,0.5  \n\t14\t,2 , 0.25\n",
        f"{HEADER}\n+7,+1,+0.5\n-3,-4,-0.25\n",
        f"{HEADER}\n7,1,5e-324\n14,2,{0.1 + 0.2!r}\n21,3,1E-3\n28,4,.5\n35,5,5.\n",
        f"{HEADER}\n{INT64_MAX},{-INT64_MAX - 1},0.5\n",
        f"{HEADER}\n",
        f"{HEADER}\n\n  \n",
    ],
    ids=["blank-lines", "crlf", "padded", "signs", "floats", "int64-bounds", "header-only", "header-and-blanks"],
)
def test_valid_text_reads_as_the_reference_reads_it(text):
    # header-only: loadtxt warns on no data, and warnings are errors in this suite
    assert_same_records(text)


NOT_A_COUNTER = "is not a decimal integer within int64"


@pytest.mark.parametrize(
    "line, reason",
    [
        ("14,2", "expected 3 columns, got 2"),
        ("14,2,0.25,1", "expected 3 columns, got 4"),
        ("14,2,0.25,", "expected 3 columns, got 4"),
        ("1.5,2,0.25", f"c_t '1.5' {NOT_A_COUNTER}"),
        ("14,1.5,0.25", f"c_s '1.5' {NOT_A_COUNTER}"),
        ("14,,0.25", f"c_s '' {NOT_A_COUNTER}"),
        ("14,2,x", "d2 'x' is not a number"),
        ("14,2,", "d2 '' is not a number"),
        ("14,2,inf", "d2 'inf' is not finite"),
        ("14,2,nan", "d2 'nan' is not finite"),
        ("14,2, -inf", "d2 '-inf' is not finite"),
        ("14,2,1e400", "d2 '1e400' is not finite"),
    ],
    ids=["2-columns", "4-columns", "trailing-comma", "float-c_t", "float-c_s", "empty-c_s", "word-d2", "empty-d2", "inf", "nan", "-inf", "overflow"],
)
@pytest.mark.parametrize("where", [0, 3, 40])
def test_malformed_line_fails_on_the_line_the_reference_names(line, reason, where):
    good = [f"{7 * k},{k},{1.0 / k!r}" for k in range(1, 60)]
    # A blank line before the bad one: the error names the file's line, blank lines counted.
    text = "\n".join([HEADER, *good[:where], "", line, *good[where:]]) + "\n"
    expected = f"line {where + 3}: {reason}"
    assert text.splitlines()[where + 2] == line
    assert error_line(fileio.loads_trace, text) == (where + 3, expected)
    reference_line, reference_message = error_line(reference_loads_trace, text)
    assert reference_line == where + 3
    if "columns" in reason or "finite" in reason:  # these two keep the reference's wording
        assert reference_message == expected


def test_named_line_counts_blank_and_whitespace_lines():
    text = f"\n{HEADER}\r\n \r\n7,1,0.5\r\n\t\r\n\r\n14,2\r\n21,3,0.25\r\n"
    assert error_line(fileio.loads_trace, text) == (7, "line 7: expected 3 columns, got 2")
    assert error_line(reference_loads_trace, text) == (7, "line 7: expected 3 columns, got 2")


def test_first_of_two_bad_lines_is_named():
    text = f"{HEADER}\n7,1,0.5\n14,2,nan\n21,3\n"
    assert str(pytest.raises(FileFormatError, fileio.loads_trace, text).value) == "line 3: d2 'nan' is not finite"
    text = f"{HEADER}\n7,1,0.5\n14,2\n21,3,nan\n"
    assert str(pytest.raises(FileFormatError, fileio.loads_trace, text).value) == "line 3: expected 3 columns, got 2"


def test_bad_last_line_of_a_long_trace_is_named():
    text = fileio.dumps_trace(exact_decay_trace(0.002, 8.0, n=20_000)) + "1,2,x\n"
    assert error_line(fileio.loads_trace, text) == (20_002, "line 20002: d2 'x' is not a number")


@pytest.mark.parametrize(
    "counter, shown",
    [
        (str(INT64_MAX + 1), repr(str(INT64_MAX + 1))),
        ("99999999999999999999", "'99999999999999999999'"),
        (str(-INT64_MAX - 2), repr(str(-INT64_MAX - 2))),
        ("1_000", "'1_000'"),
        ("\u0661", "'\u0661'"),
    ],
    ids=["int64-max-plus-one", "twenty-nines", "int64-min-minus-one", "underscore", "arabic-indic-one"],
)
@pytest.mark.parametrize("column", ["c_t", "c_s"])
def test_counter_python_reads_but_int64_does_not_is_a_format_error(counter, shown, column):
    # Python's int read each of these; the format now takes decimal ASCII integers within int64.
    fields = {"c_t": "7", "c_s": "1", column: counter}
    text = f"{HEADER}\n{fields['c_t']},{fields['c_s']},0.5\n"
    reference_loads_trace(text)
    with pytest.raises(FileFormatError, match=re.escape(f"line 2: {column} {shown} is not a decimal integer within int64")):
        fileio.loads_trace(text)


@pytest.mark.parametrize("d2", ["1_0.5", "\u0661.\u0665"], ids=["underscore", "arabic-indic-digits"])
def test_distance_python_reads_but_numpy_does_not_is_a_format_error(d2):
    text = f"{HEADER}\n7,1,{d2}\n"
    reference_loads_trace(text)
    with pytest.raises(FileFormatError, match=re.escape(f"line 2: d2 {d2!r} is not a number")):
        fileio.loads_trace(text)


def test_trace_file_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xff" + HEADER.encode() + b"\n7,1,0.5\n")
    with pytest.raises(FileFormatError, match="not UTF-8 text"):
        fileio.read_trace(path)


def test_state_file_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b"\xff" + fileio.dumps_state(bell().mat, (2, 2)).encode())
    with pytest.raises(FileFormatError, match="not UTF-8 text"):
        fileio.read_state(path)


counters = st.integers(min_value=-(2**63), max_value=INT64_MAX)
distances = st.floats(allow_nan=False, allow_infinity=False)
padding = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def trace_texts(draw):
    rows = draw(st.lists(st.tuples(counters, counters, distances, padding, padding), max_size=30))
    lines = [HEADER]
    for c_t, c_s, d2, left, right in rows:
        lines.append(f"{left}{c_t}{right},{c_s},{left}{d2!r}{right}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t  "])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(trace_texts())
def test_generated_traces_read_as_the_reference_reads_them(text):
    assert_same_records(text)


@settings(max_examples=200, deadline=None)
@given(trace_texts(), st.data())
def test_generated_bad_line_is_named_as_the_reference_names_it(text, data):
    lines = text.split("\n")
    at = data.draw(st.integers(min_value=1, max_value=len(lines) - 1))
    bad = data.draw(st.sampled_from(["1,2", "1,2,3,4", "1.5,2,0.5", "1,2,x", "1,2,inf", "1,2,nan", "1,2,"]))
    text = "\n".join([*lines[:at], bad, *lines[at:]])
    assert error_line(fileio.loads_trace, text)[0] == error_line(reference_loads_trace, text)[0]


def test_state_round_trip_is_text_identical():
    rho = random_density((2, 3), rng_for(11))
    operator = bell().mat - css_max_entangled(2).mat
    cases = [
        (rho.mat, rho.dims, fileio.KIND_DENSITY, "random", {"seed": 11}),
        (operator, (2, 2), fileio.KIND_OPERATOR, None, None),
        (np.diag([1, 1j]), (2,), fileio.KIND_OPERATOR, "phase gate (not Hermitian)", None),
    ]
    for mat, dims, kind, name, metadata in cases:
        text = fileio.dumps_state(mat, dims, kind=kind, name=name, metadata=metadata)
        sf = fileio.loads_state(text)
        assert fileio.dumps_state(sf.mat, sf.dims, kind=sf.kind, name=sf.name, metadata=sf.metadata) == text
        assert np.array_equal(sf.mat, mat)


def test_invalid_density_payload_is_rejected_on_load():
    text = fileio.dumps_state(np.diag([0.7, 0.5, -0.1, -0.1]), (2, 2))
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        fileio.loads_state(text)


@pytest.mark.parametrize(
    "dims, kind",
    [
        ([2.7, 2.2], fileio.KIND_DENSITY),
        (["2", "2"], fileio.KIND_DENSITY),
        ("22", fileio.KIND_DENSITY),
        ({"2": None, "02": None}, fileio.KIND_DENSITY),
        ([True, 4], fileio.KIND_DENSITY),
        ([-2, -2], fileio.KIND_OPERATOR),
        ([], fileio.KIND_OPERATOR),
    ],
    ids=["floats", "strings", "string", "object", "bool", "negative-operator", "empty-operator"],
)
def test_dims_that_are_not_positive_integers_are_a_format_error(dims, kind):
    # each read as a valid (2, 2), (1, 4) or (-2, -2) before
    with pytest.raises(FileFormatError, match="dims must be a JSON array of positive integers"):
        fileio.loads_state(with_dims(dims, kind=kind))


def test_unit_dimension_reaches_the_density_check():
    with pytest.raises(DimensionError, match="must all be >= 2"):
        fileio.loads_state(with_dims([1, 4]))


@pytest.mark.parametrize(
    "entry",
    [{"0": 1, "1": 0}, [10**400, 0], [0, 0, 9], [True, False]],
    ids=["object", "beyond-float-range", "three-numbers", "bools"],
)
def test_matrix_entry_that_is_not_a_pair_of_numbers_is_a_format_error(entry):
    # a KeyError, an OverflowError, a dropped third number and a read of 1 before
    with pytest.raises(FileFormatError, match="malformed matrix payload"):
        fileio.loads_state(with_entry(entry))


def test_signed_zero_entries_survive():
    entry = fileio.loads_state(with_entry([-0.0, -0.0])).mat[0, 0]
    assert np.signbit(entry.real) and np.signbit(entry.imag)


@pytest.mark.parametrize(
    "text",
    ['{"dims": [' + "1" * 5000 + "]}", "[" * 100_000 + "]" * 100_000],
    ids=["integer-too-long", "nested-too-deep"],
)
def test_json_the_parser_cannot_hold_is_a_format_error(text):
    # a ValueError and a RecursionError before
    with pytest.raises(FileFormatError, match="cannot parse JSON"):
        fileio.loads_state(text)
