import numpy as np
import pytest

from sepdist import DimensionError, FileFormatError, TraceRecord, ValidationError, bell, css_max_entangled, fileio
from conftest import exact_decay_trace, random_density, rng_for, with_dims, with_entry


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
    assert records == trace


@pytest.mark.parametrize("d2", ["inf", "nan"])
def test_non_finite_trace_distance_is_a_format_error(d2):
    with pytest.raises(FileFormatError, match="line 2: d2 .* is not finite"):
        fileio.loads_trace(f"{fileio.TRACE_HEADER}\n7,1,{d2}\n14,2,0.25\n")


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
