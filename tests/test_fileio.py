import numpy as np

from sepdist import TraceRecord, bell, css_max_entangled, fileio
from conftest import exact_decay_trace, random_density, rng_for


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
