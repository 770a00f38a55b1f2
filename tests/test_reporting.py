import pytest

from grouprune.reporting import (emit_sparsity_histogram, emit_table,
                                 emit_trace, format_value, histogram,
                                 read_csv, write_csv)


def test_csv_round_trip(tmp_path):
    header = ["name", "value"]
    rows = [["a", 1.5], ["b", 0.1], ["c", 123456789.0], ["d", 3e-9]]
    write_csv(tmp_path / "t.csv", header, rows)
    h2, r2 = read_csv(tmp_path / "t.csv")
    assert h2 == header
    for (name, val), parsed in zip(rows, r2):
        assert parsed[0] == name
        assert float(parsed[1]) == val


def test_csv_dialect(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], [[0.5, 1]])
    raw = (tmp_path / "t.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.decode().splitlines()[0] == "a,b"


def test_format_value_uses_dot_decimal():
    assert format_value(0.5) == "0.5"
    assert format_value(2) == "2"


def test_histogram_counts_sum():
    edges, counts = histogram([0.0, 0.05, 0.5, 0.99, 1.0, 2.0], bins=10)
    assert sum(counts) == 6
    assert len(edges) == 11
    assert counts[0] == 2     # 0.0 and 0.05
    assert counts[-1] == 3    # 0.99 plus the clipped 1.0 and 2.0


def _trace(entries_by_epoch):
    return [{"epoch": e, "entries": entries}
            for e, entries in enumerate(entries_by_epoch)]


def test_sparsity_histogram_single_group(tmp_path):
    trace = _trace([[("g0", 0, 1.0), ("g0", 1, 1.0), ("g0", 2, 1.0)]])
    emit_sparsity_histogram(trace, tmp_path / "h.csv", bins=4)
    _h, rows = read_csv(tmp_path / "h.csv")
    counts = [int(r[3]) for r in rows]
    assert sum(counts) == 3
    assert counts[-1] == 3    # everything at the group max


def test_sparsity_histogram_zeroized_group_lowest_bin(tmp_path):
    trace = _trace([[("g0", 0, 0.0), ("g0", 1, 0.0), ("g1", 0, 5.0)]])
    emit_sparsity_histogram(trace, tmp_path / "h.csv", bins=4)
    _h, rows = read_csv(tmp_path / "h.csv")
    counts = [int(r[3]) for r in rows]
    assert counts[0] == 2


def test_sparsity_histogram_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        emit_sparsity_histogram([], "unused.csv")


def test_trace_round_trip(tmp_path):
    trace = _trace([[("g0", 0, 0.25), ("g1", 3, 1.75)]])
    emit_trace(trace, tmp_path / "t.csv")
    header, rows = read_csv(tmp_path / "t.csv")
    assert header == ["epoch", "group", "k", "importance"]
    assert rows[0] == ["0", "g0", "0", "0.25"]
    assert rows[1] == ["0", "g1", "3", "1.75"]


def test_table_single_cell(tmp_path):
    emit_table({("full", "2x"): 0.91}, tmp_path / "t.csv", row_key="strategy")
    header, rows = read_csv(tmp_path / "t.csv")
    assert header == ["strategy", "2x"]
    assert rows == [["full", "0.91"]]


def test_table_missing_cells_are_na(tmp_path):
    cells = {("a", "c1"): 1.0, ("b", "c2"): 2.0}
    emit_table(cells, tmp_path / "t.csv")
    _h, rows = read_csv(tmp_path / "t.csv")
    assert rows[0] == ["a", "1", "n/a"]
    assert rows[1] == ["b", "n/a", "2"]


def test_table_grid_shape(tmp_path):
    cells = {(s, c): 0.5 for s in ("full", "conv", "none")
             for c in ("1.5x/u", "1.5x/l", "2x/u", "2x/l")}
    emit_table(cells, tmp_path / "t.csv",
               col_keys=["1.5x/u", "1.5x/l", "2x/u", "2x/l"])
    header, rows = read_csv(tmp_path / "t.csv")
    assert len(rows) == 3
    assert len(header) == 5
