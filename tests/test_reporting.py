import math

import numpy as np

from grouprune import cli
from grouprune.reporting import (HISTOGRAM_BINS, emit_sparsity_histogram,
                                 emit_trace, format_value,
                                 write_binary_matrix, write_csv)

from reference import read_csv, reference_histogram


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


def _hist_counts(trace, path):
    emit_sparsity_histogram(trace, path)
    header, rows = read_csv(path)
    assert header == ["epoch", "bin_lo", "bin_hi", "count"]
    assert len(rows) == HISTOGRAM_BINS == 20
    return [int(r[3]) for r in rows]


def test_histogram_counts_sum(tmp_path):
    # one group whose max is 1.0, so its values are binned as they are
    trace = [{"g0": np.array([0.0, 0.025, 0.5, 0.96, 0.99, 1.0])}]
    emit_sparsity_histogram(trace, tmp_path / "h.csv")
    _h, rows = read_csv(tmp_path / "h.csv")
    counts = [int(r[3]) for r in rows]
    assert sum(counts) == 6
    edges = sorted({float(r[1]) for r in rows} | {float(r[2]) for r in rows})
    assert edges == [i / 20 for i in range(21)]
    assert counts[0] == 2     # 0.0 and 0.025
    assert counts[-1] == 3    # 0.96, 0.99 and the clipped 1.0


def test_sparsity_histogram_matches_reference_histogram(tmp_path):
    # every bin edge i/20, one ulp either side of it, 0.0 and 1.0; the
    # group's max is 1.0, so the values are binned as they are
    edges = [i / 20 for i in range(21)]
    values = [0.0, 1.0] + [x for e in edges for x in
                           (math.nextafter(e, -1.0), e, math.nextafter(e, 2.0))
                           if 0.0 <= x <= 1.0]
    trace = [{"zero": np.zeros(3)}, {"edges": np.array(values),
                                     "zero": np.zeros(3)}]
    counts = _hist_counts(trace, tmp_path / "h.csv")
    _edges, want = reference_histogram(values + [0.0] * 3, 20)
    assert counts == want
    _h, rows = read_csv(tmp_path / "h.csv")
    assert {r[0] for r in rows} == {"1"}   # the final epoch


def test_sparsity_histogram_single_group(tmp_path):
    trace = [{"g0": np.array([1.0, 1.0, 1.0])}]
    counts = _hist_counts(trace, tmp_path / "h.csv")
    assert sum(counts) == 3
    assert counts[-1] == 3    # everything at the group max


def test_sparsity_histogram_zeroized_group_lowest_bin(tmp_path):
    trace = [{"g0": np.array([0.0, 0.0]), "g1": np.array([5.0])}]
    counts = _hist_counts(trace, tmp_path / "h.csv")
    assert counts[0] == 2
    assert counts[-1] == 1    # g1 at its own max


def test_trace_round_trip(tmp_path):
    trace = [{"g0": np.array([0.25]), "g1": np.array([0.5, 0.0, 1.0, 1.75])},
             {"g0": np.array([0.125])}]
    emit_trace(trace, tmp_path / "t.csv")
    header, rows = read_csv(tmp_path / "t.csv")
    assert header == ["epoch", "group", "k", "importance"]
    assert rows[0] == ["0", "g0", "0", "0.25"]
    assert rows[4] == ["0", "g1", "3", "1.75"]
    assert rows[5] == ["1", "g0", "0", "0.125"]
    assert len(rows) == 6


def _ablation_table(monkeypatch, tmp_path, table, strategies, speedups,
                    modes):
    # cmd_ablate writes the table run_ablation returns; fix the table
    monkeypatch.setattr(cli, "run_ablation",
                        lambda *args: (dict(table), []))
    out = tmp_path / "o"
    rc = cli.main(["ablate", "--out", str(out), "--strategies", strategies,
                   "--speedups", speedups, "--modes", modes, "--seeds", "0"])
    assert rc == 0
    return read_csv(out / "ablation.csv")


def test_table_single_cell(monkeypatch, tmp_path):
    header, rows = _ablation_table(
        monkeypatch, tmp_path, {("full-grouping", "2x/uniform"): 0.91},
        "full-grouping", "2", "uniform")
    assert header == ["strategy", "2x/uniform"]
    assert rows == [["full-grouping", "0.91"]]


def test_table_grid_shape(monkeypatch, tmp_path):
    strategies = ("no-grouping", "full-grouping", "conv-only")
    cols = ["1.5x/uniform", "1.5x/learned", "2x/uniform", "2x/learned"]
    table = {(s, c): 0.5 for s in strategies for c in cols}
    header, rows = _ablation_table(monkeypatch, tmp_path, table,
                                   ",".join(strategies), "1.5,2",
                                   "uniform,learned")
    assert len(rows) == 3
    assert len(header) == 5
    assert header == ["strategy", *cols]
    assert [r[0] for r in rows] == sorted(strategies)
    assert all(r[1:] == ["0.5"] * 4 for r in rows)


def test_binary_matrix_matches_write_csv(tmp_path):
    m = np.random.default_rng(0).integers(0, 2, size=(7, 7), dtype=np.int8)
    labels = [f"c{i}:out" for i in range(7)]
    write_binary_matrix(tmp_path / "fast.csv", "half", labels, m)
    write_csv(tmp_path / "slow.csv", ["half"] + labels,
              [[label] + m[i].tolist() for i, label in enumerate(labels)])
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "slow.csv").read_bytes()
