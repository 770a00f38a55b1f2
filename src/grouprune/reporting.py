"""CSV, histogram and table emitters.

One dialect everywhere: comma separator, '.' decimal point, a header row,
LF line endings. Floats are formatted with repr-level precision so that a
written file re-parses to the same values and identical runs produce
byte-identical output.
"""

from __future__ import annotations

import pathlib

import numpy as np


def format_value(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(format_value(x) for x in row))
    pathlib.Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_binary_matrix(path, corner: str, labels, matrix) -> None:
    """A labelled square 0/1 matrix as CSV: the bytes write_csv writes for
    the header [corner] + labels and the rows [labels[i]] + matrix[i].

    The cells are filled into one uint8 buffer of digits, commas and
    newlines and decoded once, not formatted one value at a time.
    """
    m = np.asarray(matrix)
    width = 2 * m.shape[1] + 1            # ",d" per cell, then "\n"
    buf = np.empty((m.shape[0], width), dtype=np.uint8)
    buf[:, 0:-1:2] = ord(",")
    buf[:, 1::2] = m + ord("0")
    buf[:, -1] = ord("\n")
    cells = buf.tobytes().decode("ascii")
    text = ",".join([corner, *labels]) + "\n" + "".join(
        label + cells[i * width:(i + 1) * width]
        for i, label in enumerate(labels))
    pathlib.Path(path).write_text(text, newline="\n")


def histogram(values, bins: int = 20, lo: float = 0.0, hi: float = 1.0):
    """Fixed-width histogram; returns (edges, counts) with counts summing
    to len(values). Values at or beyond hi land in the last bin."""
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        idx = int((v - lo) / width)
        idx = min(max(idx, 0), bins - 1)
        counts[idx] += 1
    return edges, counts


def emit_sparsity_histogram(trace, path, bins: int = 20) -> None:
    """Histogram of group-level sparsity in the final epoch of a training
    trace.

    Each trace epoch holds per-(group, index) importance values; indices
    are binned by importance normalized to the max within their group, so
    a fully zeroized group lands in the lowest bin.
    """
    last = trace[-1]
    values = []
    by_group: dict[str, list[float]] = {}
    for group_id, _k, imp in last["entries"]:
        by_group.setdefault(group_id, []).append(imp)
    for imps in by_group.values():
        top = max(imps)
        scale = top if top > 0 else 1.0
        values.extend(v / scale for v in imps)
    edges, counts = histogram(values, bins=bins)
    rows = [[last["epoch"], edges[i], edges[i + 1], count]
            for i, count in enumerate(counts)]
    write_csv(path, ["epoch", "bin_lo", "bin_hi", "count"], rows)


def emit_trace(trace, path) -> None:
    """Sparsity trace as CSV: one row per (epoch, group, index)."""
    header = ["epoch", "group", "k", "importance"]
    rows = []
    for epoch_entry in trace:
        for group_id, k, imp in epoch_entry["entries"]:
            rows.append([epoch_entry["epoch"], group_id, k, imp])
    write_csv(path, header, rows)


def emit_table(cells: dict, path, row_key: str = "row", col_keys=None) -> None:
    """Grid of cells keyed by (row, col); missing cells become "n/a"."""
    rows_names = sorted({r for r, _ in cells}) if cells else []
    cols_names = col_keys if col_keys is not None else sorted({c for _, c in cells})
    header = [row_key] + list(cols_names)
    rows = []
    for r in rows_names:
        rows.append([r] + [format_value(cells[(r, c)]) if (r, c) in cells else "n/a"
                           for c in cols_names])
    write_csv(path, header, rows)
