"""CSV emitters: plain rows, labelled 0/1 matrices, and the training
trace with its final-epoch sparsity histogram.

One dialect everywhere: comma separator, '.' decimal point, a header row,
LF line endings. Floats are formatted with repr-level precision so that a
written file re-parses to the same values and identical runs produce
byte-identical output.

A training trace (sparse.train_sparse) is a list with one entry per
epoch, the list index being the epoch; each entry maps a group id to its
group_l2_importance array, indexed by canonical index.
"""

from __future__ import annotations

import pathlib

import numpy as np

HISTOGRAM_BINS = 20


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


def emit_sparsity_histogram(trace, path) -> None:
    """Histogram of group-level sparsity in the final epoch of a training
    trace, in HISTOGRAM_BINS bins of width 1 / HISTOGRAM_BINS over [0, 1].

    Each group's importance array is divided by its own max (an all-zero
    group by 1), so a fully zeroized group lands in the lowest bin and a
    group's max in the last one.
    """
    width = 1.0 / HISTOGRAM_BINS
    scaled = [imps / (top if (top := imps.max()) > 0 else 1.0)
              for imps in trace[-1].values()]
    bins = np.clip((np.concatenate([np.zeros(0), *scaled]) / width)
                   .astype(np.int64), 0, HISTOGRAM_BINS - 1)
    counts = np.bincount(bins, minlength=HISTOGRAM_BINS).tolist()
    rows = [[len(trace) - 1, i / HISTOGRAM_BINS, (i + 1) / HISTOGRAM_BINS, n]
            for i, n in enumerate(counts)]
    write_csv(path, ["epoch", "bin_lo", "bin_hi", "count"], rows)


def emit_trace(trace, path) -> None:
    """Sparsity trace as CSV: one row per (epoch, group, index)."""
    write_csv(path, ["epoch", "group", "k", "importance"],
              [[epoch, group_id, k, imp]
               for epoch, by_group in enumerate(trace)
               for group_id, imps in by_group.items()
               for k, imp in enumerate(imps)])
