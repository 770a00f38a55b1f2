"""Synthetic datasets.

Everything the training and ablation code needs is generated from a seed:
a two-class spiral for MLPs and small procedural shape images for CNNs.
No files, no downloads.
"""

from __future__ import annotations

import numpy as np


def spiral(n_per_class: int, seed: int):
    """Two interleaved 2-D spirals, one arm per class."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(2):
        t = np.linspace(0.25, 1.0, n_per_class)
        angle = 2.5 * np.pi * t + np.pi * c
        r = t
        pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
        pts += rng.normal(0, 0.15 * t[:, None], pts.shape)
        xs.append(pts)
        ys.append(np.full(n_per_class, c))
    x = np.concatenate(xs).astype(np.float32)
    y = np.concatenate(ys).astype(np.int64)
    order = rng.permutation(len(x))
    return x[order], y[order]


def _square(rng, img, size):
    s = rng.integers(3, 6)
    r = rng.integers(0, size - s + 1)
    c = rng.integers(0, size - s + 1)
    img[r:r + s, c:c + s] = 1.0


def _disk(rng, img, size):
    radius = rng.uniform(1.8, 2.8)
    cy, cx = rng.uniform(radius, size - 1 - radius, 2)
    yy, xx = np.mgrid[0:size, 0:size]
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2] = 1.0


def _cross(rng, img, size):
    cy = rng.integers(2, size - 2)
    cx = rng.integers(2, size - 2)
    img[cy - 1:cy + 2, :] = 0.4
    img[:, cx - 1:cx + 2] = 0.4
    img[cy, :] = 1.0
    img[:, cx] = 1.0


def _stripes(rng, img, size):
    phase = rng.integers(0, 3)
    sign = 1 if rng.random() < 0.5 else -1
    yy, xx = np.mgrid[0:size, 0:size]
    img[(yy + sign * xx) % 3 == phase] = 1.0


_MAKERS = (_square, _disk, _cross, _stripes)


def shapes(n: int, seed: int):
    """Four-class shape images: square, disk, cross, diagonal stripes.

    Returns x of shape (n, 1, 8, 8) float32 and int64 labels.
    """
    size = 8
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 1, size, size), dtype=np.float32)
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        c = int(rng.integers(0, len(_MAKERS)))
        img = np.zeros((size, size), dtype=np.float32)
        _MAKERS[c](rng, img, size)
        img += rng.normal(0, 0.25, img.shape).astype(np.float32)
        x[i, 0] = img
        y[i] = c
    return x, y


def train_test_split(x, y, seed: int):
    """A random quarter of the samples for test, the rest for training."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    n_test = int(len(x) * 0.25)
    test, train = order[:n_test], order[n_test:]
    return (x[train], y[train]), (x[test], y[test])
