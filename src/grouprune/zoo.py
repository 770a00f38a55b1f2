"""Bundled models: the networks the ablation and the benchmark build.

A fully-connected chain (and the small one the spiral task trains) and a
residual CNN. They exist to be pruned, not to be accurate.
"""

from __future__ import annotations

import numpy as np

from .ir import (NetworkIR, activation, batchnorm, conv2d, eltwise, flatten,
                 init_weights, linear, pool)


def _finish(components, edges, input_shape, consumers, seed):
    ir = NetworkIR(components, edges, input_shape, consumers)
    init_weights(ir, np.random.default_rng(seed))
    return ir.check_valid()


def mlp(sizes, seed: int = 0) -> NetworkIR:
    """Fully-connected chain with relu activations between layers."""
    comps = []
    edges = []
    prev = None
    for i in range(len(sizes) - 1):
        fc = linear(f"fc{i + 1}", sizes[i], sizes[i + 1])
        comps.append(fc)
        if prev is not None:
            edges.append((prev, 0, fc.comp_id, 0))
        prev = fc.comp_id
        if i < len(sizes) - 2:
            act = activation(f"act{i + 1}", sizes[i + 1], "relu")
            comps.append(act)
            edges.append((prev, 0, act.comp_id, 0))
            prev = act.comp_id
    return _finish(comps, edges, (sizes[0],), [("fc1", 0)], seed)


def spiral_mlp(seed: int = 0) -> NetworkIR:
    return mlp([2, 32, 32, 2], seed=seed)


def residual_cnn(seed: int = 0) -> NetworkIR:
    """Stem conv, one residual block (conv1-bn1-act-conv2-bn2 + skip),
    head of pool/flatten/linear, on 1 x 8 x 8 images with 4 classes."""
    w = 16
    comps = [
        conv2d("stem", 1, w, kernel=3, padding=1),
        conv2d("conv1", w, w, kernel=3, padding=1),
        batchnorm("bn1", w),
        activation("act1", w, "relu"),
        conv2d("conv2", w, w, kernel=3, padding=1),
        batchnorm("bn2", w),
        eltwise("add", w, "add"),
        activation("act2", w, "relu"),
        pool("pool", w, kernel=2, op="avg"),
        flatten("flat", w, 4 * 4),   # the 8 x 8 map pooled to 4 x 4
        linear("head", w * 4 * 4, 4),
    ]
    edges = [
        ("stem", 0, "conv1", 0),
        ("conv1", 0, "bn1", 0), ("bn1", 0, "act1", 0),
        ("act1", 0, "conv2", 0), ("conv2", 0, "bn2", 0),
        ("bn2", 0, "add", 0), ("stem", 0, "add", 1),
        ("add", 0, "act2", 0), ("act2", 0, "pool", 0),
        ("pool", 0, "flat", 0), ("flat", 0, "head", 0),
    ]
    return _finish(comps, edges, (1, 8, 8), [("stem", 0)], seed)
