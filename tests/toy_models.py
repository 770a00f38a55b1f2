"""Hand-wired test networks.

Together with the bundled `grouprune.zoo` models they cover the coupling
patterns the analysis has to get right: plain chains, a residual block,
concatenated branches, a split, and depthwise/grouped convolutions.
BUNDLED names all eight; tests parametrize over it.
"""

from __future__ import annotations

from grouprune.ir import (Component, NetworkIR, activation, batchnorm, conv2d,
                          eltwise, flatten, linear, pool)
from grouprune.zoo import _finish, residual_cnn, spiral_mlp


# Builders of the two kinds that only test networks use.


def concat(comp_id: str, sizes: list[int]) -> Component:
    return Component(comp_id, "concat", {"sizes": list(sizes)})


def split(comp_id: str, sizes: list[int]) -> Component:
    return Component(comp_id, "split", {"sizes": list(sizes)})


def two_layer_mlp(in_features: int = 16, hidden: int = 32,
                  out_features: int = 10, seed: int = 0) -> NetworkIR:
    """fc1 -> fc2; the middle group is {fc1 rows, fc2 columns}."""
    comps = [linear("fc1", in_features, hidden),
             linear("fc2", hidden, out_features)]
    edges = [("fc1", 0, "fc2", 0)]
    return _finish(comps, edges, (in_features,), [("fc1", 0)], seed)


def fig_block(channels: int = 8, image: int = 8, seed: int = 0) -> NetworkIR:
    """Standalone residual block: conv1 -> bn1 -> conv2 -> bn2, plus a
    skip from the raw input into the add. Five components total."""
    c = channels
    comps = [
        conv2d("conv1", c, c, kernel=3, padding=1),
        batchnorm("bn1", c),
        conv2d("conv2", c, c, kernel=3, padding=1),
        batchnorm("bn2", c),
        eltwise("add", c, "add"),
    ]
    edges = [("conv1", 0, "bn1", 0), ("bn1", 0, "conv2", 0),
             ("conv2", 0, "bn2", 0), ("bn2", 0, "add", 0)]
    consumers = [("conv1", 0), ("add", 1)]
    return _finish(comps, edges, (c, image, image), consumers, seed)


def concat_cnn(in_channels: int = 1, width_a: int = 8, width_b: int = 8,
               classes: int = 4, image: int = 8, seed: int = 0) -> NetworkIR:
    """Two conv branches concatenated then consumed; the concat group
    spans both producers at different offsets."""
    total = width_a + width_b
    comps = [
        conv2d("stem", in_channels, 8, kernel=3, padding=1),
        activation("act0", 8, "relu"),
        conv2d("branch_a", 8, width_a, kernel=3, padding=1),
        conv2d("branch_b", 8, width_b, kernel=3, padding=1),
        concat("cat", [width_a, width_b]),
        batchnorm("bn", total),
        activation("act1", total, "relu"),
        pool("pool", total, kernel=2, op="avg"),
        flatten("flat", total, (image // 2) ** 2),
        linear("head", total * (image // 2) ** 2, classes),
    ]
    edges = [
        ("stem", 0, "act0", 0),
        ("act0", 0, "branch_a", 0), ("act0", 0, "branch_b", 0),
        ("branch_a", 0, "cat", 0), ("branch_b", 0, "cat", 1),
        ("cat", 0, "bn", 0), ("bn", 0, "act1", 0),
        ("act1", 0, "pool", 0), ("pool", 0, "flat", 0),
        ("flat", 0, "head", 0),
    ]
    return _finish(comps, edges, (in_channels, image, image), [("stem", 0)], seed)


def depthwise_cnn(in_channels: int = 1, width: int = 16, classes: int = 4,
                  image: int = 8, seed: int = 0) -> NetworkIR:
    """Stem, depthwise conv (groups == channels), pointwise conv, head.
    The depthwise conv couples its own input and output channels."""
    w = width
    comps = [
        conv2d("stem", in_channels, w, kernel=3, padding=1),
        batchnorm("bn1", w),
        activation("act1", w, "relu"),
        conv2d("dw", w, w, kernel=3, padding=1, groups=w),
        batchnorm("bn2", w),
        activation("act2", w, "relu"),
        conv2d("pw", w, 2 * w, kernel=1),
        batchnorm("bn3", 2 * w),
        activation("act3", 2 * w, "relu"),
        pool("pool", 2 * w, kernel=2, op="avg"),
        flatten("flat", 2 * w, (image // 2) ** 2),
        linear("head", 2 * w * (image // 2) ** 2, classes),
    ]
    edges = [
        ("stem", 0, "bn1", 0), ("bn1", 0, "act1", 0), ("act1", 0, "dw", 0),
        ("dw", 0, "bn2", 0), ("bn2", 0, "act2", 0), ("act2", 0, "pw", 0),
        ("pw", 0, "bn3", 0), ("bn3", 0, "act3", 0), ("act3", 0, "pool", 0),
        ("pool", 0, "flat", 0), ("flat", 0, "head", 0),
    ]
    return _finish(comps, edges, (in_channels, image, image), [("stem", 0)], seed)


def grouped_cnn(in_channels: int = 1, width: int = 16, groups: int = 4,
                classes: int = 4, image: int = 8, seed: int = 0) -> NetworkIR:
    """Conv with 1 < groups < channels; prunable only in whole channel
    groups of width/groups."""
    w = width
    comps = [
        conv2d("stem", in_channels, w, kernel=3, padding=1),
        activation("act1", w, "relu"),
        conv2d("gconv", w, w, kernel=3, padding=1, groups=groups),
        batchnorm("bn", w),
        activation("act2", w, "relu"),
        pool("pool", w, kernel=2, op="avg"),
        flatten("flat", w, (image // 2) ** 2),
        linear("head", w * (image // 2) ** 2, classes),
    ]
    edges = [
        ("stem", 0, "act1", 0), ("act1", 0, "gconv", 0),
        ("gconv", 0, "bn", 0), ("bn", 0, "act2", 0), ("act2", 0, "pool", 0),
        ("pool", 0, "flat", 0), ("flat", 0, "head", 0),
    ]
    return _finish(comps, edges, (in_channels, image, image), [("stem", 0)], seed)


def split_cnn(in_channels: int = 1, classes: int = 4, image: int = 8,
              seed: int = 0) -> NetworkIR:
    """Split feeding two consumers, merged back by concat."""
    comps = [
        conv2d("stem", in_channels, 12, kernel=3, padding=1),
        split("sp", [4, 8]),
        conv2d("left", 4, 6, kernel=3, padding=1),
        conv2d("right", 8, 6, kernel=1),
        concat("cat", [6, 6]),
        activation("act", 12, "relu"),
        pool("pool", 12, kernel=2, op="avg"),
        flatten("flat", 12, (image // 2) ** 2),
        linear("head", 12 * (image // 2) ** 2, classes),
    ]
    edges = [
        ("stem", 0, "sp", 0),
        ("sp", 0, "left", 0), ("sp", 1, "right", 0),
        ("left", 0, "cat", 0), ("right", 0, "cat", 1),
        ("cat", 0, "act", 0), ("act", 0, "pool", 0),
        ("pool", 0, "flat", 0), ("flat", 0, "head", 0),
    ]
    return _finish(comps, edges, (in_channels, image, image), [("stem", 0)], seed)


def residual_tower(blocks: int, width: int = 16, image: int = 8,
                   classes: int = 4, seed: int = 0) -> NetworkIR:
    """Stem conv, `blocks` residual blocks (conv-bn-relu-conv-bn plus a
    skip add, then relu) and a pool/flatten/linear head."""
    w = width
    comps = [conv2d("stem", 1, w, kernel=3, padding=1)]
    edges = []
    prev = "stem"
    for b in range(blocks):
        p = f"b{b}."
        comps += [conv2d(p + "conv1", w, w, kernel=3, padding=1),
                  batchnorm(p + "bn1", w), activation(p + "act1", w, "relu"),
                  conv2d(p + "conv2", w, w, kernel=3, padding=1),
                  batchnorm(p + "bn2", w), eltwise(p + "add", w, "add"),
                  activation(p + "act2", w, "relu")]
        edges += [(prev, 0, p + "conv1", 0), (p + "conv1", 0, p + "bn1", 0),
                  (p + "bn1", 0, p + "act1", 0), (p + "act1", 0, p + "conv2", 0),
                  (p + "conv2", 0, p + "bn2", 0), (p + "bn2", 0, p + "add", 0),
                  (prev, 0, p + "add", 1), (p + "add", 0, p + "act2", 0)]
        prev = p + "act2"
    spatial = (image // 2) ** 2
    comps += [pool("pool", w, kernel=2, op="avg"), flatten("flat", w, spatial),
              linear("head", w * spatial, classes)]
    edges += [(prev, 0, "pool", 0), ("pool", 0, "flat", 0),
              ("flat", 0, "head", 0)]
    return _finish(comps, edges, (1, image, image), [("stem", 0)], seed)


def flatten_concat(parts: list[tuple[str, int]],
                   lead: str | None = None) -> NetworkIR:
    """Concat of flattened features that a flatten cannot align with.

    On a (1, 2, 2) input, conv `ca` (1 -> 2) feeds flatten `fa` (8
    features, 4 per channel), and conv `cb` (1 -> 1) feeds flatten `fb`,
    whose 4 features feed one linear branch per other part. parts gives
    the concat's inputs in port order as (name, features), where "fa" is
    the flatten and any other name a linear branch of that width; a head
    reads the concat. lead names a component to list first. The network
    is valid, but no canonical unit of 4 features fits every part.
    """
    branches = [linear(name, 4, k) for name, k in parts if name != "fa"]
    total = sum(k for _, k in parts)
    comps = [conv2d("ca", 1, 2, kernel=1), flatten("fa", 2, 4),
             conv2d("cb", 1, 1, kernel=1), flatten("fb", 1, 4), *branches,
             concat("cat", [k for _, k in parts]), linear("head", total, 2)]
    comps.sort(key=lambda c: c.comp_id != lead)
    edges = [("ca", 0, "fa", 0), ("cb", 0, "fb", 0), ("cat", 0, "head", 0)]
    edges += [("fb", 0, b.comp_id, 0) for b in branches]
    edges += [(name, 0, "cat", port) for port, (name, _) in enumerate(parts)]
    return _finish(comps, edges, (1, 2, 2), [("ca", 0), ("cb", 0)], 0)


BUNDLED = {
    "two_layer_mlp": two_layer_mlp,
    "spiral_mlp": spiral_mlp,
    "fig_block": fig_block,
    "residual_cnn": residual_cnn,
    "concat_cnn": concat_cnn,
    "depthwise_cnn": depthwise_cnn,
    "grouped_cnn": grouped_cnn,
    "split_cnn": split_cnn,
}
