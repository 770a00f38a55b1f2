import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from grouprune import engine, zoo
from grouprune.errors import ShapeError
from grouprune.ir import (NetworkIR, activation, batchnorm, conv2d, eltwise,
                          init_weights, linear, pool)
from random_nets import random_ir
import toy_models

from grouprune.kinds import SPECS
from reference import (fd_param_grads, grad_rel_err,
                       reference_batchnorm_backward, reference_batchnorm_forward,
                       rel_err, scalar_conv2d_input_grad, scalar_forward,
                       trainable_param_names)


def _net(comps, edges, input_shape, consumers, seed=0):
    ir = NetworkIR(comps, edges, input_shape, consumers)
    init_weights(ir, np.random.default_rng(seed))
    return ir.check_valid()


def test_identity_linear_is_identity():
    ir = _net([linear("fc", 4, 4)], [], (4,), [("fc", 0)])
    ir.weights["fc.weight"] = np.eye(4, dtype=np.float32)
    ir.weights["fc.bias"] = np.zeros(4, dtype=np.float32)
    x = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
    np.testing.assert_array_equal(engine.forward(ir, x), x)


def test_zeroed_residual_branch_passes_skip():
    from grouprune.ir import flatten as _fl

    c = 4
    with_branch = _net(
        [conv2d("c1", 2, c, kernel=3, padding=1),
         conv2d("c2", c, c, kernel=3, padding=1),
         eltwise("add", c, "add"),
         _fl("fl", c, 16), linear("fc", 16 * c, 3)],
        [("c1", 0, "c2", 0), ("c1", 0, "add", 0), ("c2", 0, "add", 1),
         ("add", 0, "fl", 0), ("fl", 0, "fc", 0)],
        (2, 4, 4), [("c1", 0)], seed=3)
    with_branch.weights["c2.weight"][:] = 0.0
    with_branch.weights["c2.bias"][:] = 0.0

    skip_only = _net(
        [conv2d("c1", 2, c, kernel=3, padding=1),
         _fl("fl", c, 16), linear("fc", 16 * c, 3)],
        [("c1", 0, "fl", 0), ("fl", 0, "fc", 0)],
        (2, 4, 4), [("c1", 0)], seed=3)
    for name in ("c1.weight", "c1.bias", "fc.weight", "fc.bias"):
        skip_only.weights[name] = with_branch.weights[name].copy()

    x = np.random.default_rng(0).normal(size=(3, 2, 4, 4)).astype(np.float32)
    np.testing.assert_allclose(engine.forward(with_branch, x),
                               engine.forward(skip_only, x), atol=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_forward_matches_scalar_reference(seed):
    ir = random_ir(seed, max_components=12, max_channels=6, spatial_choices=(4,))
    x = np.random.default_rng(seed).normal(size=(3,) + ir.input_shape).astype(np.float32)
    y = engine.forward(ir.copy(), x, mode="eval")
    y_ref = scalar_forward(ir, x, mode="eval")
    assert rel_err(y, y_ref, floor=1e-3) < 1e-4
    y_tr, _tape = engine.forward(ir.copy(), x, mode="train")
    y_tr_ref = scalar_forward(ir, x, mode="train")
    assert rel_err(y_tr, y_tr_ref, floor=1e-3) < 1e-4


def test_forward_matches_scalar_reference_on_zoo():
    x4 = np.random.default_rng(3).normal(size=(2, 1, 8, 8)).astype(np.float32)
    for name in ("residual_cnn", "concat_cnn", "depthwise_cnn", "grouped_cnn",
                 "split_cnn"):
        ir = toy_models.BUNDLED[name](seed=2)
        y = engine.forward(ir.copy(), x4)
        y_ref = scalar_forward(ir, x4)
        assert rel_err(y, y_ref, floor=1e-3) < 1e-4, name


def test_forward_determinism():
    ir = zoo.residual_cnn()
    x = np.random.default_rng(1).normal(size=(4,) + ir.input_shape).astype(np.float32)
    a = engine.forward(ir.copy(), x, mode="train")[0]
    b = engine.forward(ir.copy(), x, mode="train")[0]
    np.testing.assert_array_equal(a, b)


def test_forward_rejects_bad_shape_and_nonfinite():
    ir = toy_models.two_layer_mlp()
    with pytest.raises(ShapeError):
        engine.forward(ir, np.zeros((2, 7), dtype=np.float32))
    bad = np.zeros((2, 16), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(ShapeError, match="non-finite"):
        engine.forward(ir, bad)


def test_shape_error_names_component():
    # a kernel larger than the padded input: validate() rejects it, and
    # the IR is built without check_valid(). The conv kernel takes its
    # output size from the kind's shape rule, which raises naming the conv.
    ir = NetworkIR([conv2d("convzilla", 2, 4, kernel=3, padding=0)], [],
                   (2, 2, 2), [("convzilla", 0)])
    init_weights(ir, np.random.default_rng(0))
    assert any("convzilla" in v for v in ir.validate())
    with pytest.raises(ShapeError, match="convzilla"):
        engine.forward(ir, np.zeros((1, 2, 2, 2), dtype=np.float32))


# -- gradients ---------------------------------------------------------------


def test_linear_squared_loss_closed_form():
    # loss = sum((Wx - y)^2): dW = 2 (Wx - y) x^T
    ir = _net([linear("fc", 3, 2, bias=False)], [], (3,), [("fc", 0)])
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 3)).astype(np.float32)
    target = rng.normal(size=(1, 2)).astype(np.float32)
    out, tape = engine.forward(ir, x, mode="train")
    grads = engine.backward(tape, 2 * (out - target))
    w = ir.weights["fc.weight"]
    expected = 2 * (x @ w.T - target).T @ x
    np.testing.assert_allclose(grads["fc.weight"], expected, rtol=1e-5)


def test_zero_loss_gradient_gives_zero_grads():
    ir = zoo.residual_cnn()
    x = np.random.default_rng(0).normal(size=(2,) + ir.input_shape).astype(np.float32)
    _y, tape = engine.forward(ir, x, mode="train")
    grads = engine.backward(tape, np.zeros_like(_y))
    assert all(np.all(g == 0) for g in grads.values())


def test_tape_reuse_raises():
    ir = toy_models.two_layer_mlp()
    x = np.zeros((2, 16), dtype=np.float32)
    y, tape = engine.forward(ir, x, mode="train")
    engine.backward(tape, np.ones_like(y))
    with pytest.raises(ShapeError, match="consumed"):
        engine.backward(tape, np.ones_like(y))


def test_eval_forward_keeps_no_backward_context():
    # Only a train-mode forward needs each conv's im2col patches; an eval
    # forward may hold every component's output, but only a few patch
    # arrays at a time. Keeping all 33 convs' patches peaked at 110.6 MiB
    # here, against 30.9 MiB without them.
    ir = toy_models.residual_tower(blocks=16)
    n, width, image = 64, 16, 8
    x = np.random.default_rng(0).standard_normal((n, 1, image, image))
    engine.forward(ir, x)   # warm-up: first-call allocations are not the point
    outputs = len(ir.components) * n * width * image * image * 4
    patches = n * width * 9 * image * image * 4   # one conv's patch array
    tracemalloc.start()
    try:
        engine.forward(ir, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < outputs + 4 * patches


def test_eval_forward_frees_values_after_last_reader():
    # Each output is dropped once the last component that reads it has
    # run, so an eval forward holds a block's few live values, not all
    # 116 outputs: 30.9 MiB here when every output was kept to the end,
    # 4.2 MiB without them.
    ir = toy_models.residual_tower(blocks=16)
    n, width, image = 64, 16, 8
    x = np.random.default_rng(0).standard_normal((n, 1, image, image))
    engine.forward(ir, x)   # warm-up: first-call allocations are not the point
    output = n * width * image * image * 4        # one component's output
    patches = n * width * 9 * image * image * 4   # one conv's patch array
    tracemalloc.start()
    try:
        engine.forward(ir, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * output + 2 * patches


@pytest.mark.parametrize("seed", range(10))
def test_gradients_match_finite_differences(seed):
    ir = random_ir(2000 + seed, max_components=12, smooth=True,
                   max_channels=6, spatial_choices=(4,))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3,) + ir.input_shape).astype(np.float32)
    labels = rng.integers(0, ir.exit_component().attrs["out_features"], 3)
    logits, tape = engine.forward(ir.copy(), x, mode="train")
    _loss, dlogits = engine.softmax_cross_entropy(logits, labels)
    grads = engine.backward(tape, dlogits)
    fd = fd_param_grads(ir, x, labels)
    for name, g in grads.items():
        assert grad_rel_err(g, fd[name]) < 1e-3, name


def test_per_op_gradients_against_finite_differences():
    # one tiny net per op kind, including the non-smooth ones at points
    # away from their kinks
    rng = np.random.default_rng(9)

    def check(ir, x):
        labels = rng.integers(0, ir.exit_component().attrs["out_features"],
                              x.shape[0])
        logits, tape = engine.forward(ir.copy(), x, mode="train")
        _l, dl = engine.softmax_cross_entropy(logits, labels)
        grads = engine.backward(tape, dl)
        fd = fd_param_grads(ir, x, labels)
        for name, g in grads.items():
            assert grad_rel_err(g, fd[name]) < 1e-3, name

    # relu at inputs bounded away from zero
    comps = [linear("fc1", 4, 6), activation("a", 6, "relu"), linear("fc2", 6, 3)]
    ir = _net(comps, [("fc1", 0, "a", 0), ("a", 0, "fc2", 0)], (4,), [("fc1", 0)])
    ir.weights["fc1.bias"] += 3.0   # push every pre-activation positive
    check(ir, rng.normal(size=(4, 4)).astype(np.float32) * 0.1)

    # batchnorm + eltwise mul in the conv domain
    from grouprune.ir import flatten as _fl, linear as _ln
    comps = [conv2d("c1", 2, 4, kernel=3, padding=1), batchnorm("bn", 4),
             conv2d("c2", 2, 4, kernel=3, padding=1),
             eltwise("m", 4, "mul"),
             conv2d("c3", 4, 2, kernel=1),
             _fl("fl", 2, 16), _ln("fc", 32, 3)]
    edges = [("c1", 0, "bn", 0), ("bn", 0, "m", 0), ("c2", 0, "m", 1),
             ("m", 0, "c3", 0), ("c3", 0, "fl", 0), ("fl", 0, "fc", 0)]
    ir = _net(comps, edges, (2, 4, 4), [("c1", 0), ("c2", 0)])
    check(ir, rng.normal(size=(3, 2, 4, 4)).astype(np.float32))

    # identity
    comps = [linear("fc1", 4, 6), activation("a", 6, "identity"),
             linear("fc2", 6, 3)]
    ir = _net(comps, [("fc1", 0, "a", 0), ("a", 0, "fc2", 0)], (4,), [("fc1", 0)])
    check(ir, rng.normal(size=(4, 4)).astype(np.float32))


# (kernel, stride, padding, groups) of two stacked 4 -> 4 channel convs on
# an h x w input; groups 4 is depthwise.
# Every case has a stride > 1 or a padding other than kernel // 2, and
# each starred one leaves (h + 2p - k) % s != 0 on some conv.
CONV_GEOMETRIES = [
    ((1, 1, 0, 1), (3, 2, 1, 2), 6, 5),     # *
    ((1, 2, 0, 4), (1, 3, 2, 2), 6, 7),     # *
    ((3, 2, 1, 1), (3, 3, 0, 4), 6, 7),     # *
    ((3, 1, 2, 2), (5, 1, 0, 1), 4, 4),
    ((3, 3, 1, 1), (3, 1, 0, 2), 9, 8),     # *
    ((5, 2, 1, 1), (3, 1, 2, 4), 8, 8),     # *
    ((5, 1, 2, 2), (5, 3, 2, 4), 5, 6),     # *
    ((5, 3, 0, 1), (1, 2, 1, 1), 11, 12),   # *
]


@pytest.mark.parametrize("first, second, h, w", CONV_GEOMETRIES)
def test_conv_geometry_matches_oracles(first, second, h, w):
    from grouprune.ir import flatten as _fl

    def conv(cid, c_in, c_out, geom):
        k, s, p, g = geom
        return conv2d(cid, c_in, c_out, kernel=k, stride=s, padding=p, groups=g)

    def out_size(size, geom):
        k, s, p, _g = geom
        return (size + 2 * p - k) // s + 1

    spatial = (out_size(out_size(h, first), second)
               * out_size(out_size(w, first), second))
    comps = [conv("c1", 4, 4, first), conv("c2", 4, 4, second),
             _fl("fl", 4, spatial), linear("fc", 4 * spatial, 3)]
    edges = [("c1", 0, "c2", 0), ("c2", 0, "fl", 0), ("fl", 0, "fc", 0)]
    ir = _net(comps, edges, (4, h, w), [("c1", 0)], seed=h * w)
    rng = np.random.default_rng(h + w)
    x = rng.normal(size=(2, 4, h, w)).astype(np.float32)
    assert rel_err(engine.forward(ir.copy(), x), scalar_forward(ir, x),
                   floor=1e-3) < 1e-4
    labels = rng.integers(0, 3, 2)
    logits, tape = engine.forward(ir.copy(), x, mode="train")
    _loss, dlogits = engine.softmax_cross_entropy(logits, labels)
    grads = engine.backward(tape, dlogits)
    fd = fd_param_grads(ir, x, labels)
    assert sorted(grads) == sorted(fd)
    for name, g in grads.items():
        assert g.shape == ir.weights[name].shape, name
        assert grad_rel_err(g, fd[name]) < 1e-3, name


@pytest.mark.parametrize("kernel, stride, padding",
                         list(itertools.product((1, 3, 5), (1, 2, 3), (0, 1, 2))))
def test_conv_input_gradient_matches_scalar_reference(kernel, stride, padding):
    # The engine never asks for the gradient of a conv the network input
    # feeds, so the kernel is called directly. 7 x 6 leaves a stride
    # remainder at strides 2 and 3; kernel 1 with padding 1 or 2 is the
    # p > k - 1 case, where the padded output gradient is cropped.
    h, w = 7, 6
    rng = np.random.default_rng(100 * kernel + 10 * stride + padding)
    for c_in, c_out, groups in ((3, 5, 1), (4, 4, 2), (4, 4, 4)):
        comp = conv2d("c", c_in, c_out, kernel=kernel, stride=stride,
                      padding=padding, groups=groups)
        ir = _net([comp], [], (c_in, h, w), [("c", 0)], seed=kernel + groups)
        x = rng.normal(size=(2, c_in, h, w)).astype(np.float32)
        spec = SPECS["conv2d"]
        (out,), ctx = spec.forward(comp, [x], ir.weights, "train")
        dout = rng.normal(size=out.shape).astype(np.float32)
        (dx,), _grads = spec.backward(comp, ctx, ir.weights, [True], dout)
        want = scalar_conv2d_input_grad(comp, ir.weights, x.shape, dout)
        assert dx.dtype == np.float32 and dx.shape == x.shape
        # float32 sums of up to 125 terms: error relative to the largest entry
        assert np.abs(dx - want).max() < 1e-5 * np.abs(want).max(), groups


def test_backward_skips_gradient_of_network_input(monkeypatch):
    # stem reads the network input, so its input gradient is never built;
    # conv1 and conv2 read other components and get theirs.
    built = {}
    spec = SPECS["conv2d"]

    def recording(comp, *args):
        dins, dparams = spec.backward(comp, *args)
        built[comp.comp_id] = dins[0] is not None
        return dins, dparams

    monkeypatch.setitem(SPECS, "conv2d",
                        dataclasses.replace(spec, backward=recording))
    ir = zoo.residual_cnn()
    x = np.random.default_rng(0).normal(size=(2,) + ir.input_shape)
    y, tape = engine.forward(ir, x, mode="train")
    grads = engine.backward(tape, np.ones_like(y))
    assert built == {"stem": False, "conv1": True, "conv2": True}
    assert sorted(grads) == sorted(trainable_param_names(ir))
    assert all(grads[name].shape == ir.weights[name].shape for name in grads)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(5, 3), (64, 16), (3, 5, 3, 3), (7, 16, 4, 4)])
def test_batchnorm_matches_reference_bytes(shape, mode):
    rng = np.random.default_rng(sum(shape))
    c = shape[1]
    ir = _net([batchnorm("bn", c)], [], shape[1:], [("bn", 0)])
    for role in ("gamma", "beta", "running_mean"):
        ir.weights[f"bn.{role}"] = rng.normal(size=c).astype(np.float32)
    ir.weights["bn.running_var"] = rng.uniform(0.5, 2, c).astype(np.float32)
    want = dict(ir.weights)
    comp = ir.component("bn")
    x = rng.normal(1.0, 2.0, size=shape).astype(np.float32)
    dout = rng.normal(size=shape).astype(np.float32)
    spec = SPECS["batchnorm"]
    (out,), ctx = spec.forward(comp, [x], ir.weights, mode)
    want_out, want_ctx = reference_batchnorm_forward(comp, x, want, mode)
    pairs = [(out, want_out),
             (ir.weights["bn.running_mean"], want["bn.running_mean"]),
             (ir.weights["bn.running_var"], want["bn.running_var"])]
    if mode == "train":   # engine.forward keeps no tape in eval
        (dx,), grads = spec.backward(comp, ctx, ir.weights, [True], dout)
        want_dx, want_dgamma, want_dbeta = reference_batchnorm_backward(
            comp, want_ctx, want, dout)
        pairs += [(dx, want_dx), (grads["gamma"], want_dgamma),
                  (grads["beta"], want_dbeta)]
    for got, ref in pairs:
        assert got.dtype == ref.dtype == np.float32
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


# -- average pool, linear ------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_avg_pool_matches_reshape_mean_bytes(k):
    # odd batch and channel sizes; the last two shapes have a window as
    # tall as the input, then one as wide as it
    rng = np.random.default_rng(k)
    comp = pool("pool", 1, kernel=k, op="avg")
    spec = SPECS["pool"]
    for n, c, h, w in ((5, 3, 2 * k, 3 * k), (7, 1, 3 * k, 2 * k),
                       (3, 5, k, 4 * k), (1, 3, 3 * k, k)):
        x = rng.normal(size=(n, c, h, w)).astype(np.float32) * 50
        want = x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
        (out,), ctx = spec.forward(comp, [x], {}, "train")
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes(), \
            (k, x.shape)
        dout = rng.normal(size=want.shape).astype(np.float32)
        (dx,), _ = spec.backward(comp, ctx, {}, [True], dout)
        assert dx.dtype == np.float32
        np.testing.assert_array_equal(
            dx, np.repeat(np.repeat(dout, k, axis=2), k, axis=3) / (k * k))


@pytest.mark.parametrize("bias", [True, False])
def test_linear_forward_is_c_contiguous(bias):
    ir = _net([linear("fc", 33, 17, bias=bias)], [], (33,), [("fc", 0)])
    x = np.random.default_rng(0).normal(size=(9, 33)).astype(np.float32)
    out = engine.forward(ir, x)
    w = ir.weights["fc.weight"]
    want = x @ w.T + (ir.weights["fc.bias"] if bias else 0)
    assert out.flags.c_contiguous and out.dtype == np.float32
    np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)


# -- batchnorm statistics ----------------------------------------------------


def test_batchnorm_train_statistics():
    comps = [batchnorm("bn", 6)]
    ir = _net(comps, [], (6, 8, 8), [("bn", 0)])
    rng = np.random.default_rng(2)
    ir.weights["bn.gamma"] = rng.uniform(0.5, 2.0, 6).astype(np.float32)
    ir.weights["bn.beta"] = rng.normal(0, 1, 6).astype(np.float32)
    x = rng.normal(3.0, 2.5, size=(64, 6, 8, 8)).astype(np.float32)
    y, _tape = engine.forward(ir, x, mode="train")
    mean = y.mean(axis=(0, 2, 3))
    std = y.std(axis=(0, 2, 3))
    np.testing.assert_allclose(mean, ir.weights["bn.beta"], atol=1e-4)
    np.testing.assert_allclose(std, ir.weights["bn.gamma"], atol=1e-4)


def test_batchnorm_updates_running_stats():
    comps = [batchnorm("bn", 3)]
    ir = _net(comps, [], (3, 4, 4), [("bn", 0)])
    rng = np.random.default_rng(0)
    x = rng.normal(1.5, 2.0, size=(32, 3, 4, 4)).astype(np.float32)
    engine.forward(ir, x, mode="train")
    n = 32 * 16
    expected_mean = 0.1 * x.mean(axis=(0, 2, 3))
    expected_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)) * n / (n - 1)
    np.testing.assert_allclose(ir.weights["bn.running_mean"], expected_mean,
                               rtol=1e-5)
    np.testing.assert_allclose(ir.weights["bn.running_var"], expected_var,
                               rtol=1e-5)
    # eval mode must now use them and not change them again
    before = ir.weights["bn.running_mean"].copy()
    engine.forward(ir, x, mode="eval")
    np.testing.assert_array_equal(ir.weights["bn.running_mean"], before)


# -- MACs ---------------------------------------------------------------------


def test_macs_linear_definition():
    ir = _net([linear("fc", 7, 9)], [], (7,), [("fc", 0)])
    assert engine.count_macs(ir) == 7 * 9


def test_macs_conv_definition():
    comps = [conv2d("c", 3, 8, kernel=3, padding=1)]
    ir = _net(comps, [], (3, 8, 8), [("c", 0)])
    assert engine.count_macs(ir) == 3 * 8 * 9 * 8 * 8


def test_macs_grouped_conv():
    comps = [conv2d("c", 8, 8, kernel=3, padding=1, groups=4)]
    ir = _net(comps, [], (8, 8, 8), [("c", 0)])
    assert engine.count_macs(ir) == 2 * 8 * 9 * 8 * 8


def test_macs_halved_channels_quarter_cost():
    def two_conv(c0, c1, c2):
        comps = [conv2d("c1", c0, c1, kernel=3, padding=1),
                 conv2d("c2", c1, c2, kernel=3, padding=1)]
        return _net(comps, [("c1", 0, "c2", 0)], (c0, 8, 8), [("c1", 0)])

    base = engine.count_macs(two_conv(4, 16, 8))
    halved = engine.count_macs(two_conv(2, 8, 4))
    assert base / halved == pytest.approx(4.0)


def test_count_macs_ignores_non_mac_components():
    ir = zoo.residual_cnn()
    manual = 0
    shapes = engine.infer_shapes(ir)
    for comp in ir.components:
        if comp.kind == "conv2d":
            _, oh, ow = shapes[comp.comp_id]
            manual += (comp.attrs["in_channels"] * comp.attrs["out_channels"]
                       * 9 * oh * ow)
        elif comp.kind == "linear":
            manual += comp.attrs["in_features"] * comp.attrs["out_features"]
    assert engine.count_macs(ir) == manual
