import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouprune import engine, zoo
from grouprune.data import shapes, spiral, train_test_split
from grouprune.dependency import build_depgraph
from grouprune.errors import TrainingDiverged
from grouprune.grouping import extract_groups
from grouprune.importance import group_l2_importance
from grouprune.ir import NetworkIR, init_weights, linear
from grouprune.sparse import (SparseConfig, coefficient_map, compute_gamma,
                              counted_group, layer_pseudo_groups,
                              refresh_gamma, regularizer_grad,
                              sparsity_groups, train_sparse)

import toy_models
from conftest import oracle_models
from reference import (fd_scalar, grad_rel_err, near_zero_fraction,
                       reference_regularizer_coefficients,
                       reference_regularizer_grad, reference_sgd_step,
                       regularizer_value)


def _imp(values):
    return np.asarray(values, dtype=np.float64)


def _reg_grad(ir, groups, gammas, reg_weight, grads=None):
    """grads (by default zero gradients for the map's tensors) plus the
    regularizer gradient, from the coefficient map of the groups, as
    train_sparse adds it."""
    coeffs = coefficient_map(ir, groups, gammas, reg_weight)
    if grads is None:
        grads = {name: np.zeros_like(ir.weights[name]) for name in coeffs}
    regularizer_grad(ir, coeffs, grads)
    return grads


def _counted(ir, groups, strategy):
    """The regularized groups of a strategy, as train_sparse builds them,
    and the member scope the reference oracles read for it."""
    reg_groups = sparsity_groups(ir, groups, strategy)
    scope = "conv" if strategy == "conv-only" else "full"
    return reg_groups, [counted_group(ir, g, strategy) for g in reg_groups], scope


# -- gamma schedule -----------------------------------------------------------


def test_gamma_extremes_at_alpha_4():
    g = compute_gamma(_imp([1.0, 3.0, 5.0]), alpha=4.0)
    np.testing.assert_allclose(g, [16.0, 4.0, 1.0])


def test_gamma_max_importance_gets_one():
    g = compute_gamma(_imp([0.2, 0.9]), alpha=4.0)
    assert g[1] == 1.0
    assert g[0] == 16.0


def test_gamma_degenerate_uniform_one():
    g = compute_gamma(_imp([2.5, 2.5, 2.5]), alpha=4.0)
    np.testing.assert_array_equal(g, [1.0, 1.0, 1.0])
    assert np.isfinite(g).all()


@settings(max_examples=300)
@given(st.lists(st.floats(0, 1e9, allow_nan=False), min_size=1, max_size=40),
       st.floats(0, 8))
def test_gamma_bounds(values, alpha):
    g = compute_gamma(_imp(values), alpha)
    assert (g >= 1.0 - 1e-12).all()
    assert (g <= 2.0 ** alpha + 1e-9).all()


# -- regularizer --------------------------------------------------------------


def test_regularizer_zero_weight_contributes_nothing():
    ir = zoo.residual_cnn()
    groups = extract_groups(build_depgraph(ir))
    gammas = refresh_gamma(ir, groups, 4.0)
    assert _reg_grad(ir, groups, gammas, reg_weight=0.0) == {}


def test_regularizer_closed_form_single_slice():
    # lambda=0.5, gamma=1 -> gradient is exactly the weight itself
    comps = [linear("fc", 3, 4, bias=False)]
    ir = NetworkIR(comps, [], (3,), [("fc", 0)])
    init_weights(ir, np.random.default_rng(0))
    groups = layer_pseudo_groups(ir)
    uniform = {g.group_id: compute_gamma(np.ones(g.width), 4.0)
               for g in groups}
    grads = _reg_grad(ir, groups, uniform, reg_weight=0.5)
    np.testing.assert_allclose(grads["fc.weight"], ir.weights["fc.weight"],
                               rtol=1e-6)


def test_regularizer_matches_finite_differences():
    ir = zoo.residual_cnn(seed=11)
    groups = extract_groups(build_depgraph(ir))
    gammas = refresh_gamma(ir, groups, 4.0)
    lam = 0.123
    grads = _reg_grad(ir, groups, gammas, lam)
    fd = fd_scalar(lambda m: regularizer_value(m, groups, gammas, lam),
                   ir, names=sorted(grads))
    for name in grads:
        assert grad_rel_err(grads[name], fd[name]) < 1e-3, name


def test_regularizer_skips_running_stats():
    ir = zoo.residual_cnn()
    groups = extract_groups(build_depgraph(ir))
    gammas = refresh_gamma(ir, groups, 4.0)
    grads = _reg_grad(ir, groups, gammas, 1e-3)
    assert not any("running" in name for name in grads)
    assert "bn1.gamma" in grads and "bn1.beta" in grads


def test_regularizer_only_updates_shrink_group_norms():
    # task loss removed: every group's total importance is non-increasing
    ir = zoo.residual_cnn(seed=2)
    groups = extract_groups(build_depgraph(ir))
    lr = 1e-3
    state = {}
    prev = None
    for _step in range(30):
        gammas = refresh_gamma(ir, groups, 4.0)
        grads = _reg_grad(ir, groups, gammas, reg_weight=0.05)
        engine.sgd_step(ir, grads, state, lr=lr, momentum=0.0)
        totals = np.array([group_l2_importance(ir, g).sum()
                           for g in groups])
        if prev is not None:
            assert (totals <= prev + 1e-9).all()
        prev = totals


def test_regularizer_grad_matches_index_loop_oracle():
    for name, ir in oracle_models():
        groups = extract_groups(build_depgraph(ir))
        for strategy in ("full-grouping", "conv-only", "no-grouping"):
            reg_groups, counted, scope = _counted(ir, groups, strategy)
            gammas = refresh_gamma(ir, counted, 4.0)
            got = _reg_grad(ir, counted, gammas, 0.37)
            want = reference_regularizer_grad(ir, reg_groups, gammas, 0.37, scope)
            assert sorted(got) == sorted(want), (name, strategy)
            for tensor in want:
                assert got[tensor].dtype == want[tensor].dtype
                assert got[tensor].tobytes() == want[tensor].tobytes(), \
                    (name, strategy, tensor)


def test_regularizer_grad_signed_zeros_match_oracle():
    # a -0.0 weight, or a tiny negative one whose term rounds to -0.0,
    # gets a +0.0 gradient, as adding its term into zeros gives
    ir = zoo.residual_cnn(seed=1)
    for w in ir.weights.values():
        w.flat[:2] = (-0.0, -1e-45)
    groups = extract_groups(build_depgraph(ir))
    for strategy in ("full-grouping", "no-grouping"):
        reg_groups, counted, scope = _counted(ir, groups, strategy)
        gammas = refresh_gamma(ir, counted, 4.0)
        got = _reg_grad(ir, counted, gammas, 1e-4)
        want = reference_regularizer_grad(ir, reg_groups, gammas, 1e-4, scope)
        for tensor in want:
            assert got[tensor].tobytes() == want[tensor].tobytes(), tensor


def test_regularizer_grad_is_float64_gradient_to_float32_rounding():
    # The gradient rounds the float64 coefficient 2 * lambda * sum(gamma)
    # once to float32 and multiplies in float32: two roundings, each at
    # most 2**-24 relative, so it sits within about 1.2e-7 of the float64
    # gradient. rtol 1e-6 (about 8 float32 ulps) leaves room, and no atol.
    for name, ir in oracle_models():
        groups = extract_groups(build_depgraph(ir))
        for strategy in ("full-grouping", "conv-only", "no-grouping"):
            reg_groups, counted, scope = _counted(ir, groups, strategy)
            gammas = refresh_gamma(ir, counted, 4.0)
            got = _reg_grad(ir, counted, gammas, 0.37)
            exact = reference_regularizer_coefficients(ir, reg_groups, gammas,
                                                       0.37, scope)
            assert sorted(got) == sorted(exact), (name, strategy)
            for tensor, c in exact.items():
                want = c * ir.weights[tensor].astype(np.float64)
                np.testing.assert_allclose(got[tensor], want, rtol=1e-6, atol=0,
                                           err_msg=f"{name} {strategy} {tensor}")


def test_regularizer_grad_in_blocks_matches_oracle(monkeypatch):
    # The bundled models fit in one block; 5-element blocks split every
    # tensor along axis 0, with a remainder. Full grouping gives dense maps,
    # no-grouping axis-0 vectors and a single group alone some axis-1 ones.
    import grouprune.sparse as sparse_mod

    monkeypatch.setattr(sparse_mod, "_CHUNK", 5)
    for name, build in sorted(toy_models.BUNDLED.items()):
        ir = build(seed=3)
        groups = extract_groups(build_depgraph(ir))
        cases = [sparsity_groups(ir, groups, s)
                 for s in ("full-grouping", "no-grouping")]
        cases += [[g] for g in groups]
        for reg_groups in cases:
            gammas = refresh_gamma(ir, reg_groups, 4.0)
            task = {n: np.full_like(w, 0.25) for n, w in ir.weights.items()}
            got = _reg_grad(ir, reg_groups, gammas, 0.37,
                            {n: g.copy() for n, g in task.items()})
            want = reference_regularizer_grad(ir, reg_groups, gammas, 0.37)
            for tensor, reg in want.items():
                assert got[tensor].tobytes() == (task[tensor] + reg).tobytes(), \
                    (name, [g.group_id for g in reg_groups], tensor)


@pytest.mark.parametrize("model", ["spiral_mlp", "residual_cnn"])
def test_coefficient_map_rebuilt_at_each_gamma_refresh(model, monkeypatch):
    import grouprune.sparse as sparse_mod

    if model == "spiral_mlp":
        (xtr, ytr), _ = _tiny_task()
    else:
        (xtr, ytr), _ = train_test_split(*shapes(n=64, seed=4), seed=4)
    ir = toy_models.BUNDLED[model](seed=4)
    groups = extract_groups(build_depgraph(ir))
    cfg = SparseConfig(epochs=2, reg_weight=5e-2, lr=0.05, batch_size=16,
                       refresh_period=3, seed=4)
    refresh = sparse_mod.refresh_gamma
    latest, builds, steps, maps = [], [], [], []

    def refresh_spy(*args, **kwargs):
        latest[:] = [refresh(*args, **kwargs)]
        return latest[0]

    def map_spy(*args, **kwargs):
        builds.append(len(steps))
        maps.append(coefficient_map(*args, **kwargs))
        return maps[-1]

    def grad_spy(ir, coeffs, grads):
        # the map in use is the one the latest gammas define (full
        # grouping regularizes every group whole)
        want = reference_regularizer_coefficients(ir, groups, latest[0],
                                                  cfg.reg_weight)
        assert sorted(coeffs) == sorted(want)
        for tensor, c in want.items():
            got = np.broadcast_to(coeffs[tensor], c.shape)
            assert got.tobytes() == c.astype(np.float32).tobytes(), tensor
        steps.append(1)
        regularizer_grad(ir, coeffs, grads)

    monkeypatch.setattr(sparse_mod, "refresh_gamma", refresh_spy)
    monkeypatch.setattr(sparse_mod, "coefficient_map", map_spy)
    monkeypatch.setattr(sparse_mod, "regularizer_grad", grad_spy)
    train_sparse(ir, (xtr, ytr), cfg, groups)
    n_steps = 2 * ((len(xtr) + 15) // 16)
    assert len(steps) == n_steps
    # 1 + n_steps // 3 builds: before the first step, then after every third
    assert builds == [0] + list(range(3, n_steps + 1, 3))
    # a refresh rewrites the dense maps in place instead of allocating
    dense = [name for name, c in maps[0].items()
             if c.ndim > 1 and c.shape == ir.weights[name].shape]
    assert dense
    for m in maps[1:]:
        assert all(m[name] is maps[0][name] for name in dense)


# -- training loop ------------------------------------------------------------


def _tiny_task(seed=0):
    x, y = spiral(n_per_class=40, seed=seed)
    return train_test_split(x, y, seed=seed)


def test_lambda_zero_reduces_to_plain_training():
    (xtr, ytr), _ = _tiny_task()
    cfg = SparseConfig(epochs=3, reg_weight=0.0, lr=0.1, batch_size=16, seed=5)
    ir = zoo.spiral_mlp(seed=1)
    baseline = ir.copy()

    trained, _trace = train_sparse(ir, (xtr, ytr),
                                   cfg, extract_groups(build_depgraph(ir)))

    # independent plain SGD loop with the same batching discipline
    rng = np.random.default_rng(cfg.seed)
    state = {}
    n = len(xtr)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            logits, tape = engine.forward(baseline, xtr[idx], mode="train")
            _loss, dl = engine.softmax_cross_entropy(logits, ytr[idx])
            grads = engine.backward(tape, dl)
            engine.sgd_step(baseline, grads, state, cfg.lr, cfg.momentum)

    for name in trained.weights:
        np.testing.assert_array_equal(trained.weights[name],
                                      baseline.weights[name])


def _reference_train(ir, dataset, cfg, groups):
    """train_sparse's loop rebuilt from the reference regularizer gradient
    and the out-of-place momentum step."""
    x_all, y_all = dataset
    rng = np.random.default_rng(cfg.seed)
    reg_groups, counted, scope = _counted(ir, groups, cfg.strategy)
    gammas = refresh_gamma(ir, counted, cfg.alpha)
    state = {}
    step = 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(x_all))
        for lo in range(0, len(x_all), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            logits, tape = engine.forward(ir, x_all[idx], mode="train")
            _loss, dl = engine.softmax_cross_entropy(logits, y_all[idx])
            grads = engine.backward(tape, dl)
            reg = reference_regularizer_grad(ir, reg_groups, gammas,
                                             cfg.reg_weight, scope)
            for name, g in reg.items():
                grads[name] = grads[name] + g if name in grads else g
            reference_sgd_step(ir, grads, state, cfg.lr, cfg.momentum)
            step += 1
            if step % cfg.refresh_period == 0:
                gammas = refresh_gamma(ir, counted, cfg.alpha)
    return ir


@pytest.mark.parametrize("strategy", ["full-grouping", "conv-only",
                                      "no-grouping"])
@pytest.mark.parametrize("model", ["spiral_mlp", "residual_cnn"])
def test_training_loop_matches_reference_bytes(model, strategy):
    if model == "spiral_mlp":
        (xtr, ytr), _ = _tiny_task()
    else:
        (xtr, ytr), _ = train_test_split(*shapes(n=64, seed=4), seed=4)
    ir = toy_models.BUNDLED[model](seed=4)
    want = ir.copy()
    groups = extract_groups(build_depgraph(ir))
    cfg = SparseConfig(epochs=2, reg_weight=5e-2, lr=0.05, batch_size=16,
                       refresh_period=3, strategy=strategy, seed=4)
    train_sparse(ir, (xtr, ytr), cfg, groups)
    _reference_train(want, (xtr, ytr), cfg, groups)
    assert sorted(ir.weights) == sorted(want.weights)
    for name, w in want.weights.items():
        assert ir.weights[name].dtype == w.dtype == np.float32
        assert ir.weights[name].tobytes() == w.tobytes(), name


def test_sgd_step_updates_in_place_and_keeps_float32():
    ir = zoo.spiral_mlp(seed=1)
    names = sorted(ir.weights)
    want = ir.copy()
    rng = np.random.default_rng(0)
    state, want_state = {}, {}
    kept = dict(ir.weights)
    for _step in range(3):
        grads = {n: rng.standard_normal(w.shape).astype(np.float32)
                 for n, w in ir.weights.items()}
        engine.sgd_step(ir, grads, state, lr=0.1, momentum=0.9)
        reference_sgd_step(want, grads, want_state, lr=0.1, momentum=0.9)
    for name in names:
        assert ir.weights[name].dtype == np.float32
        assert ir.weights[name].tobytes() == want.weights[name].tobytes()
    for name, arr in kept.items():   # every weight updates in place
        assert ir.weights[name] is arr


def test_training_records_trace_per_epoch():
    (xtr, ytr), _ = _tiny_task()
    ir = zoo.spiral_mlp(seed=1)
    groups = extract_groups(build_depgraph(ir))
    cfg = SparseConfig(epochs=2, reg_weight=1e-3, lr=0.05, batch_size=16)
    _ir2, trace = train_sparse(ir, (xtr, ytr), cfg, groups)
    assert len(trace) == 2
    for epoch in trace:
        assert list(epoch) == [g.group_id for g in groups]
        for g in groups:
            imps = epoch[g.group_id]
            assert imps.dtype == np.float64 and imps.shape == (g.width,)
            assert (imps >= 0).all()


def test_conv_only_trace_counts_every_member():
    # conv-only regularizes the conv members alone, but the trace holds
    # the importance of every member of the extracted groups, batchnorm
    # and linear slices included, as under the other strategies
    (xtr, ytr), _ = train_test_split(*shapes(n=64, seed=4), seed=4)
    ir = zoo.residual_cnn(seed=4)
    groups = extract_groups(build_depgraph(ir))
    assert any(counted_group(ir, g, "conv-only").members != g.members
               for g in groups)
    cfg = SparseConfig(epochs=2, reg_weight=5e-2, lr=0.05, batch_size=16,
                       strategy="conv-only", seed=4)
    trained, trace = train_sparse(ir, (xtr, ytr), cfg, groups)
    assert list(trace[-1]) == [g.group_id for g in groups]
    for g in groups:
        assert (trace[-1][g.group_id].tobytes()
                == group_l2_importance(trained, g).tobytes()), g.group_id


def test_divergence_aborts_with_trace():
    (xtr, ytr), _ = _tiny_task()
    ir = zoo.spiral_mlp(seed=1)
    groups = extract_groups(build_depgraph(ir))
    cfg = SparseConfig(epochs=50, reg_weight=0.0, lr=1e4, batch_size=16)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train_sparse(ir, (xtr, ytr), cfg, groups)
    assert isinstance(exc.value.trace, list)
    for epoch in exc.value.trace:
        assert list(epoch) == [g.group_id for g in groups]


def test_gamma_refresh_period_respected():
    calls = []
    import grouprune.sparse as sparse_mod

    orig = sparse_mod.refresh_gamma

    def spy(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    (xtr, ytr), _ = _tiny_task()
    ir = zoo.spiral_mlp(seed=1)
    groups = extract_groups(build_depgraph(ir))
    cfg = SparseConfig(epochs=2, reg_weight=1e-3, lr=0.05, batch_size=16,
                       refresh_period=3)
    sparse_mod.refresh_gamma = spy
    try:
        train_sparse(ir, (xtr, ytr), cfg, groups)
    finally:
        sparse_mod.refresh_gamma = orig
    steps = 2 * ((len(xtr) + 15) // 16)
    assert len(calls) == 1 + steps // 3   # initial + every third step


def test_config_round_trip(tmp_path):
    cfg = SparseConfig(alpha=2.0, reg_weight=3e-4, epochs=7, seed=9)
    (tmp_path / "cfg.json").write_text(json.dumps(asdict(cfg)))
    loaded = SparseConfig.from_json(tmp_path / "cfg.json")
    assert loaded == cfg


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SparseConfig(alpha=-1)
    with pytest.raises(ValueError):
        SparseConfig(reg_weight=-0.1)
    with pytest.raises(ValueError):
        SparseConfig(strategy="mystery")


def test_near_zero_fraction_counts():
    epoch = {"a": np.array([1.0, 0.001, 0.5]), "b": np.array([0.0])}
    near, total = near_zero_fraction(epoch, threshold=0.01)
    assert (near, total) == (2, 4)   # a@1 below 1% of a's max, b all-zero


def test_grouped_sparsity_beats_layerwise_on_group_norms():
    # the qualitative trend: at equal reg strength, regularizing whole
    # groups drives more group-level indices toward zero than per-layer
    # regularization measured on the same groups
    x, y = shapes(n=192, seed=3)
    (xtr, ytr), _ = train_test_split(x, y, seed=3)
    counts = {}
    for strategy in ("full-grouping", "no-grouping"):
        ir = zoo.residual_cnn(seed=3)
        groups = extract_groups(build_depgraph(ir))
        cfg = SparseConfig(epochs=6, reg_weight=2e-2, lr=0.05, batch_size=64,
                           strategy=strategy, seed=3, refresh_period=10)
        trained, _trace = train_sparse(ir, (xtr, ytr), cfg, groups)
        final = {g.group_id: group_l2_importance(trained, g) for g in groups}
        near, _total = near_zero_fraction(final)
        counts[strategy] = near
    assert counts["full-grouping"] >= counts["no-grouping"]


@pytest.mark.parametrize("model", ["spiral_mlp", "residual_cnn"])
def test_sgd_step_in_blocks_matches_reference(model, monkeypatch):
    # 5-element blocks split every tensor along axis 0, with a remainder
    monkeypatch.setattr(engine, "_CHUNK", 5)
    ir = toy_models.BUNDLED[model](seed=2)
    want = ir.copy()
    rng = np.random.default_rng(1)
    state, want_state = {}, {}
    kept = dict(ir.weights)
    for _step in range(3):
        grads = {n: rng.standard_normal(w.shape).astype(np.float32)
                 for n, w in ir.weights.items()}
        engine.sgd_step(ir, grads, state, lr=0.05, momentum=0.9)
        reference_sgd_step(want, grads, want_state, lr=0.05, momentum=0.9)
    for name, w in want.weights.items():
        assert ir.weights[name] is kept[name]
        assert ir.weights[name].tobytes() == w.tobytes(), name
        assert state[name].tobytes() == want_state[name].tobytes(), name
