import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouprune import zoo
from grouprune.dependency import build_depgraph
from grouprune.grouping import extract_groups
from grouprune.importance import (GroupImportance, default_topn,
                                  group_l2_importance, relative_score,
                                  select_prune_indices)
from grouprune.pruning import _seed_component_for
from grouprune.sparse import layer_pseudo_groups

from conftest import oracle_models
from reference import reference_group_l2_importance, transform_locals


def middle_group(ir):
    groups = extract_groups(build_depgraph(ir))
    return next(g for g in groups if "fc1:out" in g.member_ids())


def test_single_linear_row_norms_squared():
    ir = zoo.two_layer_mlp(in_features=4, hidden=3, out_features=2)
    w = np.zeros((3, 4), dtype=np.float32)
    w[0, 0], w[1, 0], w[2, 0] = 1.0, 2.0, 3.0
    ir.weights["fc1.weight"] = w
    ir.weights["fc1.bias"][:] = 0.0
    group = layer_pseudo_groups(ir)[0]   # fc1's output half alone
    imp = group_l2_importance(ir, group)
    np.testing.assert_allclose(imp.values, [1.0, 4.0, 9.0])


def test_two_identical_members_double_importance():
    ir = zoo.two_layer_mlp(in_features=4, hidden=3, out_features=4)
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(3, 4)).astype(np.float32)
    ir.weights["fc1.weight"] = w1
    ir.weights["fc1.bias"][:] = 0.0
    ir.weights["fc2.weight"] = w1.T.copy()   # columns mirror fc1's rows
    group = middle_group(ir)
    imp = group_l2_importance(ir, group)
    np.testing.assert_allclose(imp.values, 2 * (w1 ** 2).sum(axis=1),
                               rtol=1e-6)


def test_residual_group_matches_naive_recount():
    ir = zoo.residual_cnn(seed=4)
    groups = extract_groups(build_depgraph(ir))
    for group in groups:
        imp = group_l2_importance(ir, group)
        # independent recount: walk members, slice tensors index by index
        expected = np.zeros(group.width)
        for k in range(group.width):
            seen = set()
            for m in group.members:
                comp = ir.component(m.half.component_id)
                for sl in m.half.scheme.slices:
                    name = comp.params[sl.role]
                    for local in transform_locals(m.transform, k, m.half.channels):
                        key = (name, sl.axis, local)
                        if key in seen:
                            continue
                        seen.add(key)
                        piece = np.take(ir.weights[name], local, axis=sl.axis)
                        expected[k] += float(np.linalg.norm(
                            piece.astype(np.float64)) ** 2)
        np.testing.assert_allclose(imp.values, expected, rtol=1e-6)


def test_batchnorm_state_counted_once():
    ir = zoo.residual_cnn(seed=4)
    groups = extract_groups(build_depgraph(ir))
    group = next(g for g in groups if "bn1:in" in g.member_ids())
    assert "bn1:out" in g.member_ids() if (g := group) else True
    imp = group_l2_importance(ir, group)
    gamma = ir.weights["bn1.gamma"].astype(np.float64)
    # conv1 row + bn state + conv2 column + act passthrough(0)
    k = 0
    bn_part = sum(ir.weights[f"bn1.{r}"].astype(np.float64)[k] ** 2
                  for r in ("gamma", "beta", "running_mean", "running_var"))
    conv1_part = float((ir.weights["conv1.weight"][k].astype(np.float64) ** 2).sum()
                       + ir.weights["conv1.bias"].astype(np.float64)[k] ** 2)
    conv2_part = float((ir.weights["conv2.weight"][:, k].astype(np.float64) ** 2).sum())
    assert imp.values[k] == pytest.approx(bn_part + conv1_part + conv2_part,
                                          rel=1e-6)
    assert gamma is not None


def test_passthrough_members_contribute_zero():
    ir = zoo.concat_cnn()
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "cat:in" in g.member_ids())
    # zero every parameterized member; importance must vanish even though
    # pass-through members remain
    z = ir.copy()
    for name in ("branch_a.weight", "branch_a.bias", "branch_b.weight",
                 "branch_b.bias", "head.weight"):
        z.weights[name][:] = 0.0
    for name in ("bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var"):
        z.weights[name][:] = 0.0
    imp = group_l2_importance(z, g)
    np.testing.assert_array_equal(imp.values, 0.0)


def test_importance_matches_set_oracle():
    for name, ir in oracle_models():
        for group in extract_groups(build_depgraph(ir)):
            seed = _seed_component_for(group, ir)
            for scope in ("full", "conv", "seed"):
                got = group_l2_importance(ir, group, scope, seed).values
                want = reference_group_l2_importance(ir, group, scope, seed)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0,
                                           err_msg=f"{name} {group.group_id} {scope}")


_DIGEST = """
import hashlib
from grouprune import zoo
from grouprune.dependency import build_depgraph
from grouprune.grouping import extract_groups
from grouprune.importance import group_l2_importance
from grouprune.random_nets import random_ir
h = hashlib.sha256()
for seed in range(20):
    for ir in (zoo.residual_cnn(seed=seed), random_ir(seed)):
        for g in extract_groups(build_depgraph(ir)):
            h.update(group_l2_importance(ir, g).values.tobytes())
print(h.hexdigest())
"""


def test_importance_independent_of_hash_seed():
    """String hashing changes per process; the sum must not follow it."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", _DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


# -- relative score -----------------------------------------------------------


def _imp(values):
    return GroupImportance("g", np.asarray(values, dtype=np.float64), "full")


def test_relative_score_uniform_case():
    np.testing.assert_allclose(relative_score(_imp([4, 4, 4, 4]), 2),
                               [1, 1, 1, 1])


def test_relative_score_all_zero_sentinel():
    np.testing.assert_array_equal(relative_score(_imp([0, 0, 0, 0]), 2),
                                  [0, 0, 0, 0])


def test_relative_score_hand_case():
    np.testing.assert_allclose(relative_score(_imp([1, 2, 3, 4]), 2),
                               [2 / 7, 4 / 7, 6 / 7, 8 / 7])


def test_relative_score_tie_break_lower_index():
    # ties at the TopN cut: index 1 enters the normalizer before index 2
    scores = relative_score(_imp([5, 3, 3, 1]), 2)
    np.testing.assert_allclose(scores, 2 * np.array([5, 3, 3, 1.0]) / 8.0)


def test_default_topn_is_half_rounded_up():
    assert default_topn(4) == 2
    assert default_topn(5) == 3
    assert default_topn(1) == 1


@settings(max_examples=200)
@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=32),
       st.data())
def test_relative_score_topn_mass_sums_to_n(values, data):
    n = data.draw(st.integers(1, len(values)))
    imp = _imp(values)
    scores = relative_score(imp, n)
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    if sum(values) == 0:
        assert scores.sum() == 0
    else:
        assert float(scores[order[:n]].sum()) == pytest.approx(n, rel=1e-9)


@settings(max_examples=100)
@given(st.floats(0.1, 100), st.integers(0, 10 ** 6))
def test_scale_covariance(c, seed):
    ir = zoo.two_layer_mlp(seed=seed % 17)
    group = middle_group(ir)
    base = group_l2_importance(ir, group)
    scaled = ir.copy()
    for m in group.members:
        comp = scaled.component(m.half.component_id)
        for sl in m.half.scheme.slices:
            scaled.weights[comp.params[sl.role]] = (
                scaled.weights[comp.params[sl.role]] * c)
    after = group_l2_importance(scaled, group)
    np.testing.assert_allclose(after.values, c ** 2 * base.values, rtol=1e-5)
    n = default_topn(group.width)
    np.testing.assert_array_equal(np.argsort(relative_score(after, n)),
                                  np.argsort(relative_score(base, n)))


def test_permutation_equivariance():
    ir = zoo.two_layer_mlp(seed=3)
    group = middle_group(ir)
    base = group_l2_importance(ir, group).values
    rng = np.random.default_rng(0)
    perm = rng.permutation(group.width)
    permuted = ir.copy()
    permuted.weights["fc1.weight"] = permuted.weights["fc1.weight"][perm]
    permuted.weights["fc1.bias"] = permuted.weights["fc1.bias"][perm]
    permuted.weights["fc2.weight"] = permuted.weights["fc2.weight"][:, perm]
    after = group_l2_importance(permuted, group).values
    np.testing.assert_allclose(after, base[perm], rtol=1e-6)


# -- selection ----------------------------------------------------------------


def test_select_basic():
    sel = select_prune_indices([9, 1, 4], ratio=1 / 3, min_keep=1)
    assert sel.indices == (1,)


def test_select_ratio_zero_is_empty():
    sel = select_prune_indices([9, 1, 4], ratio=0.0, min_keep=1)
    assert sel.indices == ()


def test_select_clamps_to_min_keep():
    sel = select_prune_indices([4, 3, 2, 1], ratio=0.99, min_keep=2)
    assert len(sel.indices) == 2
    assert sel.indices == (2, 3)


def test_select_tie_breaks_toward_lower_index():
    sel = select_prune_indices([5, 2, 2, 2], ratio=0.5, min_keep=1)
    assert sel.indices == (1, 2)


def test_select_respects_units():
    units = ((0, 1), (2, 3))
    sel = select_prune_indices([1, 1, 10, 10], ratio=0.5, min_keep=1,
                               units=units)
    assert sel.indices == (0, 1)
    # half a unit never fits: ratio 0.25 -> budget 1 < unit size 2
    sel = select_prune_indices([1, 1, 10, 10], ratio=0.25, min_keep=1,
                               units=units)
    assert sel.indices == ()


def test_select_rejects_bad_args():
    with pytest.raises(ValueError):
        select_prune_indices([1, 2], ratio=1.0)
    with pytest.raises(ValueError):
        select_prune_indices([1, 2], ratio=0.5, min_keep=0)
