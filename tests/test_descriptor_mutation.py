"""Mutated model descriptors never escape the CLI as a traceback.

Each example takes a saved descriptor (a bundled model or a random IR),
applies one mutation, and runs `prune` on it. The CLI must answer with an
exit code (0, or 2/3/4 for parse, validation and I/O faults). When it
says 0, the pruned model must reload, run forward, count its MACs and
take one training step: a train-mode forward and a backward whose
gradients have their weights' shapes and are finite. Perturbed kernel,
stride and padding ints reach the conv kernels with geometry no bundled
model has.

A second property runs `train --epochs 1` on a mutated descriptor of a
model whose input fits a bundled dataset. It must answer with an exit
code too, and a model it trains must reload with finite weights.
"""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from grouprune import engine
from grouprune.cli import main
from grouprune.ir import load_model, save_model
from random_nets import random_ir
import toy_models

MODELS = sorted(toy_models.BUNDLED) + [f"random_ir{s}" for s in range(8)]
MUTATIONS = ("drop", "retype", "perturb", "swap-endpoint", "port")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Directory holding every model's descriptor and blob."""
    root = tmp_path_factory.mktemp("models")
    for name in MODELS:
        ir = (random_ir(int(name[len("random_ir"):]))
              if name.startswith("random_ir") else toy_models.BUNDLED[name]())
        save_model(ir, root / f"{name}.json")
    return root


def _paths(node, prefix=()):
    """Path of every value below node, as a tuple of keys and indices."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _mutate(doc, kind, data):
    """Apply one mutation of the given kind in place; returns its label."""
    paths = list(_paths(doc))
    if kind == "perturb":
        ints = [p for p in paths if _is_int(_parent(doc, p)[p[-1]])]
        path = data.draw(st.sampled_from(ints))
        old = _parent(doc, path)[path[-1]]
        new = data.draw(st.sampled_from([old - 1, old, old + 1, 2 * old]))
        _parent(doc, path)[path[-1]] = new
        return f"{path} {old} -> {new}"
    if kind in ("swap-endpoint", "port"):
        section = data.draw(st.sampled_from(
            ["edges", "input_consumers"] if kind == "port" else ["edges"]))
        if not doc[section]:
            return "no entry to change"
        entry = data.draw(st.sampled_from(doc[section]))
        if kind == "port":
            key = data.draw(st.sampled_from(
                ["src_port", "dst_port"] if section == "edges" else ["dst_port"]))
            entry[key] = data.draw(st.integers(-1, 3))
            return f"{section} {key} -> {entry[key]}"
        key = data.draw(st.sampled_from(["src", "dst"]))
        entry[key] = data.draw(st.sampled_from([c["id"] for c in doc["components"]]))
        return f"edge {key} -> {entry[key]}"
    path = data.draw(st.sampled_from(paths))
    parent = _parent(doc, path)
    if kind == "drop":
        del parent[path[-1]]
        return f"drop {path}"
    parent[path[-1]] = data.draw(st.sampled_from(["x", [], [1], None, True]))
    return f"retype {path} -> {parent[path[-1]]!r}"


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_descriptor_prunes_or_exits_with_a_code(saved, data):
    name = data.draw(st.sampled_from(MODELS))
    doc = json.loads((saved / f"{name}.json").read_text())
    note(f"{name}: {_mutate(doc, data.draw(st.sampled_from(MUTATIONS)), data)}")
    model = saved / "mutated.json"   # beside every blob it may name
    model.write_text(json.dumps(doc))
    out = saved / "out"
    shutil.rmtree(out, ignore_errors=True)
    mode = data.draw(st.sampled_from(["uniform", "learned"]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["prune", "--model", str(model), "--out", str(out),
                   "--ratio", "0.5", "--mode", mode])
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        return
    pruned = load_model(out / "pruned.json")
    x = np.random.default_rng(0).normal(size=(2,) + pruned.input_shape)
    assert engine.forward(pruned, x).shape[0] == 2
    assert engine.count_macs(pruned) >= 0
    y, tape = engine.forward(pruned, x, mode="train")
    for name, g in engine.backward(tape, np.ones_like(y)).items():
        assert g.shape == pruned.weights[name].shape, name
        assert np.isfinite(g).all(), name


# the models whose input fits a bundled dataset, and that dataset
TRAINABLE = {"spiral_mlp": "spiral", "random_ir5": "spiral",
             **{name: "shapes" for name in ("residual_cnn", "concat_cnn",
                                            "depthwise_cnn", "grouped_cnn",
                                            "split_cnn")}}


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_descriptor_trains_or_exits_with_a_code(saved, data):
    name = data.draw(st.sampled_from(sorted(TRAINABLE)))
    doc = json.loads((saved / f"{name}.json").read_text())
    note(f"{name}: {_mutate(doc, data.draw(st.sampled_from(MUTATIONS)), data)}")
    model = saved / "mutated.json"
    model.write_text(json.dumps(doc))
    out = saved / "out"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["train", "--model", str(model), "--out", str(out),
                   "--data", TRAINABLE[name], "--epochs", "1"])
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        return
    trained = load_model(out / "trained.json")
    assert all(np.isfinite(w).all() for w in trained.weights.values())
