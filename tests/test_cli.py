import json

import numpy as np
import pytest

from grouprune import zoo
from grouprune.cli import main
from grouprune.ir import load_model, save_model
from grouprune.reporting import read_csv


@pytest.fixture
def residual_model(tmp_path):
    path = tmp_path / "model.json"
    save_model(zoo.residual_cnn(seed=0), path)
    return path


def test_inspect_residual_block(residual_model, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["inspect", "--model", str(residual_model), "--out", str(out)])
    assert rc == 0
    assert (out / "depgraph.csv").exists()
    assert (out / "grouping.csv").exists()
    report = (out / "groups.txt").read_text()
    # the component-level group of conv2 names the whole block
    block_lines = [ln for ln in report.splitlines()
                   if "conv2" in ln and ln.strip().startswith("{")]
    assert block_lines
    for name in ("conv1", "bn1", "bn2"):
        assert any(name in ln for ln in block_lines)


def test_inspect_mlp_chain_groups(tmp_path):
    path = tmp_path / "mlp.json"
    save_model(zoo.spiral_mlp(), path)
    out = tmp_path / "out"
    assert main(["inspect", "--model", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "depgraph.csv")
    n = len(zoo.spiral_mlp().components) * 2
    assert len(rows) == n


def test_inspect_missing_file_exits_4(tmp_path):
    rc = main(["inspect", "--model", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 4


def test_inspect_bad_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["inspect", "--model", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_inspect_invalid_ir_exits_3(tmp_path, residual_model):
    doc = json.loads(residual_model.read_text())
    for comp in doc["components"]:
        if comp["id"] == "conv1":
            comp["attrs"]["out_channels"] = 999
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(doc))
    (tmp_path / "invalid.bin").write_bytes(
        (residual_model.parent / "model.bin").read_bytes())
    rc = main(["inspect", "--model", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_prune_conv_stride_zero_exits_3(residual_model, tmp_path):
    doc = json.loads(residual_model.read_text())
    for comp in doc["components"]:
        if comp["id"] == "conv1":
            comp["attrs"]["stride"] = 0
    bad = tmp_path / "stride0.json"   # its weights_file is still model.bin
    bad.write_text(json.dumps(doc))
    rc = main(["prune", "--model", str(bad), "--out", str(tmp_path / "o"),
               "--ratio", "0.5"])
    assert rc == 3


@pytest.mark.parametrize("section, key", [("edges", "src"), ("edges", "dst"),
                                          ("input_consumers", "dst")])
def test_inspect_entry_without_endpoint_exits_2(residual_model, tmp_path,
                                                capsys, section, key):
    doc = json.loads(residual_model.read_text())
    del doc[section][0][key]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    rc = main(["inspect", "--model", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"missing field {key!r}" in err


_DROP = object()


def _set(doc, path, value):
    """Set (or, for _DROP, delete) the value at a path of keys/indices."""
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is _DROP:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize("path, value, field", [
    (("components", 0), "conv1", "component 0"),
    (("components", 0, "attrs"), [3], "'attrs'"),
    (("edges",), {"src": "conv1"}, "'edges'"),
    (("tensors", "conv1.weight", "shape"), _DROP, "'shape'"),
    (("edges", 0, "src_port"), "0", "'src_port'"),
    (("edges", 0, "dst_port"), True, "'dst_port'"),
    (("tensors", "conv1.weight", "offset"), -4, "'offset'"),
    (("components", 0, "params"), {"weight": 7}, "'params'"),
], ids=["component-not-object", "attrs-not-object", "edges-not-list",
        "tensor-without-shape", "port-str", "port-bool", "negative-offset",
        "tensor-name-not-str"])
def test_inspect_malformed_field_exits_2(residual_model, tmp_path, capsys,
                                         path, value, field):
    doc = json.loads(residual_model.read_text())
    _set(doc, path, value)
    bad = tmp_path / "broken.json"   # its weights_file is still model.bin
    bad.write_text(json.dumps(doc))
    rc = main(["inspect", "--model", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and field in err


def _conv1_attrs(doc):
    return next(c for c in doc["components"] if c["id"] == "conv1")["attrs"]


@pytest.mark.parametrize("command", ["inspect", "prune"])
@pytest.mark.parametrize("mutate, message", [
    (lambda doc: _conv1_attrs(doc).update(stride=2), "operand shapes differ"),
    (lambda doc: doc.update(input_shape=[1, 8]), "input_shape must be"),
    (lambda doc: doc.update(input_shape=[1]), "conv2d expects a rank-3 input"),
], ids=["stride-2", "rank-2-input", "flat-input"])
def test_shapes_that_do_not_fit_exit_3(residual_model, tmp_path, capsys,
                                       command, mutate, message):
    """validate() ends with shape inference, so a wiring whose tensor
    shapes do not work out fails there, not later in the engine."""
    doc = json.loads(residual_model.read_text())
    mutate(doc)
    bad = tmp_path / "misfit.json"   # its weights_file is still model.bin
    bad.write_text(json.dumps(doc))
    extra = ["--ratio", "0.5"] if command == "prune" else []
    rc = main([command, "--model", str(bad), "--out", str(tmp_path / "o")]
              + extra)
    assert rc == 3
    assert message in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["explode"]) == 2


def test_prune_ratio_zero_identity(residual_model, tmp_path):
    out = tmp_path / "out"
    rc = main(["prune", "--model", str(residual_model), "--out", str(out),
               "--ratio", "0", "--mode", "uniform"])
    assert rc == 0
    pruned = load_model(out / "pruned.json")
    base = load_model(residual_model)
    for name, arr in base.weights.items():
        np.testing.assert_array_equal(arr, pruned.weights[name])


def test_prune_uniform_half(residual_model, tmp_path):
    out = tmp_path / "out"
    rc = main(["prune", "--model", str(residual_model), "--out", str(out),
               "--ratio", "0.5", "--mode", "uniform", "--seed", "3"])
    assert rc == 0
    _h, rows = read_csv(out / "prune_report.csv")
    for row in rows:
        assert int(row[2]) == int(row[1]) - int(row[3])
        assert int(row[3]) == int(row[1]) // 2
    assert (out / "plan.json").exists()
    report = (out / "prune_report.txt").read_text()
    assert "speedup" in report and "MACs" in report


def test_prune_learned_mode(residual_model, tmp_path):
    out = tmp_path / "out"
    rc = main(["prune", "--model", str(residual_model), "--out", str(out),
               "--ratio", "0.5", "--mode", "learned"])
    assert rc == 0
    pruned = load_model(out / "pruned.json")
    assert pruned.validate() == []


@pytest.mark.parametrize("model", ["concat_cnn", "split_cnn"])
@pytest.mark.parametrize("mode", ["uniform", "learned"])
def test_prune_no_grouping_keeps_every_port(model, mode, tmp_path):
    """Layer-wise scores alone would empty a concat/split port here; the
    plan builders keep one index of every port window instead."""
    path = tmp_path / "model.json"
    save_model(zoo.BUNDLED[model](seed=5), path)
    out = tmp_path / "out"
    rc = main(["prune", "--model", str(path), "--out", str(out), "--ratio",
               "0.5", "--mode", mode, "--strategy", "no-grouping"])
    assert rc == 0
    assert load_model(out / "pruned.json").validate() == []


def test_prune_determinism_byte_identical(residual_model, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["prune", "--model", str(residual_model), "--out",
                     str(out), "--ratio", "0.4", "--mode", "learned",
                     "--seed", "7"]) == 0
        outs.append(out)
    for name in ("pruned.json", "pruned.bin", "plan.json",
                 "prune_report.csv", "prune_report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_train_lambda_zero_then_prune_composes(tmp_path):
    model = tmp_path / "model.json"
    save_model(zoo.spiral_mlp(seed=1), model)
    out = tmp_path / "trained"
    rc = main(["train", "--model", str(model), "--data", "spiral",
               "--out", str(out), "--epochs", "2", "--reg-weight", "0",
               "--seed", "0"])
    assert rc == 0
    assert (out / "trace.csv").exists()
    assert (out / "sparsity_hist.csv").exists()
    out2 = tmp_path / "pruned"
    rc = main(["prune", "--model", str(out / "trained.json"),
               "--out", str(out2), "--ratio", "0.3", "--mode", "uniform"])
    assert rc == 0
    assert load_model(out2 / "pruned.json").validate() == []


def test_train_trace_schema(tmp_path):
    model = tmp_path / "model.json"
    save_model(zoo.spiral_mlp(seed=1), model)
    out = tmp_path / "out"
    rc = main(["train", "--model", str(model), "--data", "spiral",
               "--out", str(out), "--epochs", "2", "--strategy",
               "full-grouping", "--seed", "0"])
    assert rc == 0
    header, rows = read_csv(out / "trace.csv")
    assert header == ["epoch", "group", "k", "importance"]
    assert {r[0] for r in rows} == {"0", "1"}
    assert all(float(r[3]) >= 0 for r in rows)


def test_train_bad_config_exits_2(tmp_path):
    model = tmp_path / "model.json"
    save_model(zoo.spiral_mlp(), model)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": -3}))
    rc = main(["train", "--model", str(model), "--data", "spiral",
               "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 2


def test_train_unknown_dataset_exits_2(tmp_path):
    model = tmp_path / "model.json"
    save_model(zoo.spiral_mlp(), model)
    rc = main(["train", "--model", str(model), "--data", "imagenet",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("model, data", [("residual_cnn", "spiral"),
                                         ("spiral_mlp", "shapes")])
def test_train_on_data_that_does_not_fit_exits_2(model, data, tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(zoo.BUNDLED[model](), path)
    rc = main(["train", "--model", str(path), "--data", data,
               "--out", str(tmp_path / "o"), "--epochs", "1"])
    assert rc == 2
    assert "does not match declared" in capsys.readouterr().err


def test_ablate_unknown_strategy_exits_2(tmp_path):
    rc = main(["ablate", "--out", str(tmp_path / "o"),
               "--strategies", "psychic", "--seeds", "0"])
    assert rc == 2


def test_ablate_single_cell(tmp_path):
    out = tmp_path / "o"
    rc = main(["ablate", "--data", "spiral", "--out", str(out),
               "--strategies", "full-grouping", "--speedups", "1.5",
               "--modes", "uniform", "--seeds", "0", "--epochs", "2"])
    assert rc == 0
    header, rows = read_csv(out / "ablation.csv")
    assert header == ["strategy", "1.5x/uniform"]
    assert len(rows) == 1
    assert 0.0 <= float(rows[0][1]) <= 1.0
    _h2, cells = read_csv(out / "ablation_cells.csv")
    assert len(cells) == 1
