import json

import numpy as np
import pytest

from grouprune import zoo
from grouprune.cli import main
from grouprune.ablate import make_data
from grouprune.ir import (NetworkIR, activation, batchnorm, eltwise,
                          init_weights, linear, load_model, save_model)
import toy_models
from random_nets import random_ir
from reference import read_csv


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

    # the second concat branch sits at an offset in the concat's group,
    # and each channel fans out to 4 x 4 head columns
    path = tmp_path / "concat.json"
    save_model(toy_models.concat_cnn(), path)
    assert main(["inspect", "--model", str(path), "--out", str(out)]) == 0
    report = (out / "groups.txt").read_text().splitlines()
    assert ("  branch_b:out             channels=8     transform=offset(8)"
            in report)
    assert ("  head:in                  channels=256   transform=expand(16)"
            in report)


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


def _edited(model, path, value):
    """The model's descriptor with _set(doc, path, value) applied."""
    doc = json.loads(model.read_text())
    _set(doc, path, value)
    return doc


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


@pytest.mark.parametrize("write, message", [
    (lambda model, bad: bad.write_bytes(b'{"format": "\xff"}'), "not UTF-8"),
    (lambda model, bad: (bad.write_text(model.read_text()),
                         (bad.parent / "model.bin").write_bytes(b"\0" * 5)),
     "not a multiple of 4"),
    (lambda model, bad: bad.write_text(json.dumps(
        dict(json.loads(model.read_text()), weights_file="a\0b"))),
     "NUL byte"),
    (lambda model, bad: bad.write_text(json.dumps(
        dict(json.loads(model.read_text()), format="onnx"))),
     "unknown format 'onnx'"),
    (lambda model, bad: bad.write_text(json.dumps(
        _edited(model, ("components", 1, "kind"), "softmax"))),
     "component 'conv1': unknown kind 'softmax'"),
    (lambda model, bad: bad.write_text(json.dumps(
        _edited(model, ("components", 1, "id"), "stem"))),
     "duplicate component ids"),
], ids=["not-utf8", "blob-size", "nul-in-weights-file", "unknown-format",
        "unknown-kind", "duplicate-ids"])
def test_inspect_unreadable_descriptor_exits_2(residual_model, tmp_path,
                                               capsys, write, message):
    bad = tmp_path / "broken.json"
    write(residual_model, bad)
    rc = main(["inspect", "--model", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _component(doc, comp_id):
    return next(c for c in doc["components"] if c["id"] == comp_id)


def _attrs(doc, comp_id):
    return _component(doc, comp_id)["attrs"]


@pytest.mark.parametrize("command", ["inspect", "prune"])
@pytest.mark.parametrize("mutate, message", [
    (lambda doc: _attrs(doc, "conv1").update(stride=2), "operand shapes differ"),
    (lambda doc: doc.update(input_shape=[1, 8]), "input_shape must be"),
    (lambda doc: doc.update(input_shape=[1]), "conv2d expects a rank-3 input"),
    (lambda doc: doc.update(input_shape=[1, 7, 7]),
     "pool: spatial 7x7 not divisible by kernel 2"),
    (lambda doc: doc.update(input_shape=[1, 6, 6]),
     "flat: spatial_size 16 != actual 9"),
    (lambda doc: (doc.update(input_shape=[1, 2, 2]),
                  _attrs(doc, "stem").update(padding=0)),
     "stem: non-positive output size"),
    (lambda doc: doc.update(input_consumers=[]),
     "no component consumes the network input"),
    # 16 of conv1's He-initialized weights, some of them negative
    (lambda doc: doc["tensors"]["bn1.running_var"].update(
        offset=doc["tensors"]["conv1.weight"]["offset"]),
     "bn1: tensor 'bn1.running_var' has a negative variance"),
    (lambda doc: _component(doc, "bn2")["params"].update(gamma="bn1.gamma"),
     "bn2: tensor 'bn1.gamma' is already the gamma of bn1"),
], ids=["stride-2", "rank-2-input", "flat-input", "odd-pool-input",
        "flatten-size", "kernel-too-large", "no-input-consumer",
        "negative-variance", "shared-tensor"])
def test_shapes_that_do_not_fit_exit_3(residual_model, tmp_path, capsys,
                                       command, mutate, message):
    """validate() ends with shape inference, so a wiring whose tensor
    shapes do not work out fails there, not later in the engine; it
    decides the wiring and the weight store first, so their faults exit 3
    at load too."""
    doc = json.loads(residual_model.read_text())
    mutate(doc)
    bad = tmp_path / "misfit.json"   # its weights_file is still model.bin
    bad.write_text(json.dumps(doc))
    extra = ["--ratio", "0.5"] if command == "prune" else []
    rc = main([command, "--model", str(bad), "--out", str(tmp_path / "o")]
              + extra)
    assert rc == 3
    assert message in capsys.readouterr().err


def test_inspect_misaligned_flatten_exits_3(tmp_path, capsys):
    """A valid network whose channels do not group fails in analysis."""
    path = tmp_path / "model.json"
    save_model(toy_models.flatten_concat([("fa", 8), ("la", 3)]), path)
    rc = main(["inspect", "--model", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "group width = 11/4 is not an integer" in err


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
    save_model(toy_models.BUNDLED[model](seed=5), path)
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


def test_train_determinism_byte_identical(tmp_path):
    model = tmp_path / "model.json"
    save_model(zoo.spiral_mlp(seed=1), model)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["train", "--model", str(model), "--data", "spiral",
                     "--out", str(out), "--epochs", "2", "--seed", "3"]) == 0
        outs.append(out)
    for name in ("trained.json", "trained.bin", "trace.csv",
                 "sparsity_hist.csv"):
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


@pytest.mark.parametrize("config, extra, message", [
    ({"bogus": 1}, [], "unknown config keys ['bogus']"),
    ({"alpha": "x"}, [], "alpha must be a finite number"),
    ([1, 2], [], "config must be a JSON object"),
    ({"batch_size": 0}, [], "batch_size must be >= 1"),
    ({"lr": 0}, [], "lr must be > 0"),
    ({}, ["--epochs", "0"], "epochs must be >= 1"),
    ({}, ["--lr", "nan"], "lr must be a finite number"),
    ({}, ["--seed", "-1"], "seed must be >= 0"),
    ({"strategy": "random"}, [], "train does not accept the random strategy"),
    ({"lr": 10 ** 400}, [], "lr must be a finite number"),
    ({"momentum": 1.5}, [], "momentum must be <= 1"),
    ("{not json", [], "not a JSON config"),
], ids=["unknown-key", "alpha-str", "top-level-list", "batch-size-0",
        "lr-0", "epochs-0", "lr-nan", "seed-negative", "strategy-random",
        "lr-int-beyond-float", "momentum-above-1", "not-json"])
def test_train_bad_config_field_exits_2(tmp_path, capsys, config, extra,
                                        message):
    model = tmp_path / "model.json"
    save_model(zoo.spiral_mlp(), model)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    rc = main(["train", "--model", str(model), "--data", "spiral",
               "--out", str(tmp_path / "o"), "--config", str(cfg)] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, message", [
    (["--ratio", "1.0"], "ratio must be in [0, 1)"),
    (["--ratio", "-0.1"], "ratio must be in [0, 1)"),
    (["--ratio", "0.5", "--seed", "-1"], "seed must be >= 0"),
    (["--ratio", "0.5", "--topn", "1000"], "topn must be in"),
    (["--ratio", "0.5", "--topn", "0"], "topn must be in"),
    (["--ratio", "0.5", "--topn", "2", "--strategy", "random"],
     "topn does not apply to the random strategy"),
    (["--ratio", "0.5", "--topn", "0", "--strategy", "random"],
     "topn must be in"),
], ids=["ratio-1", "ratio-negative", "seed-negative", "topn-too-wide",
        "topn-0", "topn-random", "topn-0-random"])
def test_prune_bad_setting_exits_2(residual_model, tmp_path, capsys, extra,
                                   message):
    rc = main(["prune", "--model", str(residual_model),
               "--out", str(tmp_path / "o")] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_train_unknown_dataset_exits_2(tmp_path):
    model = tmp_path / "model.json"
    save_model(zoo.spiral_mlp(), model)
    rc = main(["train", "--model", str(model), "--data", "imagenet",
               "--out", str(tmp_path / "o")])
    assert rc == 2


MODELS = {**toy_models.BUNDLED, "random_ir_8": lambda: random_ir(8)}


@pytest.mark.parametrize("model, data, message", [
    pytest.param("residual_cnn", "spiral", "does not match declared",
                 id="residual_cnn-spiral"),
    pytest.param("spiral_mlp", "shapes", "does not match declared",
                 id="spiral_mlp-shapes"),
    # 3 outputs against the 4 shape classes
    pytest.param("random_ir_8", "shapes", "has 3 outputs but the data has 4 "
                 "classes", id="random_ir_8-shapes"),
])
def test_train_on_data_that_does_not_fit_exits_2(model, data, message,
                                                 tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(MODELS[model](), path)
    rc = main(["train", "--model", str(path), "--data", data,
               "--out", str(tmp_path / "o"), "--epochs", "1"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(30))
def test_train_random_ir_exits_0_or_2(seed, tmp_path, capsys):
    ir = random_ir(seed)
    fits = [name for name in ("spiral", "shapes")
            if make_data(name, 0)[0][0].shape[1:] == ir.input_shape]
    path = tmp_path / "model.json"
    save_model(ir, path)
    for data in fits:
        rc = main(["train", "--model", str(path), "--data", data,
                   "--out", str(tmp_path / data), "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc in (0, 2), (data, err)
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err


# small validated networks of 2 inputs and 2 outputs, as (components, edges,
# raw-input consumers), that neither the bundled nor the random models cover
EDGE_CASES = {
    "activation-only": ([activation("act", 2)], [], [("act", 0)]),
    "bias-free": ([linear("fc1", 2, 8, bias=False), activation("act", 8),
                   linear("fc2", 8, 2, bias=False)],
                  [("fc1", 0, "act", 0), ("act", 0, "fc2", 0)], [("fc1", 0)]),
    "raw-mul": ([eltwise("mul", 2, op="mul"), linear("fc", 2, 2)],
                [("mul", 0, "fc", 0)], [("mul", 0), ("mul", 1)]),
    "batchnorm-exit": ([linear("fc", 2, 2), batchnorm("bn", 2)],
                       [("fc", 0, "bn", 0)], [("fc", 0)]),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_network_exits_cleanly(case, tmp_path, capsys):
    """Every command ends in an exit code, never a traceback; a failure
    prints one error line. The activation-only network has no MACs, so
    its prunes exit 3."""
    comps, edges, consumers = EDGE_CASES[case]
    ir = NetworkIR(comps, edges, (2,), consumers)
    init_weights(ir, np.random.default_rng(0))
    path = tmp_path / "model.json"
    save_model(ir, path)
    for i, cmd in enumerate((["inspect"],
                             ["prune", "--ratio", "0.5"],
                             ["prune", "--ratio", "0.5", "--mode", "learned"],
                             ["train", "--data", "spiral", "--epochs", "1"],
                             ["train", "--data", "spiral", "--epochs", "1",
                              "--strategy", "no-grouping"])):
        rc = main(cmd + ["--model", str(path), "--out", str(tmp_path / str(i))])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), (cmd, err)
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        if case == "activation-only" and cmd[0] == "prune":
            assert rc == 3 and "no MACs" in err


def test_ablate_unknown_strategy_exits_2(tmp_path):
    rc = main(["ablate", "--out", str(tmp_path / "o"),
               "--strategies", "psychic", "--seeds", "0"])
    assert rc == 2


@pytest.mark.parametrize("extra, message", [
    (["--speedups", "abc"], "--speedups: bad item 'abc'"),
    (["--speedups", "0.5"], "--speedups: bad item '0.5'"),
    (["--modes", "greedy"], "--modes: bad item 'greedy'"),
    (["--seeds", "-1"], "--seeds: bad item '-1'"),
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--data", "imagenet"], "unknown dataset 'imagenet'"),
    (["--speedups", "2,3,2"], "--speedups: repeated column label '2x'"),
    (["--speedups", "2,2.0000001"], "--speedups: repeated column label '2x'"),
    (["--modes", "learned,uniform,learned"],
     "--modes: repeated column label 'learned'"),
], ids=["speedup-not-number", "speedup-below-1", "unknown-mode",
        "seed-negative", "epochs-0", "unknown-dataset", "speedup-repeated",
        "speedups-print-alike", "mode-repeated"])
def test_ablate_bad_setting_exits_2(tmp_path, capsys, extra, message):
    rc = main(["ablate", "--data", "spiral", "--out", str(tmp_path / "o"),
               "--seeds", "0", "--epochs", "1"] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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


def test_ablate_table_is_the_median_of_its_cells(tmp_path):
    out = tmp_path / "o"
    rc = main(["ablate", "--data", "spiral", "--out", str(out),
               "--strategies", "no-grouping,full-grouping",
               "--speedups", "1.5", "--modes", "uniform,learned",
               "--seeds", "0,1", "--epochs", "1"])
    assert rc == 0
    header, rows = read_csv(out / "ablation.csv")
    assert header == ["strategy", "1.5x/uniform", "1.5x/learned"]
    assert [r[0] for r in rows] == ["full-grouping", "no-grouping"]
    _h, cells = read_csv(out / "ablation_cells.csv")
    assert len(cells) == 8
    for strategy, *values in rows:
        for col, value in zip(header[1:], values):
            accs = [float(c[4]) for c in cells
                    if (c[0], f"{float(c[1]):g}x/{c[2]}") == (strategy, col)]
            assert len(accs) == 2
            assert float(value) == pytest.approx(np.median(accs), abs=1e-6)
