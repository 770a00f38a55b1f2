import numpy as np
import pytest

from grouprune.errors import ModelParseError, ValidationError
from grouprune.ir import (NetworkIR, activation, batchnorm, conv2d,
                          eltwise, flatten, init_weights, linear, load_model,
                          pool, save_model)
from grouprune import zoo
import toy_models
from toy_models import concat, split


def test_three_layer_mlp_structure():
    ir = zoo.mlp([4, 8, 8, 3])
    linears = [c for c in ir.components if c.kind == "linear"]
    assert len(linears) == 3
    halves = ir.halves()
    assert len(halves) == 2 * len(ir.components)
    # direct chain: every consecutive pair contributes one edge
    assert len(ir.edges) == len(ir.components) - 1
    assert ir.validate() == []


def test_bare_mlp_without_activations():
    comps = [linear("fc1", 4, 8), linear("fc2", 8, 8), linear("fc3", 8, 3)]
    edges = [("fc1", 0, "fc2", 0), ("fc2", 0, "fc3", 0)]
    ir = NetworkIR(comps, edges, (4,), [("fc1", 0)])
    init_weights(ir, np.random.default_rng(0))
    assert ir.validate() == []
    assert len(ir.halves()) == 6
    assert len(ir.edges) == 2


def test_fig_block_decomposes_to_five_components():
    ir = toy_models.fig_block()
    assert len(ir.components) == 5
    kinds = [c.kind for c in ir.components]
    assert kinds.count("eltwise") == 1
    assert ir.component("add").attrs["op"] == "add"
    assert ir.validate() == []


def test_split_size_arithmetic_violation():
    comps = [conv2d("c", 3, 12, kernel=1), split("sp", [8, 8]),
             linear("l", 8, 2), linear("r", 8, 2), eltwise("e", 2, "add")]
    # split declares 16 channels but its producer provides 12
    edges = [("c", 0, "sp", 0), ("sp", 0, "l", 0), ("sp", 1, "r", 0),
             ("l", 0, "e", 0), ("r", 0, "e", 1)]
    ir = NetworkIR(comps, edges, (3, 4, 4), [("c", 0)])
    init_weights(ir, np.random.default_rng(0))
    violations = ir.validate()
    assert any("mismatch" in v for v in violations)
    with pytest.raises(ValidationError):
        ir.check_valid()


# -- pruning schemes --------------------------------------------------------


def _schemes(comp):
    """Pruning schemes of a component's input and output half."""
    h_in, h_out = NetworkIR([comp], [], (1,), []).halves()
    return h_in.scheme, h_out.scheme


def test_batchnorm_halves_share_scheme():
    s_in, s_out = _schemes(batchnorm("bn", 8))
    assert s_in == s_out
    roles = {role for role, _axis in s_in}
    assert roles == {"gamma", "beta", "running_mean", "running_var"}


def test_conv_halves_differ():
    s_in, s_out = _schemes(conv2d("c", 8, 8))
    assert s_in != s_out
    assert set(s_in) == {("weight", 1)}
    assert set(s_out) == {("weight", 0), ("bias", 0)}


def test_linear_schemes():
    s_in, s_out = _schemes(linear("fc", 4, 6))
    out_slices = set(s_out)
    in_slices = set(s_in)
    assert out_slices == {("weight", 0), ("bias", 0)}
    assert in_slices == {("weight", 1)}


def test_depthwise_conv_halves_share_scheme():
    s_in, s_out = _schemes(conv2d("c", 8, 8, groups=8))
    assert s_in == s_out


def test_depthwise_scheme_equality_is_functional():
    # zeroing output channel k of a depthwise conv is the same thing as
    # zeroing input channel k: both null w[k]
    from grouprune import engine

    ir = toy_models.depthwise_cnn(seed=3)
    x = np.random.default_rng(1).normal(size=(6,) + ir.input_shape).astype(np.float32)
    k = 5
    via_out = ir.copy()
    np.moveaxis(via_out.weights["dw.weight"], 0, 0)[k] = 0.0
    via_out.weights["dw.bias"][k] = 0.0
    y_out = engine.forward(via_out, x)

    via_in = ir.copy()
    via_in.weights["dw.weight"][k] = 0.0   # same rows: group k reads channel k
    via_in.weights["dw.bias"][k] = 0.0
    y_in = engine.forward(via_in, x)
    np.testing.assert_allclose(y_out, y_in, atol=1e-6)


def test_passthrough_halves_equal():
    s_in, s_out = _schemes(eltwise("e", 4, "add"))
    assert s_in == s_out
    assert not s_in


def test_scheme_of_is_deterministic():
    ir = zoo.residual_cnn()
    for half, again in zip(ir.halves(), ir.copy().halves()):
        a, b = half.scheme, again.scheme
        assert a == b
        assert hash(a) == hash(b)
        assert list(a) == list(b)


def test_half_channels_match_scheme_cardinality():
    ir = toy_models.concat_cnn()
    for h in ir.halves():
        assert h.channels > 0


# -- validation -------------------------------------------------------------


def test_validate_ok_on_residual_block():
    assert zoo.residual_cnn().validate() == []


def test_validate_wrong_weight_shape():
    ir = toy_models.two_layer_mlp()
    ir.weights["fc1.weight"] = ir.weights["fc1.weight"][:-1]
    violations = ir.validate()
    assert any("fc1.weight" in v and "shape" in v for v in violations)


def test_validate_cycle():
    comps = [linear("a", 4, 4), linear("b", 4, 4)]
    edges = [("a", 0, "b", 0), ("b", 0, "a", 0)]
    ir = NetworkIR(comps, edges, (4,), [("a", 0)])
    init_weights(ir, np.random.default_rng(0))
    violations = ir.validate()
    assert any("cycle" in v for v in violations)


def test_validate_rejects_nan_weights():
    ir = toy_models.two_layer_mlp()
    ir.weights["fc1.weight"][0, 0] = np.nan
    assert any("NaN" in v for v in ir.validate())


def test_validate_rejects_shared_tensor():
    # both roles would train and slice the one tensor
    ir = zoo.residual_cnn()
    ir.component("bn2").params["gamma"] = "bn1.gamma"
    assert ir.validate() == ["bn2: tensor 'bn1.gamma' is already the gamma "
                             "of bn1"]


def test_validate_rejects_float64_weight():
    ir = toy_models.two_layer_mlp()
    ir.weights["fc1.bias"] = ir.weights["fc1.bias"].astype(np.float64)
    assert ir.validate() == ["fc1: tensor 'fc1.bias' is float64, not float32"]


def test_validate_rejects_unknown_parameter_role():
    # a role the kind does not have was accepted, and save_model then
    # failed on its missing tensor with a KeyError
    ir = toy_models.fig_block()
    ir.component("add").params["weight"] = "nope"
    assert ir.validate() == ["add: unknown parameter role 'weight'"]


def test_grouped_conv_divisibility_enforced():
    c = conv2d("c", 6, 6, groups=4)
    ir = NetworkIR([c], [], (6, 4, 4), [("c", 0)])
    init_weights(ir, np.random.default_rng(0))
    assert any("does not divide" in v for v in ir.validate())


def test_grouped_conv_requires_equal_channels():
    c = conv2d("c", 4, 8, groups=2)
    ir = NetworkIR([c], [], (4, 4, 4), [("c", 0)])
    init_weights(ir, np.random.default_rng(0))
    assert any("equal in/out" in v for v in ir.validate())


@pytest.mark.parametrize("comp, message", [
    (conv2d("c", 4, 4, groups=True), "attr 'groups' must be positive int, got True"),
    (split("c", [True, 3]), "sizes must be a non-empty list of positive ints"),
    (conv2d("c", 4, 4, stride=0), "attr 'stride' must be positive int, got 0"),
    (conv2d("c", 4, 4, padding=-1),
     "attr 'padding' must be non-negative int, got -1"),
], ids=["bool-int-attr", "bool-size", "stride-zero", "negative-padding"])
def test_validate_rejects_bad_int_attrs(comp, message):
    ir = NetworkIR([comp], [], (4, 4, 4), [("c", 0)])
    init_weights(ir, np.random.default_rng(0))
    assert f"c: {message}" in ir.validate()


_DROP = object()   # the fault is a missing attribute

_ATTR_BASES = {
    "linear": lambda: linear("c", 4, 4),
    "conv2d": lambda: conv2d("c", 8, 8, kernel=3, padding=1),
    "batchnorm": lambda: batchnorm("c", 4),
    "activation": lambda: activation("c", 4),
    "pool": lambda: pool("c", 4),
    "eltwise": lambda: eltwise("c", 4),
    "concat": lambda: concat("c", [2, 2]),
    "split": lambda: split("c", [2, 2]),
    "flatten": lambda: flatten("c", 4, 4),
}


@pytest.mark.parametrize("kind, key, value, message", [
    ("linear", "in_features", _DROP, "missing attr 'in_features'"),
    ("linear", "out_features", 0, "attr 'out_features' must be positive int, got 0"),
    ("conv2d", "in_channels", "8", "attr 'in_channels' must be positive int, got '8'"),
    ("conv2d", "out_channels", -1, "attr 'out_channels' must be positive int, got -1"),
    ("conv2d", "groups", _DROP, "missing attr 'groups'"),
    ("conv2d", "kernel", 0, "attr 'kernel' must be positive int, got 0"),
    ("conv2d", "stride", True, "attr 'stride' must be positive int, got True"),
    ("conv2d", "padding", -1, "attr 'padding' must be non-negative int, got -1"),
    ("conv2d", "groups", 3, "groups=3 does not divide channels (8 in, 8 out)"),
    ("batchnorm", "num_features", 1.5,
     "attr 'num_features' must be positive int, got 1.5"),
    ("batchnorm", "eps", 0, "attr 'eps' must be positive number, got 0"),
    ("batchnorm", "eps", float("nan"), "attr 'eps' must be positive number, got nan"),
    ("batchnorm", "momentum", 2, "attr 'momentum' must be number in [0, 1], got 2"),
    ("activation", "channels", 0, "attr 'channels' must be positive int, got 0"),
    ("activation", "fn", "gelu", "unknown activation 'gelu'"),
    ("activation", "fn", _DROP, "unknown activation None"),
    ("pool", "channels", _DROP, "missing attr 'channels'"),
    ("pool", "kernel", -2, "attr 'kernel' must be positive int, got -2"),
    ("pool", "op", "min", "unknown pool op 'min'"),
    ("eltwise", "channels", None, "attr 'channels' must be positive int, got None"),
    ("eltwise", "op", "sub", "unknown eltwise op 'sub'"),
    ("concat", "sizes", [], "sizes must be a non-empty list of positive ints"),
    ("concat", "sizes", [3, 0], "sizes must be a non-empty list of positive ints"),
    ("split", "sizes", "x", "sizes must be a non-empty list of positive ints"),
    ("split", "sizes", _DROP, "sizes must be a non-empty list of positive ints"),
    ("flatten", "channels", 0, "attr 'channels' must be positive int, got 0"),
    ("flatten", "spatial_size", _DROP, "missing attr 'spatial_size'"),
])
def test_attribute_fault_message(kind, key, value, message):
    comp = _ATTR_BASES[kind]()
    if value is _DROP:
        del comp.attrs[key]
    else:
        comp.attrs[key] = value
    with pytest.raises(ValidationError) as exc:
        NetworkIR([comp], [], (1,), [("c", 0)]).check_valid()
    assert str(exc.value) == f"c: {message}"


def test_grouped_conv_width_fault_message():
    comp = conv2d("c", 8, 16, groups=2)
    with pytest.raises(ValidationError) as exc:
        NetworkIR([comp], [], (1,), [("c", 0)]).check_valid()
    assert str(exc.value) == ("c: grouped conv requires equal in/out "
                              "channels, got 8 != 16")


def test_every_bad_conv_channel_attr_is_listed():
    comp = conv2d("c", 8, 8)
    comp.attrs.update(in_channels=0, out_channels="x", groups=None)
    assert NetworkIR([comp], [], (1,), [("c", 0)]).validate() == [
        "c: attr 'in_channels' must be positive int, got 0",
        "c: attr 'out_channels' must be positive int, got 'x'",
        "c: attr 'groups' must be positive int, got None"]


# -- serialization ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(toy_models.BUNDLED))
def test_round_trip_is_identity(name, tmp_path):
    ir = toy_models.BUNDLED[name](seed=7)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    save_model(ir, d1 / "m.json")
    ir2 = load_model(d1 / "m.json")
    save_model(ir2, d2 / "m.json")
    assert (d1 / "m.json").read_text() == (d2 / "m.json").read_text()
    assert (d1 / "m.bin").read_bytes() == (d2 / "m.bin").read_bytes()
    for nm, arr in ir.weights.items():
        assert arr.dtype == np.float32
        np.testing.assert_array_equal(arr, ir2.weights[nm])


def test_load_reports_json_error_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "grouprune-model",\n  "oops"\n}')
    with pytest.raises(ModelParseError) as exc:
        load_model(p)
    assert "line" in str(exc.value)


def test_load_missing_field(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "grouprune-model"}')
    with pytest.raises(ModelParseError) as exc:
        load_model(p)
    assert "missing field" in str(exc.value)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.json")


def test_load_validates_shapes(tmp_path):
    ir = toy_models.two_layer_mlp()
    p = tmp_path / "m.json"
    save_model(ir, p)
    doc = p.read_text().replace('"in_features": 16', '"in_features": 15')
    p.write_text(doc)
    with pytest.raises(ValidationError):
        load_model(p)
