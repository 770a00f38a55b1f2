"""Network intermediate representation.

A network is an ordered list of components, each decomposed into an input
half and an output half. Edges connect producer output halves to consumer
input halves through numbered ports (ports matter for concat, split and
elementwise components). Weights live in a flat name -> array store so
that pruning can rewrite tensors without touching topology.

Every half node carries a pruning scheme: the list of (parameter role,
axis) slices that get removed when one of its prunable indices is pruned.
Scheme equality between the two halves of one component is what later
produces intra-component dependency edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ModelParseError, ShapeError, ValidationError

FORMAT_NAME = "grouprune-model"
FORMAT_VERSION = 1

KINDS = (
    "linear",
    "conv2d",
    "batchnorm",
    "activation",
    "pool",
    "eltwise",
    "concat",
    "split",
    "flatten",
)

ACTIVATIONS = ("relu", "tanh", "identity")

# Parameter roles that are per-channel state but not trained by SGD.
BUFFER_ROLES = ("running_mean", "running_var")


@dataclass(frozen=True)
class SliceSpec:
    """One parameter slice removed when a prunable index is pruned."""

    role: str   # parameter role within the component, e.g. "weight"
    axis: int


@dataclass(frozen=True)
class PruningScheme:
    """What gets sliced when index k of a half node is pruned.

    Two schemes are equal iff they slice the same roles along the same
    axes; pass-through halves have an empty slice list and therefore all
    compare equal.
    """

    slices: tuple[SliceSpec, ...]

    def __eq__(self, other):
        if not isinstance(other, PruningScheme):
            return NotImplemented
        return frozenset(self.slices) == frozenset(other.slices)

    def __hash__(self):
        return hash(frozenset(self.slices))

    @property
    def is_passthrough(self) -> bool:
        return not self.slices


def _scheme(*slices: tuple[str, int]) -> PruningScheme:
    return PruningScheme(tuple(SliceSpec(r, a) for r, a in slices))


PASSTHROUGH_SCHEME = _scheme()


@dataclass(frozen=True)
class HalfNode:
    """Input or output half of one component."""

    component_id: str
    side: str            # "in" | "out"
    channels: int
    scheme: PruningScheme

    @property
    def node_id(self) -> str:
        return f"{self.component_id}:{self.side}"


@dataclass(frozen=True)
class Edge:
    """Connects a producer output half to a consumer input half.

    src_port selects a slice of a split producer; dst_port selects the
    input slot of concat/eltwise consumers. Both are 0 elsewhere.
    """

    src: str
    src_port: int
    dst: str
    dst_port: int


@dataclass
class Component:
    """One basic network operation, parameterized or not."""

    comp_id: str
    kind: str
    attrs: dict
    params: dict = field(default_factory=dict)   # role -> tensor name

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelParseError(
                f"component {self.comp_id!r}: unknown kind {self.kind!r}"
            )


# ---------------------------------------------------------------------------
# Per-kind channel arithmetic


def in_channels(comp: Component) -> int:
    k, a = comp.kind, comp.attrs
    if k == "linear":
        return a["in_features"]
    if k == "conv2d":
        return a["in_channels"]
    if k == "batchnorm":
        return a["num_features"]
    if k in ("activation", "pool", "eltwise", "flatten"):
        return a["channels"]
    if k in ("concat", "split"):
        return sum(a["sizes"])
    raise AssertionError(k)


def out_channels(comp: Component) -> int:
    k, a = comp.kind, comp.attrs
    if k == "linear":
        return a["out_features"]
    if k == "conv2d":
        return a["out_channels"]
    if k == "flatten":
        return a["channels"] * a["spatial_size"]
    return in_channels(comp)


def num_input_ports(comp: Component) -> int:
    if comp.kind == "eltwise":
        return 2
    if comp.kind == "concat":
        return len(comp.attrs["sizes"])
    return 1


def num_output_ports(comp: Component) -> int:
    if comp.kind == "split":
        return len(comp.attrs["sizes"])
    return 1


def input_port_channels(comp: Component, port: int) -> int:
    if comp.kind == "concat":
        return comp.attrs["sizes"][port]
    if comp.kind == "eltwise":
        return comp.attrs["channels"]
    return in_channels(comp)


def output_port_channels(comp: Component, port: int) -> int:
    if comp.kind == "split":
        return comp.attrs["sizes"][port]
    return out_channels(comp)


def input_port_offset(comp: Component, port: int) -> int:
    """Offset of an input port inside the component's input coordinate."""
    if comp.kind == "concat":
        return sum(comp.attrs["sizes"][:port])
    return 0


def output_port_offset(comp: Component, port: int) -> int:
    if comp.kind == "split":
        return sum(comp.attrs["sizes"][:port])
    return 0


def conv_block_size(comp: Component) -> int:
    """Channels per convolution group; prunable atom for grouped convs."""
    g = comp.attrs.get("groups", 1)
    return comp.attrs["out_channels"] // g


# ---------------------------------------------------------------------------
# Pruning schemes per kind


def scheme_for(comp: Component, side: str) -> PruningScheme:
    """Deterministic pruning scheme of one half of a component.

    Non-parameterized kinds get the shared pass-through scheme on both
    sides: they own no slices but still propagate channel identity.
    """
    k = comp.kind
    if k == "linear":
        if side == "out":
            slices = [("weight", 0)] + ([("bias", 0)] if "bias" in comp.params else [])
            return _scheme(*slices)
        return _scheme(("weight", 1))
    if k == "conv2d":
        out_slices = [("weight", 0)] + ([("bias", 0)] if "bias" in comp.params else [])
        if side == "out" or comp.attrs.get("groups", 1) > 1:
            # Removing an input channel of a grouped conv removes the
            # filters of its own group, i.e. the same axis-0 weight rows
            # as the output side. Bias rides along on either side.
            return _scheme(*out_slices)
        return _scheme(("weight", 1))
    if k == "batchnorm":
        return _scheme(("gamma", 0), ("beta", 0), ("running_mean", 0),
                       ("running_var", 0))
    return PASSTHROUGH_SCHEME


def half_node(comp: Component, side: str) -> HalfNode:
    ch = in_channels(comp) if side == "in" else out_channels(comp)
    return HalfNode(comp.comp_id, side, ch, scheme_for(comp, side))


# ---------------------------------------------------------------------------
# Component builders


def linear(comp_id: str, in_features: int, out_features: int, bias: bool = True) -> Component:
    params = {"weight": f"{comp_id}.weight"}
    if bias:
        params["bias"] = f"{comp_id}.bias"
    return Component(comp_id, "linear",
                     {"in_features": in_features, "out_features": out_features},
                     params)


def conv2d(comp_id: str, in_ch: int, out_ch: int, kernel: int = 3, stride: int = 1,
           padding: int = 0, groups: int = 1, bias: bool = True) -> Component:
    params = {"weight": f"{comp_id}.weight"}
    if bias:
        params["bias"] = f"{comp_id}.bias"
    return Component(comp_id, "conv2d",
                     {"in_channels": in_ch, "out_channels": out_ch, "kernel": kernel,
                      "stride": stride, "padding": padding, "groups": groups},
                     params)


def batchnorm(comp_id: str, num_features: int, eps: float = 1e-5,
              momentum: float = 0.1) -> Component:
    params = {role: f"{comp_id}.{role}" for role in
              ("gamma", "beta", "running_mean", "running_var")}
    return Component(comp_id, "batchnorm",
                     {"num_features": num_features, "eps": eps, "momentum": momentum},
                     params)


def activation(comp_id: str, channels: int, fn: str = "relu") -> Component:
    return Component(comp_id, "activation", {"channels": channels, "fn": fn})


def pool(comp_id: str, channels: int, kernel: int = 2, op: str = "avg") -> Component:
    return Component(comp_id, "pool", {"channels": channels, "kernel": kernel, "op": op})


def eltwise(comp_id: str, channels: int, op: str = "add") -> Component:
    return Component(comp_id, "eltwise", {"channels": channels, "op": op})


def concat(comp_id: str, sizes: list[int]) -> Component:
    return Component(comp_id, "concat", {"sizes": list(sizes)})


def split(comp_id: str, sizes: list[int]) -> Component:
    return Component(comp_id, "split", {"sizes": list(sizes)})


def flatten(comp_id: str, channels: int, spatial_size: int) -> Component:
    return Component(comp_id, "flatten",
                     {"channels": channels, "spatial_size": spatial_size})


def param_shapes(comp: Component) -> dict[str, tuple[int, ...]]:
    """Expected shape per parameter role."""
    k, a = comp.kind, comp.attrs
    if k == "linear":
        shapes = {"weight": (a["out_features"], a["in_features"])}
        if "bias" in comp.params:
            shapes["bias"] = (a["out_features"],)
        return shapes
    if k == "conv2d":
        kh = kw = a["kernel"]
        shapes = {"weight": (a["out_channels"], a["in_channels"] // a["groups"], kh, kw)}
        if "bias" in comp.params:
            shapes["bias"] = (a["out_channels"],)
        return shapes
    if k == "batchnorm":
        return {role: (a["num_features"],) for role in
                ("gamma", "beta", "running_mean", "running_var")}
    return {}


# ---------------------------------------------------------------------------
# The IR container


class NetworkIR:
    """Component DAG plus the weight store.

    input_shape is the per-sample shape fed to the network, (C,) for flat
    inputs or (C, H, W) for images. input_consumers lists (component id,
    port) pairs that read the raw network input.

    The topology (components, edges, input consumers) is immutable after
    construction: consumers and input ports are indexed once here, and the
    exit component and topological order are computed on first use and
    then reused. Only the weight store may change. `feed(comp_id, port)`
    answers which producer port feeds an input port.
    """

    def __init__(self, components, edges, input_shape, input_consumers,
                 weights=None):
        self.components: list[Component] = list(components)
        self.edges: list[Edge] = [Edge(*e) if isinstance(e, tuple) else e
                                  for e in edges]
        self.input_shape = tuple(int(s) for s in input_shape)
        self.input_consumers: list[tuple[str, int]] = [
            (c, int(p)) for c, p in input_consumers]
        self.weights: dict[str, np.ndarray] = dict(weights or {})
        self._index = {c.comp_id: i for i, c in enumerate(self.components)}
        if len(self._index) != len(self.components):
            raise ModelParseError("duplicate component ids")
        self._consumers: dict[str, list[Edge]] = {}
        # (dst, port) -> its feeds; None stands for the raw network input
        self._feeds: dict[tuple[str, int], list[Edge | None]] = {}
        for e in self.edges:
            self._consumers.setdefault(e.src, []).append(e)
            self._feeds.setdefault((e.dst, e.dst_port), []).append(e)
        for cid, port in self.input_consumers:
            self._feeds.setdefault((cid, port), []).append(None)
        self._exit: Component | None = None
        self._topo: list[Component] | None = None

    # -- lookups ----------------------------------------------------------

    def component(self, comp_id: str) -> Component:
        return self.components[self._index[comp_id]]

    def halves(self) -> list[HalfNode]:
        """All 2L half nodes, component order, input half first."""
        out = []
        for comp in self.components:
            out.append(half_node(comp, "in"))
            out.append(half_node(comp, "out"))
        return out

    @property
    def input_channels(self) -> int:
        return self.input_shape[0]

    def consumers_of(self, comp_id: str) -> list[Edge]:
        return list(self._consumers.get(comp_id, ()))

    def feed(self, comp_id: str, port: int) -> Edge | None:
        """The edge feeding an input port, or None for the raw network
        input; raises ValidationError unless the port is fed exactly once."""
        srcs = self._feeds.get((comp_id, port), ())
        if len(srcs) != 1:
            fault = f"fed {len(srcs)} times" if srcs else "not connected"
            raise ValidationError(f"{comp_id}: input port {port} {fault}")
        return srcs[0]

    def exit_component(self) -> Component:
        if self._exit is None:
            sinks = [c for c in self.components if not self.consumers_of(c.comp_id)]
            if len(sinks) != 1:
                raise ValidationError(
                    f"expected exactly one network output, found {len(sinks)}")
            self._exit = sinks[0]
        return self._exit

    def topo_order(self) -> list[Component]:
        """Topological order as a fresh list; raises ValidationError on
        cycles."""
        if self._topo is None:
            indeg = {c.comp_id: 0 for c in self.components}
            for e in self.edges:
                indeg[e.dst] += 1
            order = [c.comp_id for c in self.components if indeg[c.comp_id] == 0]
            for cid in order:   # FIFO: order grows while it is walked
                for e in self.consumers_of(cid):
                    indeg[e.dst] -= 1
                    if indeg[e.dst] == 0:
                        order.append(e.dst)
            if len(order) != len(self.components):
                stuck = sorted(cid for cid, d in indeg.items() if d > 0)
                raise ValidationError(f"cycle through components {stuck}")
            self._topo = [self.component(cid) for cid in order]
        return list(self._topo)

    def copy(self) -> "NetworkIR":
        return NetworkIR(
            [replace(c, attrs=dict(c.attrs), params=dict(c.params))
             for c in self.components],
            list(self.edges),
            self.input_shape,
            list(self.input_consumers),
            {k: v.copy() for k, v in self.weights.items()},
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """Returns a list of violations; empty means the IR is valid."""
        v: list[str] = []
        ids = set(self._index)
        if len(self.input_shape) not in (1, 3) or min(self.input_shape) <= 0:
            v.append(f"input_shape must be (C,) or (C, H, W) of positive ints, "
                     f"got {self.input_shape}")

        for comp in self.components:
            v.extend(_check_attrs(comp))

        for e in self.edges:
            if e.src not in ids or e.dst not in ids:
                v.append(f"edge {e} references unknown component")
        for cid, _port in self.input_consumers:
            if cid not in ids:
                v.append(f"input consumer {cid!r} unknown")
        if v:
            return v

        # port wiring: every input port fed exactly once
        for comp in self.components:
            for port in range(num_input_ports(comp)):
                try:
                    self.feed(comp.comp_id, port)
                except ValidationError as exc:
                    v.extend(exc.violations)

        # existing ports, and channel agreement along edges and from the
        # raw input
        for e in self.edges:
            src, dst = self.component(e.src), self.component(e.dst)
            if not 0 <= e.src_port < num_output_ports(src):
                v.append(f"{src.comp_id}: no such output port {e.src_port}")
                continue
            if not 0 <= e.dst_port < num_input_ports(dst):
                v.append(f"{dst.comp_id}: no such input port {e.dst_port}")
                continue
            a = output_port_channels(src, e.src_port)
            b = input_port_channels(dst, e.dst_port)
            if a != b:
                v.append(f"channel mismatch on {src.comp_id}:out[{e.src_port}] "
                         f"({a}) -> {dst.comp_id}:in[{e.dst_port}] ({b})")
        for cid, port in self.input_consumers:
            comp = self.component(cid)
            if not 0 <= port < num_input_ports(comp):
                v.append(f"{cid}: no such input port {port}")
                continue
            want = input_port_channels(comp, port)
            if want != self.input_channels:
                v.append(f"network input has {self.input_channels} channels but "
                         f"{cid}:in[{port}] expects {want}")

        # single output (port 0 of the sink), every split port consumed,
        # DAG-ness
        sinks = []
        for comp in self.components:
            ports = set(range(num_output_ports(comp)))
            used = {e.src_port for e in self._consumers.get(comp.comp_id, ())}
            if not used:
                sinks.append(comp.comp_id)
                used = {0}
            if ports - used:
                v.append(f"{comp.comp_id}: output port(s) {sorted(ports - used)} unused")
        if len(sinks) != 1:
            v.append(f"expected exactly one network output, found {len(sinks)}: {sorted(sinks)}")
        if not self.input_consumers:
            v.append("no component consumes the network input")
        try:
            self.topo_order()
        except ValidationError as exc:
            v.extend(exc.violations)

        # weight store agreement
        for comp in self.components:
            for role, shape in param_shapes(comp).items():
                name = comp.params.get(role)
                if name is None:
                    v.append(f"{comp.comp_id}: missing parameter role {role!r}")
                    continue
                arr = self.weights.get(name)
                if arr is None:
                    v.append(f"{comp.comp_id}: tensor {name!r} missing from weight store")
                elif tuple(arr.shape) != shape:
                    v.append(f"{comp.comp_id}: tensor {name!r} has shape "
                             f"{tuple(arr.shape)}, expected {shape}")
                elif not np.isfinite(arr).all():
                    v.append(f"{comp.comp_id}: tensor {name!r} contains NaN/Inf")
                elif role == "running_var" and (arr < 0).any():
                    v.append(f"{comp.comp_id}: tensor {name!r} has a negative variance")

        # tensor shapes along the wiring, once the wiring itself holds
        if not v:
            from .engine import infer_shapes
            try:
                infer_shapes(self)
            except ShapeError as exc:
                v.append(str(exc))
        return v

    def check_valid(self) -> "NetworkIR":
        violations = self.validate()
        if violations:
            raise ValidationError(violations)
        return self


def _is_int(x) -> bool:
    """An int that is not a bool (True is an int in Python)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A non-bool int or a finite float."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _check_attrs(comp: Component) -> list[str]:
    v = []
    a = comp.attrs
    k = comp.kind

    def need(key, pred=lambda x: _is_int(x) and x > 0, what="positive int"):
        if key not in a:
            v.append(f"{comp.comp_id}: missing attr {key!r}")
            return False
        if not pred(a[key]):
            v.append(f"{comp.comp_id}: attr {key!r} must be {what}, got {a[key]!r}")
            return False
        return True

    if k == "linear":
        need("in_features")
        need("out_features")
    elif k == "conv2d":
        ok = need("in_channels") and need("out_channels") and need("groups")
        need("kernel")
        need("stride")
        need("padding", lambda x: _is_int(x) and x >= 0, "non-negative int")
        if ok:
            g = a["groups"]
            if a["in_channels"] % g or a["out_channels"] % g:
                v.append(f"{comp.comp_id}: groups={g} does not divide channels "
                         f"({a['in_channels']} in, {a['out_channels']} out)")
            elif g > 1 and a["in_channels"] != a["out_channels"]:
                v.append(f"{comp.comp_id}: grouped conv requires equal in/out "
                         f"channels, got {a['in_channels']} != {a['out_channels']}")
    elif k == "batchnorm":
        need("num_features")
        if "eps" in a:
            need("eps", lambda x: _is_real(x) and x > 0, "positive number")
        if "momentum" in a:
            need("momentum", lambda x: _is_real(x) and 0 <= x <= 1,
                 "number in [0, 1]")
    elif k == "activation":
        need("channels")
        if a.get("fn") not in ACTIVATIONS:
            v.append(f"{comp.comp_id}: unknown activation {a.get('fn')!r}")
    elif k == "pool":
        need("channels")
        need("kernel")
        if a.get("op") not in ("avg", "max"):
            v.append(f"{comp.comp_id}: unknown pool op {a.get('op')!r}")
    elif k == "eltwise":
        need("channels")
        if a.get("op") not in ("add", "mul"):
            v.append(f"{comp.comp_id}: unknown eltwise op {a.get('op')!r}")
    elif k in ("concat", "split"):
        sizes = a.get("sizes")
        if (not isinstance(sizes, list) or not sizes
                or any(not _is_int(s) or s <= 0 for s in sizes)):
            v.append(f"{comp.comp_id}: sizes must be a non-empty list of positive ints")
    elif k == "flatten":
        need("channels")
        need("spatial_size")
    return v


# ---------------------------------------------------------------------------
# Weight initialization


def init_weights(ir: NetworkIR, rng: np.random.Generator) -> NetworkIR:
    """He-style init for conv/linear, standard init for batchnorm."""
    for comp in ir.components:
        for role, shape in param_shapes(comp).items():
            name = comp.params[role]
            if role == "weight":
                fan_in = int(np.prod(shape[1:]))
                arr = rng.normal(0.0, np.sqrt(2.0 / max(fan_in, 1)), shape)
            elif role in ("bias", "beta", "running_mean"):
                arr = np.zeros(shape)
            else:  # gamma, running_var
                arr = np.ones(shape)
            ir.weights[name] = arr.astype(np.float32)
    return ir


# ---------------------------------------------------------------------------
# Serialization: JSON descriptor + sidecar float32 blob


def save_model(ir: NetworkIR, path) -> None:
    """Write the descriptor to `path` and the blob next to it (.bin)."""
    import pathlib

    path = pathlib.Path(path)
    blob_name = path.stem + ".bin"
    tensors = {}
    chunks = []
    offset = 0
    for comp in ir.components:
        for role in sorted(comp.params):
            name = comp.params[role]
            arr = np.ascontiguousarray(ir.weights[name], dtype="<f4")
            tensors[name] = {"offset": offset, "shape": list(arr.shape)}
            chunks.append(arr.tobytes())
            offset += arr.size
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "input_shape": list(ir.input_shape),
        "weights_file": blob_name,
        "components": [
            {"id": c.comp_id, "kind": c.kind, "attrs": c.attrs, "params": c.params}
            for c in ir.components
        ],
        "edges": [
            {"src": e.src, "src_port": e.src_port, "dst": e.dst, "dst_port": e.dst_port}
            for e in ir.edges
        ],
        "input_consumers": [{"dst": c, "dst_port": p} for c, p in ir.input_consumers],
        "tensors": tensors,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    (path.parent / blob_name).write_bytes(b"".join(chunks))


def _is_count(x) -> bool:
    return _is_int(x) and x >= 0


# The descriptor's field types, by the phrase that names them in errors.
_FIELD_TYPES = {
    "a string": lambda x: isinstance(x, str),
    "an int": _is_int,
    "a non-negative int": _is_count,
    "a list": lambda x: isinstance(x, list),
    "a list of ints": lambda x: isinstance(x, list) and all(map(_is_int, x)),
    "a list of non-negative ints":
        lambda x: isinstance(x, list) and all(map(_is_count, x)),
    "an object": lambda x: isinstance(x, dict),
    "an object of strings":
        lambda x: isinstance(x, dict) and all(isinstance(v, str) for v in x.values()),
}


def load_model(path) -> NetworkIR:
    """Parse a model descriptor and its weight blob into a validated IR.

    This is the decomposition entry point: the file lists basic components
    and their connectivity, so parsing it directly yields the half-node
    form used by dependency analysis.
    """
    import pathlib

    path = pathlib.Path(path)
    text = path.read_text()   # OSError propagates: I/O, not a parse failure
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    def get(entry, where, key, want):
        if not isinstance(entry, dict):
            raise ModelParseError(f"{path}: {where} must be an object, "
                                  f"got {entry!r:.60}")
        if key not in entry:
            raise ModelParseError(f"{path}: {where} missing field {key!r}")
        if not _FIELD_TYPES[want](entry[key]):
            raise ModelParseError(f"{path}: {where} field {key!r} must be "
                                  f"{want}, got {entry[key]!r:.60}")
        return entry[key]

    top = {key: get(doc, "descriptor", key, want) for key, want in (
        ("format", "a string"), ("components", "a list"), ("edges", "a list"),
        ("input_shape", "a list of ints"), ("input_consumers", "a list"),
        ("tensors", "an object"), ("weights_file", "a string"))}
    if top["format"] != FORMAT_NAME:
        raise ModelParseError(f"{path}: unknown format {top['format']!r}")

    # params and ports may be left out; each is read only after an earlier
    # get() has checked that its entry is an object
    comps = []
    for i, c in enumerate(top["components"]):
        where = f"component {i}"
        comps.append(Component(
            get(c, where, "id", "a string"), get(c, where, "kind", "a string"),
            dict(get(c, where, "attrs", "an object")),
            dict(get(c, where, "params", "an object of strings")
                 if "params" in c else {})))
    edges = []
    for i, e in enumerate(top["edges"]):
        where = f"edge {i}"
        src, dst = get(e, where, "src", "a string"), get(e, where, "dst", "a string")
        ports = [get(e, where, key, "an int") if key in e else 0
                 for key in ("src_port", "dst_port")]
        edges.append(Edge(src, ports[0], dst, ports[1]))
    consumers = [(get(c, f"input consumer {i}", "dst", "a string"),
                  get(c, f"input consumer {i}", "dst_port", "an int")
                  if "dst_port" in c else 0)
                 for i, c in enumerate(top["input_consumers"])]

    blob_path = path.parent / top["weights_file"]
    blob = np.frombuffer(blob_path.read_bytes(), dtype="<f4")

    weights = {}
    for name, meta in top["tensors"].items():
        where = f"tensor {name!r}"
        shape = tuple(get(meta, where, "shape", "a list of non-negative ints"))
        off = get(meta, where, "offset", "a non-negative int")
        n = math.prod(shape)
        if off + n > blob.size:
            raise ModelParseError(
                f"{path}: tensor {name!r} extends past end of weight blob")
        weights[name] = blob[off:off + n].reshape(shape).copy()

    ir = NetworkIR(comps, edges, top["input_shape"], consumers, weights)
    return ir.check_valid()
