"""Network intermediate representation.

A network is an ordered list of components, each decomposed into an input
half and an output half. Edges connect producer output halves to consumer
input halves through numbered ports (ports matter for concat, split and
elementwise components). Weights live in a flat name -> array store so
that pruning can rewrite tensors without touching topology; in a valid
network each tensor is float32 and is one parameter role of one component.

Every half node carries a pruning scheme: the list of (parameter role,
axis) slices that get removed when one of its prunable indices is pruned.
Scheme equality between the two halves of one component is what later
produces intra-component dependency edges. Port windows, parameter roles
and attribute rules come from the kind's entry in kinds.SPECS.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ModelParseError, ShapeError, ValidationError
from .kinds import SPECS, is_int

FORMAT_NAME = "grouprune-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class HalfNode:
    """Input or output half of one component.

    scheme holds the (role, axis) pairs of KindSpec.slices in the kind's
    role order, so two schemes are equal iff they slice the same roles
    along the same axes; pass-through halves all have an empty one.
    """

    component_id: str
    side: str            # "in" | "out"
    channels: int
    scheme: tuple[tuple[str, int], ...]

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
        if self.kind not in SPECS:
            raise ModelParseError(
                f"component {self.comp_id!r}: unknown kind {self.kind!r}"
            )


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


def batchnorm(comp_id: str, num_features: int) -> Component:
    params = {role: f"{comp_id}.{role}" for role in
              ("gamma", "beta", "running_mean", "running_var")}
    return Component(comp_id, "batchnorm",
                     {"num_features": num_features, "eps": 1e-5, "momentum": 0.1},
                     params)


def activation(comp_id: str, channels: int, fn: str = "relu") -> Component:
    return Component(comp_id, "activation", {"channels": channels, "fn": fn})


def pool(comp_id: str, channels: int, kernel: int = 2, op: str = "avg") -> Component:
    return Component(comp_id, "pool", {"channels": channels, "kernel": kernel, "op": op})


def eltwise(comp_id: str, channels: int, op: str = "add") -> Component:
    return Component(comp_id, "eltwise", {"channels": channels, "op": op})


def flatten(comp_id: str, channels: int, spatial_size: int) -> Component:
    return Component(comp_id, "flatten",
                     {"channels": channels, "spatial_size": spatial_size})


# ---------------------------------------------------------------------------
# The IR container


class Ports(NamedTuple):
    """(offset, width) windows of a component's input and output ports."""

    ins: list[tuple[int, int]]
    outs: list[tuple[int, int]]


class NetworkIR:
    """Component DAG plus the weight store.

    input_shape is the per-sample shape fed to the network, (C,) for flat
    inputs or (C, H, W) for images. input_consumers lists (component id,
    port) pairs that read the raw network input.

    The topology (components, edges, input consumers) is immutable after
    construction: consumers and input ports are indexed once here, and the
    exit component, topological order, port windows, half nodes, each
    value's last reader and the input ports that need a gradient are
    computed on first use and then reused. Only the weight store may
    change. `feed(comp_id, port)` answers which producer port feeds an
    input port.
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
        self._ports: dict[str, Ports] | None = None
        self._halves: list[HalfNode] | None = None
        self._released: dict[str, list[tuple[str, int]]] | None = None
        self._needs_grad: dict[str, list[bool]] | None = None

    # -- lookups ----------------------------------------------------------

    def component(self, comp_id: str) -> Component:
        return self.components[self._index[comp_id]]

    def ports(self, comp_id: str) -> Ports:
        """Port windows of a component; its attributes must be valid."""
        if self._ports is None:
            self._ports = {c.comp_id: Ports(SPECS[c.kind].in_ports(c.attrs),
                                            SPECS[c.kind].out_ports(c.attrs))
                           for c in self.components}
        return self._ports[comp_id]

    def halves(self) -> list[HalfNode]:
        """All 2L half nodes, component order, input half first."""
        if self._halves is None:
            self._halves = []
            for comp in self.components:
                spec, ports = SPECS[comp.kind], self.ports(comp.comp_id)
                for side, windows in (("in", ports.ins), ("out", ports.outs)):
                    width = max(off + w for off, w in windows)
                    self._halves.append(HalfNode(comp.comp_id, side, width,
                                                 tuple(spec.slices(comp, side))))
        return list(self._halves)

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

    def released_by(self, comp_id: str) -> list[tuple[str, int]]:
        """The values, as (producer, output port), that no component after
        comp_id in topological order reads."""
        if self._released is None:
            pos = {c.comp_id: i for i, c in enumerate(self.topo_order())}
            self._released = {cid: [] for cid in pos}
            for src, edges in self._consumers.items():
                for port in {e.src_port for e in edges}:
                    last = max((e.dst for e in edges if e.src_port == port),
                               key=pos.__getitem__)
                    self._released[last].append((src, port))
        return self._released[comp_id]

    def needs_grad(self, comp_id: str) -> list[bool]:
        """Per input port of comp_id, whether a backward pass needs its
        gradient: False for a port the raw network input feeds."""
        if self._needs_grad is None:
            self._needs_grad = {
                c.comp_id: [self.feed(c.comp_id, p) is not None
                            for p in range(len(self.ports(c.comp_id).ins))]
                for c in self.components}
        return self._needs_grad[comp_id]

    def exit_component(self) -> Component:
        """The sink; validate() checks that there is exactly one."""
        if self._exit is None:
            self._exit = next(c for c in self.components
                              if not self.consumers_of(c.comp_id))
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
        """Returns a list of violations; empty means the IR is valid: among
        other things, every tensor is a finite float32 array of its role's
        shape, and no two (component, role) pairs name the same tensor."""
        v: list[str] = []
        ids = set(self._index)
        if len(self.input_shape) not in (1, 3) or min(self.input_shape) <= 0:
            v.append(f"input_shape must be (C,) or (C, H, W) of positive ints, "
                     f"got {self.input_shape}")

        for comp in self.components:
            v.extend(SPECS[comp.kind].check(comp))

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
            for port in range(len(self.ports(comp.comp_id).ins)):
                try:
                    self.feed(comp.comp_id, port)
                except ValidationError as exc:
                    v.extend(exc.violations)

        # existing ports, and channel agreement along edges and from the
        # raw input
        for e in self.edges:
            outs, ins = self.ports(e.src).outs, self.ports(e.dst).ins
            if not 0 <= e.src_port < len(outs):
                v.append(f"{e.src}: no such output port {e.src_port}")
                continue
            if not 0 <= e.dst_port < len(ins):
                v.append(f"{e.dst}: no such input port {e.dst_port}")
                continue
            a, b = outs[e.src_port][1], ins[e.dst_port][1]
            if a != b:
                v.append(f"channel mismatch on {e.src}:out[{e.src_port}] "
                         f"({a}) -> {e.dst}:in[{e.dst_port}] ({b})")
        for cid, port in self.input_consumers:
            ins = self.ports(cid).ins
            if not 0 <= port < len(ins):
                v.append(f"{cid}: no such input port {port}")
                continue
            want = ins[port][1]
            if want != self.input_shape[0]:
                v.append(f"network input has {self.input_shape[0]} channels but "
                         f"{cid}:in[{port}] expects {want}")

        # single output (port 0 of the sink), every split port consumed,
        # DAG-ness
        sinks = []
        for comp in self.components:
            ports = set(range(len(self.ports(comp.comp_id).outs)))
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

        # weight store agreement; a role the kind lacks is never read, and
        # save_model would fail on it
        owner: dict[str, str] = {}   # tensor name -> "role of component"
        for comp in self.components:
            for role in sorted(set(comp.params) - set(SPECS[comp.kind].roles)):
                v.append(f"{comp.comp_id}: unknown parameter role {role!r}")
            for role, shape in SPECS[comp.kind].param_shapes(comp).items():
                name = comp.params.get(role)
                if name is None:
                    v.append(f"{comp.comp_id}: missing parameter role {role!r}")
                    continue
                if name in owner:
                    v.append(f"{comp.comp_id}: tensor {name!r} is already the {owner[name]}")
                owner.setdefault(name, f"{role} of {comp.comp_id}")
                arr = self.weights.get(name)
                if arr is None:
                    v.append(f"{comp.comp_id}: tensor {name!r} missing from weight store")
                elif tuple(arr.shape) != shape:
                    v.append(f"{comp.comp_id}: tensor {name!r} has shape "
                             f"{tuple(arr.shape)}, expected {shape}")
                elif arr.dtype != np.float32:
                    v.append(f"{comp.comp_id}: tensor {name!r} is {arr.dtype}, not float32")
                elif not np.isfinite(arr).all():
                    v.append(f"{comp.comp_id}: tensor {name!r} contains NaN/Inf")
                elif role == "running_var" and (arr < 0).any():
                    v.append(f"{comp.comp_id}: tensor {name!r} has a negative variance")

        # tensor shapes along the wiring, once the wiring itself holds
        if not v:
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


def infer_shapes(ir: NetworkIR) -> dict[str, tuple]:
    """Per-sample output shape of every component; a split's is the shape
    of its whole input.

    Raises ShapeError naming the first component, in topological order,
    whose inputs do not fit it: a rank it cannot take, operands that
    differ beyond the channel axis, or a spatial size that does not work
    out.
    """
    shapes: dict[str, tuple] = {}

    def port_shape(e):
        if e is None:
            return ir.input_shape
        return (ir.ports(e.src).outs[e.src_port][1],) + shapes[e.src][1:]

    for comp in ir.topo_order():
        cid, spec = comp.comp_id, SPECS[comp.kind]
        ins = [port_shape(ir.feed(cid, p))
               for p in range(len(ir.ports(cid).ins))]
        if spec.rank is not None and len(ins[0]) != spec.rank:
            raise ShapeError(f"{cid}: {comp.kind} expects a rank-{spec.rank} "
                             f"input per sample, got {ins[0]}")
        if len({s[1:] for s in ins}) > 1:
            raise ShapeError(f"{cid}: operand shapes differ beyond the "
                             f"channel axis: {ins}")
        shapes[cid] = spec.out_shape(comp, ins)
    return shapes


# ---------------------------------------------------------------------------
# Weight initialization


def init_weights(ir: NetworkIR, rng: np.random.Generator) -> NetworkIR:
    """He-style init for conv/linear, standard init for batchnorm."""
    for comp in ir.components:
        for role, shape in SPECS[comp.kind].param_shapes(comp).items():
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
    return is_int(x) and x >= 0


# The descriptor's field types, by the phrase that names them in errors.
_FIELD_TYPES = {
    "a string": lambda x: isinstance(x, str),
    "an int": is_int,
    "a non-negative int": _is_count,
    "a list": lambda x: isinstance(x, list),
    "a list of ints": lambda x: isinstance(x, list) and all(map(is_int, x)),
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
    raw = path.read_bytes()   # OSError propagates: I/O, not a parse failure
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"{path}: not UTF-8 text: {exc}") from exc
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

    if "\0" in top["weights_file"]:
        raise ModelParseError(f"{path}: weights_file contains a NUL byte")
    blob_path = path.parent / top["weights_file"]
    size = blob_path.stat().st_size
    if size % 4:
        raise ModelParseError(f"{path}: weight blob size {size} is not "
                              f"a multiple of 4 bytes")
    blob = np.fromfile(blob_path, dtype="<f4")

    weights = {}
    for name, meta in top["tensors"].items():
        where = f"tensor {name!r}"
        shape = tuple(get(meta, where, "shape", "a list of non-negative ints"))
        off = get(meta, where, "offset", "a non-negative int")
        n = math.prod(shape)
        if off + n > blob.size:
            raise ModelParseError(
                f"{path}: tensor {name!r} extends past end of weight blob")
        weights[name] = blob[off:off + n].reshape(shape)

    ir = NetworkIR(comps, edges, top["input_shape"], consumers, weights)
    return ir.check_valid()
