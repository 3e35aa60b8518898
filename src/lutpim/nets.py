"""Layer/network descriptors, shape inference, and the built-in model zoo.

Shapes are (channels, height, width). Conv output spatial size follows
floor((in + 2*pad - k) / stride) + 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

LAYER_KINDS = (
    "conv2d",
    "depthwise_conv2d",
    "maxpool2d",
    "relu",
    "flatten",
    "dense",
    "softmax",
    "residual_add",
)


class ShapeError(ValueError):
    """Layer shapes do not chain."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer: what its spec asks for, plus the shapes build_network derives.

    out_channels and out_features are the widths a conv and a dense layer ask
    for; every other reader takes widths from in_shape[0] and out_shape[0].
    A projected residual_add (proj) asks for a 1x1 conv of its residual source
    at its stride and out_channels; build_network resolves that conv once,
    named "{name}.proj", into shortcut.
    """

    name: str
    kind: str
    kernel: tuple[int, int] = (0, 0)
    stride: int = 1
    padding: int = 0
    out_channels: int = 0
    out_features: int = 0
    in_shape: tuple[int, ...] = ()
    out_shape: tuple[int, ...] = ()
    residual_from: str = ""  # name of the earlier layer whose output is added
    proj: bool = False
    shortcut: LayerSpec | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """A chain of layers, checked when it is made: each check refuses with a ShapeError naming the layer."""

    name: str
    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        shape, out_shapes = self.input_shape, {}
        for layer in self.layers:
            where = f"{self.name}/{layer.name}"
            if layer.in_shape != shape:
                raise ShapeError(f"{where}: expected input {shape}, spec says {layer.in_shape}")
            _check_rank(where, layer.kind, shape)
            if layer.kind == "maxpool2d" and layer.padding >= min(layer.kernel):
                # a window of padding alone has no maximum: -inf, which no code stands for
                raise ShapeError(f"{where}: padding {layer.padding} is not below the kernel {layer.kernel}")
            if layer.kind == "residual_add":
                if layer.residual_from not in out_shapes:
                    raise ShapeError(f"{where}: unknown residual source {layer.residual_from!r}")
                src, sc = out_shapes[layer.residual_from], layer.shortcut
                if not layer.proj and src != shape:
                    raise ShapeError(f"{where}: residual shapes differ: {src} and {shape}")
                if layer.proj and sc is None:
                    raise ShapeError(f"{where}: projected shortcut has no conv")
                if layer.proj and (sc.in_shape, sc.out_shape) != (src, shape):
                    raise ShapeError(f"{where}: shortcut {sc.in_shape} -> {sc.out_shape} does not fit {src} -> {shape}")
            out_shapes[layer.name] = shape = layer.out_shape
        if len(shape) != 1:
            last = self.layers[-1].name if self.layers else "input"
            raise ShapeError(f"{self.name}/{last}: final layer must yield a score vector, got {shape}")

    def __hash__(self) -> int:
        """The fields' hash, computed once per instance: a cache keyed on the net rehashes no LayerSpec."""
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.name, self.input_shape, self.layers))
            return h


# Every MAC layer is a grouped convolution: G groups, each of O/G output
# channels over C/G input channels. A conv has G = 1, a depthwise layer
# G = C (one group per channel), and a dense layer is a conv with one window.
MAC_KINDS = ("conv2d", "depthwise_conv2d", "dense")


def groups(layer: LayerSpec) -> int:
    """A MAC layer's groups G: C for a depthwise layer, 1 otherwise."""
    return layer.in_shape[0] if layer.kind == "depthwise_conv2d" else 1


def weight_shape(layer: LayerSpec) -> tuple[int, ...]:
    """A MAC layer's stored weight shape: (O, C/G, kh, kw) for a conv, (K, O) for a dense layer."""
    c, o = layer.in_shape[0], layer.out_shape[0]
    if layer.kind == "dense":
        return (c, o)
    return (o, c // groups(layer), *layer.kernel)


def own_mac_layers(layer: LayerSpec) -> tuple[LayerSpec, ...]:
    """The MAC layers one layer runs: itself if it is one, its shortcut conv if it is a projected add."""
    if layer.kind in MAC_KINDS:
        return (layer,)
    return (layer.shortcut,) if layer.proj else ()


def mac_layers(net: NetworkSpec):
    """Every layer that holds weights, in order: the MAC layers, and each projected add's shortcut conv."""
    for layer in net.layers:
        yield from own_mac_layers(layer)


# The rank of the input each kind takes; the other kinds take any rank.
_INPUT_RANK = {"conv2d": 3, "depthwise_conv2d": 3, "maxpool2d": 3, "dense": 1}


def _check_rank(where: str, kind: str, in_shape: tuple[int, ...]) -> None:
    """Refuse an input that is not of the rank a layer of this kind takes."""
    rank = _INPUT_RANK.get(kind)
    if rank is not None and len(in_shape) != rank:
        raise ShapeError(f"{where}: a {kind} layer takes a rank-{rank} input, got {in_shape}")


def _conv_out(layer: LayerSpec, side: int, k: int) -> int:
    out = (side + 2 * layer.padding - k) // layer.stride + 1
    if out < 1:
        raise ShapeError(f"{layer.name}: conv/pool reduces dimension {side} below 1")
    return out


def _infer(layer: LayerSpec, in_shape: tuple[int, ...]) -> LayerSpec:
    """`layer` with the in_shape given and the out_shape its kind makes of it."""
    kind = layer.kind
    _check_rank(layer.name, kind, in_shape)
    if kind in ("conv2d", "depthwise_conv2d", "maxpool2d"):
        c, h, w = in_shape
        kh, kw = layer.kernel
        out_shape = (layer.out_channels if kind == "conv2d" else c, _conv_out(layer, h, kh), _conv_out(layer, w, kw))
    elif kind == "flatten":
        out_shape = (math.prod(in_shape),)
    elif kind == "dense":
        out_shape = (layer.out_features,)
    else:  # relu, softmax and residual_add keep their input's shape
        out_shape = in_shape
    return replace(layer, in_shape=in_shape, out_shape=out_shape)


def build_network(name: str, input_shape: tuple[int, ...], layers) -> NetworkSpec:
    """Chain shapes through partially specified layers; the NetworkSpec checks the result.

    A projected residual_add gets its shortcut: the 1x1 conv "{name}.proj" of
    its residual source, at its stride and out_channels.
    """
    chained = []
    shape = tuple(input_shape)
    out_shapes: dict[str, tuple[int, ...]] = {}
    for layer in layers:
        layer = _infer(layer, shape)
        if layer.kind == "residual_add" and layer.proj and layer.residual_from in out_shapes:
            conv = _conv(f"{layer.name}.proj", layer.out_channels, 1, layer.stride)
            layer = replace(layer, shortcut=_infer(conv, out_shapes[layer.residual_from]))
        chained.append(layer)
        out_shapes[layer.name] = shape = layer.out_shape
    return NetworkSpec(name=name, input_shape=tuple(input_shape), layers=tuple(chained))


def _conv(name, out_c, k, stride=1, pad=0):
    return LayerSpec(name=name, kind="conv2d", kernel=(k, k), stride=stride, padding=pad, out_channels=out_c)


def _dw(name, k=3, stride=1, pad=1):
    return LayerSpec(name=name, kind="depthwise_conv2d", kernel=(k, k), stride=stride, padding=pad)


def _pool(name, k, stride, pad=0):
    return LayerSpec(name=name, kind="maxpool2d", kernel=(k, k), stride=stride, padding=pad)


def _relu(name):
    return LayerSpec(name=name, kind="relu")


def _dense(name, out_f):
    return LayerSpec(name=name, kind="dense", out_features=out_f)


def tinymalnet() -> NetworkSpec:
    """Desk-scale two-class malware detector: 32x32x1 input."""
    return build_network(
        "tinymalnet",
        (1, 32, 32),
        [
            _conv("conv1", 8, 3),
            _relu("relu1"),
            _pool("pool1", 2, 2),
            _conv("conv2", 16, 3),
            _relu("relu2"),
            _pool("pool2", 2, 2),
            LayerSpec(name="flatten", kind="flatten"),
            _dense("dense", 2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def alexnet() -> NetworkSpec:
    return build_network(
        "alexnet",
        (3, 224, 224),
        [
            _conv("conv1", 96, 11, 4, 2), _relu("relu1"), _pool("pool1", 3, 2),
            _conv("conv2", 256, 5, 1, 2), _relu("relu2"), _pool("pool2", 3, 2),
            _conv("conv3", 384, 3, 1, 1), _relu("relu3"),
            _conv("conv4", 384, 3, 1, 1), _relu("relu4"),
            _conv("conv5", 256, 3, 1, 1), _relu("relu5"), _pool("pool5", 3, 2),
            LayerSpec(name="flatten", kind="flatten"),
            _dense("fc6", 4096), _relu("relu6"),
            _dense("fc7", 4096), _relu("relu7"),
            _dense("fc8", 1000),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def vgg16() -> NetworkSpec:
    layers = []
    cfg = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    idx = 1
    for block, (c, n) in enumerate(cfg, start=1):
        for _ in range(n):
            layers += [_conv(f"conv{idx}", c, 3, 1, 1), _relu(f"relu{idx}")]
            idx += 1
        layers.append(_pool(f"pool{block}", 2, 2))
    layers += [
        LayerSpec(name="flatten", kind="flatten"),
        _dense("fc1", 4096), _relu("relu_fc1"),
        _dense("fc2", 4096), _relu("relu_fc2"),
        _dense("fc3", 1000),
        LayerSpec(name="softmax", kind="softmax"),
    ]
    return build_network("vgg16", (3, 224, 224), layers)


def _residual_block(layers, name, in_c, convs):
    """Append one residual block; return its output channels.

    convs holds each conv's (channels, kernel, stride), each padded by
    kernel // 2. A ReLU follows every conv but the last, then the add of the
    block's input and a last ReLU. The shortcut is projected when the block
    changes the channels or the side.
    """
    src = f"{name}_in"
    layers.append(_relu(src))  # marker for the shortcut source
    for i, (c, k, stride) in enumerate(convs, start=1):
        if i > 1:
            layers.append(_relu(f"{name}_relu{i - 1}"))
        layers.append(_conv(f"{name}_conv{i}", c, k, stride, k // 2))
    out, stride = convs[-1][0], math.prod(s for _, _, s in convs)
    proj = stride != 1 or in_c != out
    layers += [
        LayerSpec(
            name=f"{name}_add", kind="residual_add", residual_from=src,
            proj=proj, stride=stride, out_channels=out if proj else 0,
        ),
        _relu(f"{name}_relu{len(convs)}"),
    ]
    return out


def _resnet(name, block_counts, bottleneck):
    layers = [_conv("conv1", 64, 7, 2, 3), _relu("relu1"), _pool("pool1", 3, 2, 1)]
    channels = (64, 128, 256, 512)
    in_c = 64
    for stage, (c, n) in enumerate(zip(channels, block_counts), start=1):
        for b in range(n):
            stride = 2 if stage > 1 and b == 0 else 1
            # a bottleneck block widens its last 1x1 conv to 4c
            convs = [(c, 1, 1), (c, 3, stride), (4 * c, 1, 1)] if bottleneck else [(c, 3, stride), (c, 3, 1)]
            in_c = _residual_block(layers, f"s{stage}b{b}", in_c, convs)
    layers += [
        _pool("avgpool", 7, 7),  # global average pool, modeled as pooling for cost
        LayerSpec(name="flatten", kind="flatten"),
        _dense("fc", 1000),
        LayerSpec(name="softmax", kind="softmax"),
    ]
    return build_network(name, (3, 224, 224), layers)


def resnet18() -> NetworkSpec:
    return _resnet("resnet18", (2, 2, 2, 2), bottleneck=False)


def resnet34() -> NetworkSpec:
    return _resnet("resnet34", (3, 4, 6, 3), bottleneck=False)


def resnet50() -> NetworkSpec:
    return _resnet("resnet50", (3, 4, 6, 3), bottleneck=True)


def mobilenet_v2() -> NetworkSpec:
    layers = [_conv("conv1", 32, 3, 2, 1), _relu("relu1")]
    # (expansion, out_channels, repeats, first stride)
    cfg = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ]
    in_c = 32
    idx = 0
    for t, c, n, s in cfg:
        for b in range(n):
            stride = s if b == 0 else 1
            name = f"ir{idx}"
            if t != 1:
                layers += [_conv(f"{name}_expand", in_c * t, 1), _relu(f"{name}_erelu")]
            layers += [_dw(f"{name}_dw", 3, stride, 1), _relu(f"{name}_drelu")]
            layers.append(_conv(f"{name}_project", c, 1))
            in_c = c
            idx += 1
    layers += [
        _conv("conv_last", 1280, 1), _relu("relu_last"),
        _pool("avgpool", 7, 7),
        LayerSpec(name="flatten", kind="flatten"),
        _dense("fc", 1000),
        LayerSpec(name="softmax", kind="softmax"),
    ]
    return build_network("mobilenet_v2", (3, 224, 224), layers)


ZOO = {
    "alexnet": alexnet,
    "resnet18": resnet18,
    "resnet34": resnet34,
    "resnet50": resnet50,
    "vgg16": vgg16,
    "mobilenet_v2": mobilenet_v2,
    "tinymalnet": tinymalnet,
}


@functools.cache
def _built(name: str) -> NetworkSpec:
    return ZOO[name]()


def get_network(name: str) -> NetworkSpec:
    """The zoo network `name`, built once per process and then shared: its specs are frozen."""
    if name not in ZOO:
        raise KeyError(f"unknown network {name!r}; valid names: {', '.join(sorted(ZOO))}")
    return _built(name)
