"""Layer/network descriptors, shape inference, and the built-in model zoo.

Shapes are (channels, height, width). Conv output spatial size follows
floor((in + 2*pad - k) / stride) + 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

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
    name: str
    kind: str
    kernel: tuple[int, int] = (0, 0)
    stride: int = 1
    padding: int = 0
    in_channels: int = 0
    out_channels: int = 0
    in_features: int = 0
    out_features: int = 0
    in_shape: tuple[int, ...] = ()
    out_shape: tuple[int, ...] = ()
    residual_from: str = ""  # name of the earlier layer whose output is added
    # Shortcut branch of a residual_add: optional 1x1 projection conv applied to
    # the residual source (its stride/out_channels ride on this layer's fields).
    proj: bool = False
    proj_in_shape: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]

    def __hash__(self) -> int:
        """The fields' hash, computed once per instance: a cache keyed on the net rehashes no LayerSpec."""
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.name, self.input_shape, self.layers))
            return h

    def validate(self) -> None:
        shape = self.input_shape
        seen = {}
        for layer in self.layers:
            if layer.in_shape != shape:
                raise ShapeError(
                    f"{self.name}/{layer.name}: expected input {shape}, spec says {layer.in_shape}"
                )
            if layer.kind == "residual_add":
                src = seen.get(layer.residual_from)
                if src is None:
                    raise ShapeError(f"{layer.name}: unknown residual source {layer.residual_from!r}")
                if not layer.proj and src.out_shape != shape:
                    raise ShapeError(f"{layer.name}: residual shapes differ")
                if layer.proj and layer.proj_in_shape != src.out_shape:
                    raise ShapeError(f"{layer.name}: projection input shape mismatch")
            shape = layer.out_shape
            seen[layer.name] = layer
        if len(shape) != 1:
            raise ShapeError(f"{self.name}: final layer must yield a score vector, got {shape}")


# Every MAC layer is a grouped convolution: G groups, each of O/G output
# channels over C/G input channels. A conv has G = 1, a depthwise layer
# G = C (one group per channel), and a dense layer is a conv with one window.
MAC_KINDS = ("conv2d", "depthwise_conv2d", "dense")


def groups(layer: LayerSpec) -> int:
    """A MAC layer's groups G: C for a depthwise layer, 1 otherwise."""
    return layer.in_channels if layer.kind == "depthwise_conv2d" else 1


def weight_shape(layer: LayerSpec) -> tuple[int, ...]:
    """A MAC layer's stored weight shape: (O, C/G, kh, kw) for a conv, (K, O) for a dense layer."""
    if layer.kind == "dense":
        return (layer.in_features, layer.out_features)
    return (layer.out_channels, layer.in_channels // groups(layer), *layer.kernel)


def projection(layer: LayerSpec) -> LayerSpec:
    """A projected shortcut's 1x1 strided conv of the residual source, named "{layer.name}.proj"."""
    return LayerSpec(
        name=f"{layer.name}.proj", kind="conv2d", kernel=(1, 1), stride=layer.stride,
        in_channels=layer.proj_in_shape[0], out_channels=layer.out_channels,
        in_shape=layer.proj_in_shape, out_shape=layer.out_shape,
    )


def own_mac_layers(layer: LayerSpec) -> tuple[LayerSpec, ...]:
    """The MAC layers one layer runs: itself if it is one, its projection if it is a projected shortcut."""
    if layer.kind in MAC_KINDS:
        return (layer,)
    return (projection(layer),) if layer.proj else ()


def mac_layers(net: NetworkSpec):
    """Every layer that holds weights, in order: the MAC layers, and each projected shortcut as its 1x1 conv."""
    for layer in net.layers:
        yield from own_mac_layers(layer)


def _conv_out(side: int, k: int, stride: int, pad: int) -> int:
    out = (side + 2 * pad - k) // stride + 1
    if out < 1:
        raise ShapeError(f"conv/pool reduces dimension {side} below 1")
    return out


def _infer(layer: LayerSpec, in_shape: tuple[int, ...]) -> LayerSpec:
    kind = layer.kind
    if kind in ("conv2d", "depthwise_conv2d", "maxpool2d"):
        c, h, w = in_shape
        kh, kw = layer.kernel
        oh = _conv_out(h, kh, layer.stride, layer.padding)
        ow = _conv_out(w, kw, layer.stride, layer.padding)
        if kind == "conv2d":
            out_c = layer.out_channels
            layer = replace(layer, in_channels=c)
        elif kind == "depthwise_conv2d":
            out_c = c
            layer = replace(layer, in_channels=c, out_channels=c)
        else:
            out_c = c
        return replace(layer, in_shape=in_shape, out_shape=(out_c, oh, ow))
    if kind in ("relu", "softmax", "residual_add"):
        return replace(layer, in_shape=in_shape, out_shape=in_shape)
    if kind == "flatten":
        n = 1
        for d in in_shape:
            n *= d
        return replace(layer, in_shape=in_shape, out_shape=(n,))
    if kind == "dense":
        (n,) = in_shape
        return replace(layer, in_features=n, in_shape=in_shape, out_shape=(layer.out_features,))
    raise ShapeError(f"unknown layer kind {kind!r}")


def build_network(name: str, input_shape: tuple[int, ...], layers) -> NetworkSpec:
    """Chain shapes through partially specified layers and validate the result."""
    chained = []
    shape = tuple(input_shape)
    by_name: dict[str, tuple[int, ...]] = {}
    for layer in layers:
        layer = _infer(layer, shape)
        if layer.kind == "residual_add" and layer.proj:
            src_shape = by_name.get(layer.residual_from, ())
            layer = replace(layer, proj_in_shape=src_shape)
            if src_shape:
                _, sh, sw = src_shape
                proj_out = (layer.out_channels, _conv_out(sh, 1, layer.stride, 0), _conv_out(sw, 1, layer.stride, 0))
                if proj_out != layer.out_shape:
                    raise ShapeError(f"{layer.name}: projected shortcut {proj_out} != main path {layer.out_shape}")
        chained.append(layer)
        by_name[layer.name] = layer.out_shape
        shape = layer.out_shape
    net = NetworkSpec(name=name, input_shape=tuple(input_shape), layers=tuple(chained))
    net.validate()
    return net


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


def _resnet_basic(layers, name, in_c, channels, stride):
    """Basic block: two 3x3 convs plus identity/projection shortcut."""
    src = f"{name}_in"
    layers.append(LayerSpec(name=src, kind="relu"))  # marker for the shortcut source
    layers += [
        _conv(f"{name}_conv1", channels, 3, stride, 1), _relu(f"{name}_relu1"),
        _conv(f"{name}_conv2", channels, 3, 1, 1),
    ]
    needs_proj = stride != 1 or in_c != channels
    layers.append(
        LayerSpec(
            name=f"{name}_add", kind="residual_add", residual_from=src,
            proj=needs_proj, stride=stride, out_channels=channels if needs_proj else 0,
        )
    )
    layers.append(_relu(f"{name}_relu2"))
    return channels


def _resnet_bottleneck(layers, name, in_c, mid, stride):
    out = mid * 4
    src = f"{name}_in"
    layers.append(LayerSpec(name=src, kind="relu"))
    layers += [
        _conv(f"{name}_conv1", mid, 1), _relu(f"{name}_relu1"),
        _conv(f"{name}_conv2", mid, 3, stride, 1), _relu(f"{name}_relu2"),
        _conv(f"{name}_conv3", out, 1),
    ]
    needs_proj = stride != 1 or in_c != out
    layers.append(
        LayerSpec(
            name=f"{name}_add", kind="residual_add", residual_from=src,
            proj=needs_proj, stride=stride, out_channels=out if needs_proj else 0,
        )
    )
    layers.append(_relu(f"{name}_relu3"))
    return out


def _resnet(name, block_counts, bottleneck):
    layers = [_conv("conv1", 64, 7, 2, 3), _relu("relu1"), _pool("pool1", 3, 2, 1)]
    channels = (64, 128, 256, 512)
    in_c = 64
    for stage, (c, n) in enumerate(zip(channels, block_counts), start=1):
        for b in range(n):
            stride = 2 if stage > 1 and b == 0 else 1
            if bottleneck:
                in_c = _resnet_bottleneck(layers, f"s{stage}b{b}", in_c, c, stride)
            else:
                in_c = _resnet_basic(layers, f"s{stage}b{b}", in_c, c, stride)
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
