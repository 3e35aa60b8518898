import dataclasses
import re

import pytest

from lutpim import nets
from lutpim.nets import (
    ZOO,
    LayerSpec,
    NetworkSpec,
    ShapeError,
    build_network,
    get_network,
    tinymalnet,
)


def test_tinymalnet_shapes():
    net = tinymalnet()
    assert net.input_shape == (1, 32, 32)
    by_name = {l.name: l for l in net.layers}
    assert by_name["conv1"].out_shape == (8, 30, 30)
    assert by_name["pool1"].out_shape == (8, 15, 15)
    assert by_name["conv2"].out_shape == (16, 13, 13)
    assert by_name["pool2"].out_shape == (16, 6, 6)
    assert by_name["dense"].in_shape == (16 * 6 * 6,)
    assert by_name["dense"].out_features == 2
    assert net.layers[-1].kind == "softmax"


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_networks_validate(name):
    net = get_network(name)
    expected = (1, 32, 32) if name == "tinymalnet" else (3, 224, 224)
    assert net.input_shape == expected
    assert net.layers[-1].kind == "softmax"


def test_zoo_classifier_widths():
    assert get_network("alexnet").layers[-2].out_features == 1000
    assert get_network("vgg16").layers[-2].out_features == 1000
    assert get_network("resnet50").layers[-2].out_features == 1000


def test_resnet_projection_bookkeeping():
    net = get_network("resnet50")
    projected = [l for l in net.layers if l.kind == "residual_add" and l.proj]
    assert projected  # bottleneck stages need projected shortcuts
    out_shapes = {l.name: l.out_shape for l in net.layers}
    for l in projected:  # the 1x1 strided conv of the residual source, resolved once
        assert l.shortcut.name == f"{l.name}.proj" and l.shortcut.in_shape == out_shapes[l.residual_from]


def test_conv_shape_arithmetic():
    net = build_network(
        "t",
        (3, 11, 11),
        [
            LayerSpec(name="c", kind="conv2d", kernel=(3, 3), stride=2, padding=1, out_channels=4),
            LayerSpec(name="f", kind="flatten"),
        ],
    )
    assert net.layers[0].out_shape == (4, 6, 6)  # (11 + 2*1 - 3)//2 + 1


def test_shape_break_detected():
    with pytest.raises(ShapeError):
        build_network(
            "bad",
            (1, 4, 4),
            [
                LayerSpec(name="c1", kind="conv2d", kernel=(3, 3), out_channels=2),
                LayerSpec(name="c2", kind="conv2d", kernel=(3, 3), out_channels=2),
                LayerSpec(name="c3", kind="conv2d", kernel=(3, 3), out_channels=2),
            ],
        )


def test_unknown_residual_source():
    with pytest.raises(ShapeError):
        build_network(
            "bad",
            (1, 8, 8),
            [
                LayerSpec(name="c", kind="conv2d", kernel=(3, 3), padding=1, out_channels=1),
                LayerSpec(name="add", kind="residual_add", residual_from="nope"),
            ],
        )


@pytest.mark.parametrize(
    "layers, culprit, shape",
    [
        ([LayerSpec(name="d", kind="dense", out_features=2)], "d", (1, 4, 4)),
        (
            [LayerSpec(name="f", kind="flatten"), LayerSpec(name="c", kind="conv2d", kernel=(1, 1), out_channels=2)],
            "c",
            (16,),
        ),
        ([LayerSpec(name="f", kind="flatten"), LayerSpec(name="p", kind="maxpool2d", kernel=(1, 1))], "p", (16,)),
    ],
    ids=["dense-on-3d", "conv-after-flatten", "pool-after-flatten"],
)
def test_a_layer_on_an_input_of_the_wrong_rank_is_refused_by_name(layers, culprit, shape):
    with pytest.raises(ShapeError, match=rf"^{culprit}: .*{re.escape(str(shape))}$"):
        build_network("bad", (1, 4, 4), layers)


def _projected_net():
    """A strided conv beside the projected shortcut of its input, then a dense head."""
    return build_network(
        "p",
        (2, 6, 6),
        [
            LayerSpec(name="in", kind="relu"),
            LayerSpec(name="c", kind="conv2d", kernel=(3, 3), stride=2, padding=1, out_channels=4),
            LayerSpec(name="add", kind="residual_add", residual_from="in", proj=True, stride=2, out_channels=4),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
        ],
    )


def _remade(net, i, **changes):
    """net made again by hand, with layer i's fields changed."""
    layers = list(net.layers)
    layers[i] = dataclasses.replace(layers[i], **changes)
    return NetworkSpec(net.name, net.input_shape, tuple(layers))


def test_the_projected_add_holds_its_one_shortcut_conv():
    net = _projected_net()
    add = net.layers[2]
    assert add.shortcut == LayerSpec(
        name="add.proj", kind="conv2d", kernel=(1, 1), stride=2, out_channels=4, in_shape=(2, 6, 6), out_shape=(4, 3, 3)
    )
    assert list(nets.mac_layers(net)) == [net.layers[1], add.shortcut, net.layers[4]]
    assert _remade(net, 2) == net  # made again by hand unchanged, it passes its checks


@pytest.mark.parametrize(
    "make, culprit",
    [
        (
            lambda net: NetworkSpec(
                "bad", (1, 4, 4), (LayerSpec(name="flatten", kind="flatten", in_shape=(2, 4, 4), out_shape=(32,)),)
            ),
            "flatten",
        ),
        (
            lambda net: NetworkSpec(
                "bad", (1, 4, 4), (LayerSpec(name="dense", kind="dense", in_shape=(1, 4, 4), out_shape=(2,)),)
            ),
            "dense",
        ),
        (lambda net: _remade(net, 2, residual_from="nope"), "add"),
        (lambda net: _remade(net, 2, residual_from="flatten"), "add"),
        (lambda net: _remade(net, 2, shortcut=None), "add"),
        (lambda net: _remade(net, 2, shortcut=dataclasses.replace(net.layers[2].shortcut, in_shape=(4, 3, 3))), "add"),
        (lambda net: _remade(net, 2, shortcut=dataclasses.replace(net.layers[2].shortcut, out_shape=(2, 3, 3))), "add"),
        (lambda net: _remade(net, 2, proj=False, shortcut=None), "add"),
        (lambda net: NetworkSpec(net.name, net.input_shape, net.layers[:3]), "add"),
    ],
    ids=[
        "flatten-after-another-input",
        "dense-on-3d-input",
        "unknown-residual-source",
        "later-residual-source",
        "projected-add-without-conv",
        "conv-off-the-source",
        "conv-off-the-main-path",
        "identity-add-of-another-shape",
        "last-layer-not-rank-1",
    ],
)
def test_a_hand_built_network_is_checked_when_made(make, culprit):
    net = _projected_net()
    with pytest.raises(ShapeError, match=rf"/{culprit}: "):
        make(net)


@pytest.mark.parametrize("padding", [2, 3])
def test_a_pool_padded_as_wide_as_its_kernel_is_refused(padding):
    """Such a pool has a window of padding alone, whose maximum is -inf; one padded less is built."""
    layers = [
        LayerSpec(name="pool", kind="maxpool2d", kernel=(2, 2), stride=2, padding=padding),
        LayerSpec(name="flatten", kind="flatten"),
    ]
    with pytest.raises(ShapeError, match=r"^pp/pool: padding \d is not below the kernel \(2, 2\)$"):
        build_network("pp", (1, 6, 6), layers)
    build_network("pp", (1, 6, 6), [dataclasses.replace(layers[0], padding=1), layers[1]])


def test_unknown_network():
    # refused with the valid names on every call, and never cached
    valid = ", ".join(sorted(ZOO))
    cached = nets._built.cache_info().currsize
    for _ in range(2):
        with pytest.raises(KeyError) as e:
            get_network("lenet")
        assert e.value.args[0] == f"unknown network 'lenet'; valid names: {valid}"
    assert nets._built.cache_info().currsize == cached


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_networks_are_built_once(name):
    assert get_network(name) is get_network(name)


def test_shared_network_is_frozen():
    net = get_network("tinymalnet")
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers[0].out_channels = 4
    assert isinstance(net.layers, tuple)
