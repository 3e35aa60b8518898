import dataclasses

import pytest

from lutpim import nets
from lutpim.nets import (
    ZOO,
    LayerSpec,
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
    assert by_name["dense"].in_features == 16 * 6 * 6
    assert by_name["dense"].out_features == 2
    assert net.layers[-1].kind == "softmax"


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_networks_validate(name):
    net = get_network(name)
    net.validate()
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
    for l in projected:
        assert l.proj_in_shape  # captured source shape for the 1x1 projection


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
