"""CNN execution: float reference backend and LUT-backed integer backend.

Both backends take one (C, H, W) sample or an (N, C, H, W) stack whose
trailing shape is the network's input. One sample returns class
probabilities of shape (classes,) and per-sample captures; a stack returns
(N, classes) and adds a leading N axis to every captured value. `evaluate`,
`prepare_quantized` and `fit_last_layer` run their inputs in stacked chunks
of at most BATCH_ELEMENTS input elements.

One layer walk, `_forward`, serves every pass: inference on both backends,
calibration and the last-layer fit. It runs pooling, ReLU (in place only on
arrays the pass made itself), flatten, residual adds and softmax, and hands
each MAC layer to the backend's MAC step. A projected shortcut is a MAC
layer too: the 1x1 strided conv "{name}.proj" of the residual source, which
the add holds (`LayerSpec.shortcut`) and `nets.mac_layers` lists. Every MAC
step is one grouped conv (`_mac`), channel-major: the product (G, O/G, K/G)
weight rows @ (N, G, K/G, P) windows over the batch axis, weight rows
always on the left. A conv has G = 1, a depthwise layer G = C and a dense
layer is one window, so outputs come out NCHW with no transpose. The float
step's rows are a free reshape of the stored weights (`_weight_rows`) and
its product is a real matmul.

The walk follows a plan (`_plan`), built once per (net, stack size N,
WINDOW_ELEMENTS) and kept in a bounded cache; equal nets share one, since a
NetworkSpec caches its hash and the cache compares nets by value. The plan
resolves, when it is built, all that depends only on that key: each step's
kind, the outputs a residual add reads, where ReLU may run in place, pool
taps, flatten and output shapes, each MAC layer's weight keys, weight-row
and bias shapes, block partition, scratch and window shapes (`_MacStep`),
a projected add's stored shortcut conv included, and which MAC steps of
the integer backend requantize their input. Nothing is filled in later,
and the plan holds no array: no activation, scratch or weight, so a call
keeps nothing and stays re-entrant. A call only runs each step's numpy
operations.

`_mac` receives each layer's input unpadded and walks its groups in the
plan's blocks of at most WINDOW_ELEMENTS window elements (at least one
group, so a conv or dense layer is one block): it copies a block's
channels into the interior of one scratch buffer whose border is filled
once per call with the code of real 0, windows it and takes that block's
product. The blocks fill the layer's (N, G, O/G, P) product, which `_mac`
returns before bias; each backend finishes it and adds the bias with
`_add_bias`. Neither a layer's whole padded input nor its whole window
tensor exists at once (cache blocking; Goto and van de Geijn, ACM TOMS
2008). The float pad is 0. The vector engine's codes are centred before
`_mac`, so its pad is 0, the centred code of 0; the cluster engine keeps
unsigned codes, so its pad is the activation zero point za. Each
`QuantizedLayer` holds its centred weight codes once, as the rows `_mac`
reads (`lhs`). The integer step's captures and scaling run once per layer
on the assembled product, and a layer's captured accumulators are written
in one update.

Between MAC layers the integer backend hands each layer the codes of its
input, as a LUT-based PIM accelerator passes codes, not real numbers. Where
a MAC layer's input is the output of the MAC layer before it through
nothing but ReLU, max pooling and flatten, with no residual source on the
way (`_plan`), that input is finite: `quantized_layer` refuses a bias that
could make a scaled output otherwise, and `nets` a max pool with a window
of padding alone. The layer then requantizes it in the float64 buffer the
pass made (`_requantize`): quantize's division, rounding and zero point in
quantize's order, then one clip straight into the layer's code type, with
no finiteness scan. A ReLU on the way becomes the clip's lower bound, the
zero point, and the walk skips it; a ReLU commutes with max pooling, so
the pool runs first, on floats, and leaves fewer values to requantize. The
codes are those that quantize would give, so every accumulator, capture and
probability is as before. Every other MAC layer quantizes its input: the
first, one that reads a residual add's output or a residual source's, and
each projected shortcut. `infer_float`, calibration and the last-layer fit
walk floats throughout.

Precision is stated once, in each layer's quantization params: a layer's
precision (`QuantizedLayer.bits`) is the wider of its weight and activation
params' bits. Each layer runs at its own precision, with its own code and
product types, and is charged at it, so a model may mix 4-, 8- and 16-bit
layers. The ledger's events are charged once per (net, cfg, per-layer
precisions) and copied into each call's fresh ledger.

Tables are certified once, then multiplies use the certified products: the
vector engine's first run checks `mac8` over all 65,536 byte pairs against
a*b. Once every byte product is a*b, the cluster's byte passes, recombined
and corrected for zero points, give the integer sum of products of centred
codes, so the vector engine takes that sum as one matmul at 4, 8 and 16
bits. engine="cluster" multiplies unsigned bytes, as the cluster does: its
codes stay unsigned integers from `quantize` or `_requantize` to `mac8`,
uint8 in a 4- or 8-bit layer and uint16 in a 16-bit one, and its weight
codes are lhs + zw, cast once per call. Byte i of each operand is taken
once as uint8, the codes themselves or a byte of their uint16 view, and
each of the operand_bytes(bits)**2 byte passes (four at 16 bits) runs
through `mac8` in lockstep, one call per block of k with at most
CLUSTER_LANES lanes unless a single k has more outputs. The MAC program
runs once per process on every byte pair, and mac8 reads each lane's int64
product from that table, so the certification above checks the very table
the cluster's lanes read; each lane still counts as one run of the program.
The engine shifts and sums the passes and applies the zero-point
corrections in int64, and that int64 accumulator is what the layer captures
and scales. Products are non-negative, so checking the running sums against
the 32-bit accumulator after each block raises on exactly the inputs a
per-MAC check does.

On the vector engine, codes stay float integers from `quantize` or
`_requantize` to the accumulator, in one float type per MAC layer. Centred
codes are at most q = 2^bits - 1 in magnitude, so every partial sum of a
K-long dot product is at most K*q^2 in any summation order. A layer whose
K*q^2 < 2^24 takes float32, which holds those integers exactly: K <= 258 at
8 bits, K <= 74,565 at 4 bits, never at 16. Every other layer takes
float64; building a layer with K*q^2 >= 2^53 raises. `quantized_layer`
makes that choice once (`_product_dtype`) and centres the weight codes into
that type; `quantize` casts the activation codes into it and centring
follows, or `_requantize` writes them into it centred, and the scratch
buffer, windows and the product stay in it.
The accumulator is scaled in float64 in every layer, so outputs do not
depend on the type. int64 appears only in captured accumulators (cast once
per layer from the vector engine's float product), in the cluster engine's
product, and in the codes a weight container loads. Integer results are
exact, so both engines, any batch and any direct integer oracle agree
bit-for-bit, with or without captures.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cluster import Cluster, check_accumulator, mac8, operand_bytes
from .lut_core import build_function_table  # noqa: F401 - perfbench's tracer wraps engine.build_function_table
from .nets import MAC_KINDS, NetworkSpec, groups, mac_layers, own_mac_layers, weight_shape
from .perf import charge_layer
from .quantizer import SUPPORTED_BITS, CalibrationError, QuantParams, calibrate, quantize
from .system import EnergyLedger, SystemConfig
from .weights import WeightSet

# Input elements per stacked chunk in evaluate, prepare_quantized and
# fit_last_layer: 8 tinymalnet samples, or one mobilenet_v2 sample. On a
# 2-core Xeon VM with 2 MB of L2 per core, 8-bit tinymalnet evaluation ran
# fastest at 8-16 samples per chunk; at 64 it took 1.6x as long, its conv1
# windows alone (4 MB) far past the L2 cache.
BATCH_ELEMENTS = 8192

# Lanes per lockstep mac8 call on the cluster engine: as many as the MAC
# program's byte table holds, so no call gathers more lanes than the one run
# that built it.
CLUSTER_LANES = 65_536

# Window elements per block of groups in a MAC step (_MacStep): a depthwise
# layer pads and windows this many elements of its groups at a time instead
# of the whole layer, 512 KiB of float64 windows or 256 KiB of float32. It
# is read once per call, as part of the layer plan's key, so a change
# between calls takes effect. On the 2-core VM above, one mobilenet_v2
# infer_float sample took 46-51 ms with 256 KiB to 1 MiB float64 blocks,
# 49-56 ms with 128 KiB, 51-53 ms with 2 MiB (the L2 size) and 80 ms with
# one block per layer.
WINDOW_ELEMENTS = 64 * 1024


def _as_batch(net: NetworkSpec, x) -> tuple[np.ndarray, bool]:
    """x as an (N, C, H, W) float64 stack, and whether it was one (C, H, W) sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4) or x.shape[-3:] != net.input_shape:
        raise ValueError(
            f"input shape {x.shape} is neither the network input {net.input_shape}"
            f" nor a stack (N, *{net.input_shape})"
        )
    if len(x) == 0:
        raise ValueError("cannot run an empty stack of inputs")
    return (x[None], True) if x.ndim == 3 else (x, False)


def _chunks(net: NetworkSpec, inputs):
    """Consecutive samples of `inputs` stacked (N, C, H, W), at most BATCH_ELEMENTS elements per stack."""
    per = max(1, BATCH_ELEMENTS // math.prod(net.input_shape))
    it = iter(inputs)
    while chunk := list(itertools.islice(it, per)):
        yield np.stack(chunk)


# ---------------------------------------------------------------------------
# the layer plan, the layer walk, the MAC step and the float reference backend


class _MacStep:
    """One MAC layer's geometry at one stack size N and window budget: what _mac, _weight_rows and _add_bias read.

    keys are the layer's weight and bias entries in a WeightSet, rows the
    (G, O/G, K/G) shape of its float weight rows (K/G as -1), bias_rows the
    (G, O/G, 1) shape _add_bias broadcasts its bias to, and out its
    (N, *out_shape) output. requantize says whether infer_lut's step
    requantizes its input, a MAC step's output by way of relu, maxpool2d and
    flatten alone (_plan), and relu whether a ReLU lies on that way. A conv
    layer's blocks each hold as many of its groups as fit `budget` window
    elements, and at least one, so a conv (G = 1) is one block. A block is
    (c0, c1, g0, g1, shapes): its channels c0 to c1, its groups g0 to g1,
    and the (N, c1 - c0, kh, kw, oh, ow) view and (N, g1 - g0, K/G, P)
    windows _windows gives it. scratch is the shape of a padded layer's
    scratch buffer, one block of padded channels, and None otherwise. All
    is resolved here and nothing later; no array is kept.
    """

    def __init__(self, layer, n: int, budget: int, requantize: bool = False, relu: bool = False):
        g, o = groups(layer), layer.out_shape[0]
        self.layer = layer
        self.requantize, self.relu = requantize, relu
        self.keys = f"{layer.name}.w", f"{layer.name}.b"
        self.rows, self.bias_rows, self.out = (g, o // g, -1), (g, o // g, 1), (n, *layer.out_shape)
        if layer.kind == "dense":  # one window per sample: no blocks and no scratch
            self.scratch, self.blocks = None, ()
            return
        (c, h, w), (kh, kw), (oh, ow), p = layer.in_shape, layer.kernel, layer.out_shape[1:], layer.padding
        per_group = c // g
        block = max(1, budget // (n * per_group * kh * kw * oh * ow)) * per_group
        blocks = []
        for c0 in range(0, c, block):
            cb = min(block, c - c0)
            shapes = (n, cb, kh, kw, oh, ow), (n, cb // per_group, per_group * kh * kw, oh * ow)
            blocks.append((c0, c0 + cb, c0 // per_group, (c0 + cb) // per_group, shapes))
        self.blocks = tuple(blocks)
        self.scratch = (n, min(block, c), h + 2 * p, w + 2 * p) if p else None


class _Plan(NamedTuple):
    """A network's layer walk at one stack size: its steps, and its MAC steps in nets.mac_layers order."""

    steps: tuple[tuple, ...]
    macs: tuple[_MacStep, ...]


# Enough for a few nets at a few stack sizes each: one sample, evaluate's full
# and last chunks, and calibration's.
@functools.lru_cache(maxsize=32)
def _plan(net: NetworkSpec, n: int, budget: int) -> _Plan:
    """The layer walk of `net` over an (n, C, H, W) stack, resolved in full once per (net, n, window budget).

    Each step is (kind, layer, arg, save). kind is "mac" for a MAC layer and
    the layer's kind otherwise; save says whether a later residual_add reads
    its output. arg holds what the step needs beyond the arrays: a MAC
    layer's _MacStep, a projected add's shortcut conv's _MacStep (None for
    a plain shortcut), a pool's padding and taps, a ReLU's (in_place, folded):
    whether it may run in place (only on an array of the pass's own, not the
    input or a saved residual source) and whether the MAC step after it folds
    it into its requantization; and a flatten's output shape. budget is the
    window elements per block of groups (WINDOW_ELEMENTS), from which each
    _MacStep resolves its blocks as it is built, so a call only reads the
    plan. Equal nets share a plan: NetworkSpec caches its hash, and lookups
    compare nets by value.

    A MAC step requantizes its input (_MacStep.requantize) when the input is
    the output of the MAC step before it through relu, maxpool2d and flatten
    alone, none of them nor that step a residual source.
    """
    sources = {layer.residual_from for layer in net.layers if layer.kind == "residual_add"}
    # requant: each requantizing MAC layer, and whether a relu lies before it; after_mac: whether x is still a
    # MAC layer's output through relu, maxpool2d and flatten alone; relus: the relus since; folded: those folded
    requant, after_mac, relus, folded = {}, False, [], set()
    for layer in net.layers:
        if layer.kind in MAC_KINDS:
            if after_mac:
                requant[layer.name] = bool(relus)
                folded.update(relus)
            after_mac, relus = True, []
        elif layer.kind == "relu":
            relus.append(layer.name)
        elif layer.kind not in ("maxpool2d", "flatten"):
            after_mac = False
        if layer.name in sources:
            after_mac = False
    steps, owned = [], False  # owned: whether x is a temporary of the pass at this step
    for layer in net.layers:
        kind, arg = layer.kind, None
        if kind in MAC_KINDS:
            relu = requant.get(layer.name)
            kind, arg = "mac", _MacStep(layer, n, budget, relu is not None, bool(relu))
        elif kind == "residual_add" and layer.proj:
            arg = _MacStep(layer.shortcut, n, budget)
        elif kind == "maxpool2d":
            k, s, (_, oh, ow) = layer.kernel[0], layer.stride, layer.out_shape
            taps = [(..., slice(i, i + s * oh, s), slice(j, j + s * ow, s)) for i in range(k) for j in range(k)]
            arg = layer.padding, tuple(taps)
        elif kind == "relu":
            arg = owned, layer.name in folded
        elif kind == "flatten":
            arg = (n, *layer.out_shape)
        steps.append((kind, layer, arg, layer.name in sources))
        if layer.name in sources:
            owned = False
        elif kind != "flatten":  # a flattened x is a view of the x before it
            owned = True
    return _Plan(tuple(steps), tuple(arg for _, _, arg, _ in steps if isinstance(arg, _MacStep)))


def _windows(x: np.ndarray, stride: int, view, grouped) -> np.ndarray:
    """(N, c, H, W) -> (N, c/(C/G), K/G, P) windows, each group's rows ordered (c, ki, kj); x already holds any padding.

    One copy through a strided view of x, shaped `view` (numpy checks that
    the view stays inside x's buffer), reshaped straight to `grouped`; a
    1x1, stride-1 window needs no copy and stays a view of x.
    """
    x = np.ascontiguousarray(x)
    sn, sc, sh, sw = x.strides
    return np.ndarray(view, x.dtype, x, 0, (sn, sc, sh, sw, sh * stride, sw * stride)).reshape(grouped)


def _mac(step: _MacStep, x: np.ndarray, lhs: np.ndarray, product, pad=0) -> np.ndarray:
    """A MAC layer's (N, G, O/G, P) product from its unpadded (N, C, H, W) or (N, K) input, one block of groups at a time.

    lhs is the layer's (G, O/G, K/G) weight rows over its G groups
    (nets.groups), read as given. Every layer is the product lhs @ (N, G,
    K/G, P) windows, each group's K/G ordered (c, ki, kj), a free reshape of
    the windows: a conv has G = 1 and a depthwise layer G = C. A dense layer is one
    window per sample, so each sample is its own product and a stack's rows
    equal single calls. product(lhs, rhs) runs once per block of groups of
    the plan (step.blocks), and the blocks' (N, gb, O/G, P) results fill one
    (N, G, O/G, P) array; a layer of one block returns that block's
    product. A padded layer copies each block's channels into the interior
    of one scratch buffer of the plan's shape (step.scratch), whose border
    is filled with `pad` once per call, and windows that: pad is 0 for the
    float input and the vector engine's centred codes, and the zero-point
    code za for the cluster engine's unsigned codes, in each case the code
    of real 0. So neither the whole padded input nor the whole window
    tensor exists at once.
    """
    layer = step.layer
    if layer.kind == "dense":
        return product(lhs, x[:, None, :, None])
    p = layer.padding
    if p:
        scratch = np.full(step.scratch, pad, x.dtype) if pad else np.zeros(step.scratch, x.dtype)
    out = None
    for c0, c1, g0, g1, shapes in step.blocks:
        xb = x[:, c0:c1]
        if p:
            padded = scratch[:, : c1 - c0]
            padded[:, :, p:-p, p:-p] = xb
            xb = padded
        acc = product(lhs[g0:g1], _windows(xb, layer.stride, *shapes))
        if len(step.blocks) == 1:
            return acc
        if out is None:
            out = np.empty((len(acc), len(lhs), *acc.shape[2:]), acc.dtype)
        out[:, g0:g1] = acc
    return out


def _add_bias(step: _MacStep, acc: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """A layer's (N, G, O/G, P) result plus its bias, added in place, as (N, *out_shape), NCHW."""
    acc += bias.reshape(step.bias_rows)
    return acc.reshape(step.out)


def _pool2d(x: np.ndarray, pad: int, taps) -> np.ndarray:
    """Max pooling over the last two axes of (N, C, H, W): the maximum of its taps, each a strided slice of x."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    out = x[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, x[tap], out=out)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis: one logit vector, or one row per sample."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forward(net: NetworkSpec, x: np.ndarray, single: bool, mac, captures: dict | None, fold_relu: bool = False):
    """The one layer walk of both backends over an (N, C, H, W) stack; mac(step, x) runs each MAC layer's _MacStep.

    The walk follows the plan of (net, N, WINDOW_ELEMENTS) (_plan). A projected
    shortcut runs as mac(its shortcut conv's step, source). The walk runs every
    other layer itself, keeps only the outputs a later residual_add reads,
    and captures the logits. fold_relu says that mac folds each ReLU before a
    requantizing step into its clip (infer_lut), so the walk skips those
    ReLUs. Returns x[0] for a single sample.
    """
    saved = {}
    for kind, layer, arg, save in _plan(net, len(x), WINDOW_ELEMENTS).steps:
        if kind == "mac":
            x = mac(arg, x)
        elif kind == "maxpool2d":
            x = _pool2d(x, *arg)
        elif kind == "relu":
            in_place, folded = arg
            if not (fold_relu and folded):
                x = np.maximum(x, 0.0, out=x if in_place else None)
        elif kind == "flatten":
            x = x.reshape(arg)
        elif kind == "residual_add":
            res = saved[layer.residual_from]
            x = x + (mac(arg, res) if arg else res)
        elif kind == "softmax":
            if captures is not None:
                captures["logits"] = (x[0] if single else x).copy()
            x = softmax(x)
        if save:
            saved[layer.name] = x
    return x[0] if single else x


def _weight_rows(step: _MacStep, ws: WeightSet):
    """A MAC layer's float64 (G, O/G, K/G) weight rows and its bias.

    The rows are a free reshape of the stored (O, C/G, kh, kw) tensor, each
    group's K/G ordered (c, ki, kj), or the (1, O, K) transposed view of a
    dense layer's (K, O) matrix.
    """
    try:
        w = np.asarray(ws[step.keys[0]].data, dtype=np.float64)
        b = np.asarray(ws[step.keys[1]].data, dtype=np.float64)
    except KeyError:
        raise KeyError(f"missing weights for layer {step.layer.name!r}") from None
    return (w.T[None] if step.layer.kind == "dense" else w.reshape(step.rows)), b


def _float_mac(ws: WeightSet, step: _MacStep, x: np.ndarray) -> np.ndarray:
    """The float backend's MAC step: a real-arithmetic matmul of the layer's weights with each block's windows, plus bias."""
    rows, bias = _weight_rows(step, ws)
    return _add_bias(step, _mac(step, x, rows, np.matmul), bias)


def infer_float(net: NetworkSpec, ws: WeightSet, x: np.ndarray, captures: dict | None = None) -> np.ndarray:
    """Forward pass in real arithmetic; returns the class probabilities.

    x is one (C, H, W) sample, which returns a (classes,) vector, or an
    (N, C, H, W) stack, which returns (N, classes). captures["layer_inputs"]
    holds each MAC layer's input, a shortcut conv's under "{name}.proj", with
    the leading N axis for a stack; captures["logits"] the pre-softmax scores.
    """
    x, single = _as_batch(net, x)
    inputs = captures.setdefault("layer_inputs", {}) if captures is not None else None

    def mac(step, x):
        if inputs is not None:
            inputs[step.layer.name] = (x[0] if single else x).copy()
        return _float_mac(ws, step, x)

    return _forward(net, x, single, mac, captures)


# ---------------------------------------------------------------------------
# LUT-backed integer backend


class CertificationError(RuntimeError):
    """The MAC microprogram's product of a byte pair differs from a*b."""


class BiasError(ValueError):
    """A MAC layer's bias is not finite, or could carry the layer's scaled output past float64's range."""


def _byte_products() -> np.ndarray:
    """products[a, b]: the MAC microprogram's output for every byte pair, one lane each."""
    byte = np.arange(256, dtype=np.int64)
    return mac8(Cluster(), byte[:, None], byte[None, :])


@functools.cache
def _certify_byte_products() -> None:
    """Check the MAC microprogram against a*b on all 65,536 byte pairs, once per process."""
    products, byte = _byte_products(), np.arange(256, dtype=np.int64)
    wrong = np.argwhere(products != byte[:, None] * byte[None, :])
    if len(wrong):
        a, b = (int(v) for v in wrong[0])
        raise CertificationError(
            f"mac8 byte table is wrong at ({a}, {b}): {int(products[a, b])}, not {a * b}"
            f" ({len(wrong)} of 65536 pairs differ)"
        )


def _product_dtype(k: int, bits: int) -> np.dtype:
    """The float type that holds every integer of a k-long product of centred `bits`-bit codes exactly.

    Centred codes are at most q = 2**bits - 1 in magnitude, so every partial
    sum of the product is at most k*q^2 in magnitude, in any summation order.
    float32 holds it while k*q^2 < 2**24 (k <= 74,565 at 4 bits, 258 at 8,
    never at 16), float64 while k*q^2 < 2**53; past that, ValueError.
    """
    bound = k * ((1 << bits) - 1) ** 2
    if bound < 1 << 24:
        return np.dtype(np.float32)
    if bound < 1 << 53:
        return np.dtype(np.float64)
    raise ValueError(f"dot length {k}: a {bits}-bit dot product may reach 2**53, past float64's exact integers")


def _raw_dot_vector(lhs: np.ndarray, rhs: np.ndarray, bits: int) -> np.ndarray:
    """Sum of products sum_k lhs[..., i, k] * rhs[..., k, j], broadcast over leading axes: one matmul.

    lhs and rhs hold integer codes of one float type, zero-centred in
    infer_lut, and the result holds integers of that type. Tables are
    certified once, then multiplies use the certified products: once mac8 has
    matched a*b on every byte pair, the cluster's byte passes recombined with
    its zero-point corrections give the integer sum of products of the centred
    codes, so the vector engine takes that sum as one BLAS matmul, at every
    precision. Its partial sums are integers of magnitude at most K*q^2 with
    q = 2**bits - 1, exact in float32 while K*q^2 < 2^24 (K <= 258 at 8 bits,
    74,565 at 4, never at 16) and in float64 while K*q^2 < 2^53; each
    QuantizedLayer picks its codes' type from that bound (_product_dtype).
    The product does not read `bits`; the parameter stays because perfbench's
    corrupted-accumulator test wraps this function by its three-argument form.
    """
    _certify_byte_products()
    return lhs @ rhs


def _unsigned_dot_cluster(lhs: np.ndarray, zl: int, rhs: np.ndarray, zr: int, cluster: Cluster) -> np.ndarray:
    """sum_k (lhs - zl) * (rhs - zr) as int64 from unsigned codes, where mac8 multiplies unsigned bytes.

    lhs and rhs hold unsigned codes of one type, uint8 at 4 and 8 bits and
    uint16 at 16, and zl and zr are their zero points; the type's itemsize is
    the codes' byte count. Byte i of each is taken once as a uint8 array: the
    uint8 codes themselves, or the two bytes of a little-endian uint16 view,
    so mac8 runs its byte lanes with no cast of its own. A MAC of n-byte
    codes is n**2 byte passes, one at 4 and 8 bits and four at 16: byte i of
    lhs by byte j of rhs, shifted left by 8*(i + j) bits and summed. Each
    pass is one mac8 call per block of k: a call's lanes are a[..., :, k0:k1, None] by
    b[..., None, k0:k1, :], each from a zero accumulator, and each returns
    its lanes' products as int64; the host sums them over k. A block holds as
    many k as fit in CLUSTER_LANES lanes, and one k when a single k already
    has more outputs than that. The zero-point corrections, sum lhs*rhs -
    zr*sum lhs - zl*(sum rhs - K*zr), run in int64 too.

    Each pass's running sums are checked against the 32-bit accumulator after
    every block. Products are non-negative, so a lane's sum never decreases as
    k grows: a sum below 2**32 means every partial sum of the one-MAC-at-a-time
    accumulation was below it too. The check therefore raises
    AccumulatorOverflowError on exactly the inputs a per-MAC check does.
    """
    k_len = lhs.shape[-1]
    per_k = math.prod(np.broadcast_shapes(lhs.shape[:-1] + (1,), rhs.shape[:-2] + (1, rhs.shape[-1])))
    block = max(1, CLUSTER_LANES // per_k)
    for (i, a), (j, b) in itertools.product(enumerate(_byte_planes(lhs)), enumerate(_byte_planes(rhs))):
        total = 0
        for k0 in range(0, k_len, block):
            cluster.accumulator = 0
            products = mac8(cluster, a[..., :, k0 : k0 + block, None], b[..., None, k0 : k0 + block, :])
            total = total + products.sum(axis=-2)
            check_accumulator(total)
        acc = total if i + j == 0 else acc + (total << 8 * (i + j))  # the first pass is byte 0 by byte 0
    acc -= zr * lhs.sum(axis=-1, keepdims=True, dtype=np.int64)
    acc -= zl * (rhs.sum(axis=-2, keepdims=True, dtype=np.int64) - k_len * zr)
    return acc


def _byte_planes(codes: np.ndarray) -> list[np.ndarray]:
    """Each byte of the unsigned uint8 or uint16 codes, low byte first, as uint8 arrays of codes' shape.

    uint8 codes are their own one byte; uint16 codes give the two bytes of
    their little-endian view, with no shift.
    """
    if codes.itemsize == 1:
        return [codes]
    pairs = np.ascontiguousarray(codes, dtype="<u2").view(np.uint8).reshape(*codes.shape, 2)
    return [pairs[..., 0], pairs[..., 1]]


@dataclass(frozen=True)
class QuantizedLayer:
    """One MAC layer's weight operand and quantization parameters; build one with quantized_layer.

    lhs holds the layer's zero-centred weight codes once, read-only, as the
    (G, O/G, K/G) rows _mac reads, in the float type the vector engine's
    codes and product take in infer_lut (_product_dtype). It is the layer's
    only weight array: the container's unsigned codes are derived from it
    (qweight), and so are the cluster engine's, once per infer_lut call.
    """

    lhs: np.ndarray
    wparams: QuantParams
    bias: np.ndarray
    act_params: QuantParams  # input activation quantization at this layer

    @property
    def bits(self) -> int:
        """The layer's precision: the wider of its weight and activation params' bits, as quantized_layer reads it."""
        return max(self.wparams.bits, self.act_params.bits)

    @property
    def qweight(self) -> np.ndarray:
        """The unsigned (K/G, O) float64 codes a weight container holds, derived from lhs on every read.

        (K, O) for a conv or dense layer, (k, C) for a depthwise one.
        """
        centred = self.lhs.transpose(2, 0, 1).reshape(self.lhs.shape[-1], -1)  # (K/G, O), a view of lhs
        return np.add(centred, self.wparams.zero_point, dtype=np.float64)


def _check_bias(layer, bias, bound: float = 0.0) -> None:
    """Raise BiasError, naming `layer` and its bias entry, if bias is not finite or bound + max|bias| is not."""
    peak = float(np.abs(bias).max(initial=0.0))  # NaN propagates
    if math.isfinite(bound + peak):
        return
    where = f"bias {layer.name}.b of layer {layer.name!r}"
    if not math.isfinite(peak):
        raise BiasError(f"{where} is not finite")
    raise BiasError(f"{where}: the output bound K*q^2*sa*sw + max|b| = {bound!r} + {peak!r} is not finite")


def quantized_layer(layer, qweight, wparams: QuantParams, bias, act_params: QuantParams) -> QuantizedLayer:
    """A QuantizedLayer for MAC layer `layer` from its unsigned (K/G, O) weight codes.

    The codes are centred once into the read-only (G, O/G, K/G) rows the
    layer's product reads, in the float type _product_dtype picks from K/G
    and the wider of the two precisions. The caller's array is left as it was.

    Every accumulator of a K/G-long product of centred codes is at most
    K/G*q^2 in magnitude, q = 2**bits - 1, so the scaled output acc*(sa*sw) +
    b is at most K/G*q^2*(sa*sw) + max|b|, in float64's rounding too. A bias
    that is not finite, or that makes this bound overflow, raises BiasError:
    every output of a layer that is built is finite, so a layer that
    requantizes it in infer_lut needs no finiteness scan.
    """
    bits = max(wparams.bits, act_params.bits)
    dtype = _product_dtype(len(qweight), bits)
    _check_bias(layer, bias, len(qweight) * ((1 << bits) - 1) ** 2 * (act_params.scale * wparams.scale))
    lhs = np.subtract(qweight.T, wparams.zero_point, dtype=dtype, order="C")
    lhs = lhs.reshape(groups(layer), -1, len(qweight))
    lhs.flags.writeable = False
    return QuantizedLayer(lhs, wparams, bias, act_params)


@dataclass
class QuantizedModel:
    """A network's QuantizedLayers by MAC layer name; each layer states its own precision (QuantizedLayer.bits)."""

    net: NetworkSpec
    layers: dict[str, QuantizedLayer] = field(default_factory=dict)


def prepare_quantized(
    net: NetworkSpec, ws: WeightSet, cal_inputs, bits: int
) -> QuantizedModel:
    """Quantize weights (symmetric) and calibrate activations (asymmetric) on the float pass's layer inputs."""
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"precision must be {', '.join(map(str, SUPPORTED_BITS[:-1]))}, or {SUPPORTED_BITS[-1]} bits")
    extremes: dict[str, tuple] = {}  # running (lo, hi) of each MAC layer's input

    def mac(step, x):
        name = step.layer.name
        mn, mx = float(x.min()), float(x.max())
        if not (math.isfinite(mn) and math.isfinite(mx)):  # min/max below would drop a NaN
            raise CalibrationError(f"calibration input to layer {name!r} is not finite")
        lo, hi = extremes.get(name, (mn, mx))
        extremes[name] = (min(lo, mn), max(hi, mx))
        return _float_mac(ws, step, x)

    try:
        for xs in _chunks(net, cal_inputs):
            _forward(net, xs, False, mac, None)
    except CalibrationError:
        for step in _plan(net, 1, WINDOW_ELEMENTS).macs:  # a bias that is not finite poisons the layers after it
            _check_bias(step.layer, ws[step.keys[1]].data)
        raise
    qm = QuantizedModel(net=net)
    for step in _plan(net, 1, WINDOW_ELEMENTS).macs:  # the rows do not depend on the stack size
        layer = step.layer
        rows, b = _weight_rows(step, ws)
        wmat = rows.reshape(-1, rows.shape[-1]).T  # a (K/G, O) view, the layout a container holds codes in
        wp = calibrate(wmat, bits, symmetric=True)
        codes = quantize(wmat, wp)
        del rows, wmat  # so the float weights are freed before the centred rows are built
        act = calibrate(np.array(extremes.get(layer.name, ())), bits, symmetric=False)
        qm.layers[layer.name] = quantized_layer(layer, codes, wp, b, act)
    return qm


def _requantize(a: np.ndarray, p: QuantParams, relu: bool, dtype, centred: bool = False) -> np.ndarray:
    """quantize(np.maximum(a, 0) if relu else a, p, dtype) of a finite float64 a, byte for byte; a is overwritten.

    The same float64 operations in the same order as quantize, in a's own
    buffer: divide, rint and the zero point, then one clip straight into a
    fresh array of dtype. A ReLU becomes the clip's lower bound: for a < 0,
    rint(a/S) + Z <= Z, which clips to Z, the code of max(a, 0) = 0. quantize's
    finiteness scan is left out: a built layer's outputs are finite
    (quantized_layer), and so is what ReLU, max pooling (nets refuses a
    window of padding alone) and flatten make of them. A finite a whose a/S
    overflows clips as in quantize.

    centred returns the centred codes instead, which the vector engine's
    product reads: the zero point is not added and the clip's bounds move
    down by Z. rint(a/S) is an integer, or past the clip when adding Z would
    round, so the codes equal quantize(...) - Z, except that a centred code
    of 0 may be -0.0: it multiplies to a zero of either sign, and no sum of
    integers or int64 capture reads a zero's sign.
    """
    a /= p.scale
    np.rint(a, out=a)
    z = p.zero_point
    if centred:
        lo, hi = (0 if relu else -z), p.qmax - z
    else:
        a += z
        lo, hi = (z if relu else 0), p.qmax
    return np.clip(a, lo, hi, out=np.empty(a.shape, dtype), casting="unsafe")


@functools.lru_cache(maxsize=64)
def _channel_keys(name: str, channels: int) -> tuple[str, ...]:
    """A depthwise layer's capture keys, "name[c]" for each channel c."""
    return tuple(f"{name}[{c}]" for c in range(channels))


@functools.lru_cache(maxsize=16)
def _ledger_events(net: NetworkSpec, cfg: SystemConfig, precisions: tuple[tuple[str, int], ...]) -> tuple[tuple, ...]:
    """The ledger events of one sample of `net`, charged by perf.charge_layer once per (net, cfg, precisions).

    precisions holds (name, bits) for each MAC layer. Every layer is charged
    at the precision of the MAC layer it runs (nets.own_mac_layers): itself,
    or a projected add's shortcut conv. A layer that runs none is charged
    no MACs, which cost the same at every precision.
    """
    bits = dict(precisions)
    ledger = EnergyLedger()
    for layer in net.layers:
        runs = own_mac_layers(layer)
        charge_layer(ledger, layer, cfg, bits[runs[0].name] if runs else SUPPORTED_BITS[0])
    return tuple(ledger.events)


def infer_lut(
    qm: QuantizedModel,
    x: np.ndarray,
    cfg: SystemConfig | None = None,
    engine: str = "vector",
    captures: dict | None = None,
):
    """Quantized forward pass on the LUT backend.

    Each MAC layer runs at its own precision (QuantizedLayer.bits), so one
    model may mix 4-, 8- and 16-bit layers. It takes its input's codes once,
    from _requantize where the plan says so (_MacStep.requantize) and from
    quantize otherwise, and hands them to _mac unpadded, which pads each
    block of groups with the code of real 0 and takes the block's product.
    The vector engine takes centred float codes, pads with 0 and takes
    _raw_dot_vector; the cluster engine keeps the layer's unsigned codes,
    uint8 at 4 and 8 bits and uint16 at 16, pads with the zero point za and
    takes _unsigned_dot_cluster's int64 accumulator. The layer's captures and
    scaling run once on the assembled product.

    x is one (C, H, W) sample or an (N, C, H, W) stack. Returns (probabilities,
    ledger); a stack's probabilities are (N, classes). Integer accumulators per
    MAC layer land in captures["acc"] when a captures dict is supplied: (P, O)
    under a conv's name and a projected shortcut's "{name}.proj", (1, O) under
    a dense layer's (the pre-softmax integer output when it is the last) and
    (P, 1) under "name[c]" for each channel c of a depthwise layer, each with a
    leading N axis for a stack. The ledger prices one sample, which is what
    each sample of a stack costs: its events are charged by perf.charge_layer,
    once per layer at the precision of the MAC layer it runs, and once per
    (net, cfg, per-layer precisions) (_ledger_events). So each layer costs
    what perf.layer_cost says at its precision, and a uniform model's totals
    match perf.estimate at its bits. Every call returns a fresh ledger with
    its own event list.
    """
    if engine not in ("vector", "cluster"):
        raise ValueError(f"unknown engine {engine!r}")
    cfg = cfg or SystemConfig()
    x, single = _as_batch(qm.net, x)
    cluster = Cluster() if engine == "cluster" else None
    accs = captures.setdefault("acc", {}) if captures is not None else None

    def mac(step, x):
        """Take x's codes once, then one grouped-conv product: sum((qw - zw) * (qa - za))."""
        layer = step.layer
        ql = qm.layers[layer.name]
        za, zw = ql.act_params.zero_point, ql.wparams.zero_point
        # the vector engine's codes are centred in place, and _mac pads them with 0, the centred code of 0; the
        # cluster engine's stay unsigned up to mac8, at the layer's own precision, and _mac pads them with za
        codes = ql.lhs.dtype if cluster is None else np.uint8 if operand_bytes(ql.bits) == 1 else np.uint16
        if step.requantize:  # x is a MAC step's finite output, which the pass made and nothing else reads
            q = _requantize(x, ql.act_params, step.relu, codes, centred=cluster is None)
        else:
            q = quantize(x, ql.act_params, codes)
            if cluster is None:
                q -= za
        if cluster is None:
            acc = _mac(step, q, ql.lhs, lambda lhs, rhs: _raw_dot_vector(lhs, rhs, ql.bits))
        else:
            w = (ql.lhs + zw).astype(codes)
            acc = _mac(step, q, w, lambda lhs, rhs: _unsigned_dot_cluster(lhs, zw, rhs, za, cluster), za)
        if accs is not None:
            # int64 once per layer (the cluster's product already is), viewed group-major (G, N, P, O/G);
            # captures are views of it
            view = acc.astype(np.int64, copy=False).transpose(1, 0, 3, 2)
            if single:
                view = view[:, 0]
            if layer.kind == "depthwise_conv2d":  # one key per channel, written in one update
                accs.update(zip(_channel_keys(layer.name, len(view)), view))
            else:
                accs[layer.name] = view[0]
        acc = acc.astype(np.float64, copy=False)  # every product's integers are scaled in float64
        acc *= ql.act_params.scale * ql.wparams.scale
        return _add_bias(step, acc, ql.bias)

    probs = _forward(qm.net, x, single, mac, captures, fold_relu=True)
    precisions = tuple((name, ql.bits) for name, ql in qm.layers.items())
    return probs, EnergyLedger(list(_ledger_events(qm.net, cfg, precisions)))


# ---------------------------------------------------------------------------
# desk-scale training (closed-form last-layer fit) and metrics


def init_random_weights(net: NetworkSpec, seed: int) -> WeightSet:
    """He-scaled random weights and zero biases for every layer mac_layers yields."""
    rng = np.random.default_rng(seed)
    ws = WeightSet()
    for layer in mac_layers(net):
        shape, out_channels = weight_shape(layer), layer.out_shape[0]
        w = rng.normal(0, np.sqrt(2 / (math.prod(shape) // out_channels)), shape)  # fan-in K/G
        ws.add(f"{layer.name}.w", w.astype(np.float32))
        ws.add(f"{layer.name}.b", np.zeros(out_channels, dtype=np.float32))
    return ws


# Ridge penalty per training sample of the last-layer fit.
RIDGE = 1.0


def fit_last_layer(net: NetworkSpec, ws: WeightSet, inputs, labels) -> WeightSet:
    """Single-pass ridge fit of the final dense layer on frozen upstream features.

    Features are standardized for the solve; the affine correction is folded
    back into the dense weights and bias, so inference stays a plain layer.
    """
    dense = [l for l in net.layers if l.kind == "dense"][-1]
    feats = []

    def mac(step, x):
        if step.layer.name == dense.name:  # the plan may hold an equal net's layers
            feats.append(x)  # nothing later in the pass writes to a MAC layer's input
        return _float_mac(ws, step, x)

    for xs in _chunks(net, inputs):
        _forward(net, xs, False, mac, None)
    X = np.concatenate(feats)
    y = np.asarray(labels, dtype=int)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    # Floor near-dead feature scales so the folded weights stay in a range
    # that survives low-bit symmetric weight quantization.
    sd = np.maximum(sd, np.median(sd) + 1e-12)
    Xs = (X - mu) / sd
    Y = -np.ones((len(y), dense.out_features))
    Y[np.arange(len(y)), y] = 1.0
    gram = Xs.T @ Xs + RIDGE * len(y) * np.eye(Xs.shape[1])
    W = np.linalg.solve(gram, Xs.T @ Y)
    ws.add(f"{dense.name}.w", (W / sd[:, None]).astype(np.float32))
    ws.add(f"{dense.name}.b", (-(mu / sd) @ W).astype(np.float32))
    return ws


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    probability_gap: float  # mean P(true) - P(predicted); 0 when always correct
    tp: int
    fp: int
    tn: int
    fn: int


def metrics_from_predictions(y_true, probs) -> MetricsReport:
    """Two-class metrics with malware (class 1) as the positive class."""
    y_true = np.asarray(y_true, dtype=int)
    probs = np.asarray(probs, dtype=np.float64)
    if len(y_true) == 0:
        raise ValueError("cannot evaluate an empty corpus")
    y_pred = probs.argmax(axis=1)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    n = len(y_true)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    gap = float(np.mean(probs[np.arange(n), y_true] - probs[np.arange(n), y_pred]))
    return MetricsReport(
        accuracy=(tp + tn) / n,
        precision=precision,
        recall=recall,
        f1=f1,
        probability_gap=gap,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def evaluate(
    net: NetworkSpec,
    ws: WeightSet,
    inputs,
    labels,
    bits: int | None = None,
    cal_count: int = 32,
) -> MetricsReport:
    """Corpus evaluation in the float backend or the LUT backend at a precision.

    The LUT backend calibrates on the first cal_count inputs. Both backends
    run the corpus in stacked chunks of at most BATCH_ELEMENTS input elements.
    """
    if len(inputs) == 0:
        raise ValueError("cannot evaluate an empty corpus")
    if len(inputs) != len(labels):
        raise ValueError(f"{len(inputs)} inputs but {len(labels)} labels")
    if bits is None:
        probs = np.concatenate([infer_float(net, ws, xs) for xs in _chunks(net, inputs)])
    else:
        qm = prepare_quantized(net, ws, inputs[:cal_count], bits)
        probs = np.concatenate([infer_lut(qm, xs)[0] for xs in _chunks(net, inputs)])
    return metrics_from_predictions(labels, probs)
