"""Binary weight container: magic "PIMW", version 1, little-endian throughout.

Per tensor: u16 name length + name, u8 rank, u32 dims, dtype byte
(0 = real32, 1 = q4, 2 = q8, 3 = q16), QuantParams (f64 scale, i32 zero
point, u8 bits) when quantized, then raw data. Quantized elements are stored
one byte each for q4/q8 and two bytes for q16.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .quantizer import QuantParams

MAGIC = b"PIMW"
VERSION = 1

# quantized dtype byte -> (bits, little-endian storage type of one element)
_QUANTIZED = {1: (4, np.dtype("<u1")), 2: (8, np.dtype("<u1")), 3: (16, np.dtype("<u2"))}
_DTYPE_BY_BITS = {bits: dtype for dtype, (bits, _) in _QUANTIZED.items()}


class WeightFormatError(ValueError):
    """Bad magic, unsupported version, or truncated/malformed tensor record."""


@dataclass
class WeightEntry:
    name: str
    data: np.ndarray  # float32, or unsigned ints when params is set
    params: QuantParams | None = None


@dataclass
class WeightSet:
    entries: dict[str, WeightEntry] = field(default_factory=dict)

    def add(self, name: str, data: np.ndarray, params: QuantParams | None = None):
        self.entries[name] = WeightEntry(name=name, data=data, params=params)

    def __getitem__(self, name: str) -> WeightEntry:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries


def save_weights(ws: WeightSet, path) -> None:
    out = bytearray()
    out += MAGIC
    out += bytes([VERSION])
    out += struct.pack("<I", len(ws.entries))
    for entry in ws.entries.values():
        name = entry.name.encode()
        out += struct.pack("<H", len(name)) + name
        arr = entry.data
        out += bytes([arr.ndim])
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        if entry.params is None:
            out += bytes([0])
            out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
        else:
            p = entry.params
            dtype = _DTYPE_BY_BITS[p.bits]
            out += bytes([dtype])
            out += struct.pack("<diB", p.scale, p.zero_point, p.bits)
            out += np.ascontiguousarray(arr).astype(_QUANTIZED[dtype][1]).tobytes()
    with open(path, "wb") as f:
        f.write(out)


def load_weights(path) -> WeightSet:
    with open(path, "rb") as f:
        return parse_weights(f.read())


def parse_weights(buf: bytes) -> WeightSet:
    """The WeightSet a container's bytes hold; WeightFormatError if they are not one."""
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(buf):
            raise WeightFormatError(f"truncated file while reading {what}")
        chunk = buf[pos : pos + n]
        pos += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise WeightFormatError("bad magic; not a PIMW weight container")
    version = take(1, "version")[0]
    if version != VERSION:
        raise WeightFormatError(f"unsupported container version {version}")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    ws = WeightSet()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        raw_name = take(name_len, "tensor name")
        try:
            name = raw_name.decode()
        except UnicodeDecodeError:
            raise WeightFormatError(f"tensor name {raw_name!r} is not UTF-8") from None
        rank = take(1, f"{name}: rank")[0]
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"{name}: dims"))
        dtype = take(1, f"{name}: dtype")[0]
        n = 1
        for d in dims:
            n *= d
        if dtype == 0:
            raw = take(4 * n, f"{name}: data")
            data = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
            params = None
        elif dtype in _QUANTIZED:
            want_bits, store = _QUANTIZED[dtype]
            scale, zp, bits = struct.unpack("<diB", take(13, f"{name}: quant params"))
            if bits != want_bits:
                raise WeightFormatError(f"{name}: dtype/bits mismatch")
            try:
                params = QuantParams(scale=scale, zero_point=zp, bits=bits)
            except ValueError as e:
                raise WeightFormatError(f"{name}: bad quant params: {e}") from None
            raw = take(store.itemsize * n, f"{name}: data")
            data = np.frombuffer(raw, dtype=store).reshape(dims).astype(np.int64)
            if data.size and data.max() > params.qmax:  # a 4-bit code is stored in a whole byte
                raise WeightFormatError(f"{name}: code {data.max()} is past the {bits}-bit maximum {params.qmax}")
        else:
            raise WeightFormatError(f"{name}: unknown dtype byte {dtype}")
        ws.add(name, data, params)
    if pos != len(buf):
        raise WeightFormatError("trailing bytes after last tensor")
    return ws
