"""Binary-to-grayscale visualization, bilinear resize, PGM I/O, synthetic corpus.

Each byte of an executable becomes one pixel; image width follows the usual
size table for binary visualization, with the final partial row zero-padded.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (upper bound in KB exclusive, width); payloads above 1000 KB use width 1024.
WIDTH_TABLE = [
    (10, 32),
    (30, 64),
    (60, 128),
    (100, 256),
    (200, 384),
    (500, 512),
    (1000, 768),
]

FAMILIES = ("backdoor", "rootkit", "trojan", "virus", "worm")

# Distinct high-contrast motifs; benign streams are generated from byte
# alphabets that cannot emit 24 consecutive motif bytes.
FAMILY_MOTIFS = {
    "backdoor": bytes([0xFF, 0x00] * 12),
    "rootkit": bytes([0xF7, 0xF7, 0x08, 0x08] * 6),
    "trojan": bytes([0xFE, 0x01, 0xFE, 0x01, 0xFF, 0xFF] * 4),
    "virus": bytes([0xF0, 0x0F] * 12),
    "worm": bytes([0xFB, 0xFB, 0xFB, 0x04] * 6),
}


@dataclass(frozen=True)
class GrayImage:
    width: int
    height: int
    pixels: np.ndarray  # row-major uint8, shape (height, width)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.pixels.shape != (self.height, self.width):
            raise ValueError("pixel buffer does not match width x height")
        if self.pixels.dtype != np.uint8:
            raise ValueError("pixels must be uint8")


@dataclass(frozen=True)
class CorpusSample:
    payload: bytes
    label: str  # "benign" | "malware"
    family: str  # one of FAMILIES, or "none" for benign

    def __post_init__(self):
        if self.label not in ("benign", "malware"):
            raise ValueError(f"bad label {self.label!r}")
        if self.label == "benign" and self.family != "none":
            raise ValueError("benign samples must have family 'none'")
        if self.label == "malware" and self.family not in FAMILIES:
            raise ValueError(f"unknown malware family {self.family!r}")


def width_for_size(n_bytes: int) -> int:
    kb = n_bytes / 1024
    for bound, width in WIDTH_TABLE:
        if kb < bound:
            return width
    return 1024


def bytes_to_image(payload: bytes) -> GrayImage:
    """Byte k becomes pixel k, row-major; last partial row zero-padded."""
    if not payload:
        raise ValueError("payload must be nonempty")
    width = width_for_size(len(payload))
    height = -(-len(payload) // width)
    buf = np.zeros(width * height, dtype=np.uint8)
    buf[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return GrayImage(width=width, height=height, pixels=buf.reshape(height, width))


def resize_to(img: GrayImage, side: int = 32) -> GrayImage:
    """Corner-aligned bilinear resize; output rounded half-even into [0, 255]."""
    if side < 1:
        raise ValueError("side must be positive")

    def grid(n_src, n_dst):
        if n_dst == 1 or n_src == 1:
            return np.zeros(n_dst)
        return np.arange(n_dst) * (n_src - 1) / (n_dst - 1)

    ys, xs = grid(img.height, side), grid(img.width, side)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, img.height - 1)
    x1 = np.minimum(x0 + 1, img.width - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]

    def corner(rows, cols):  # the (side, side) source pixels at rows x cols, as float64
        return img.pixels[rows[:, None], cols].astype(np.float64)

    out = (
        corner(y0, x0) * (1 - fy) * (1 - fx)
        + corner(y0, x1) * (1 - fy) * fx
        + corner(y1, x0) * fy * (1 - fx)
        + corner(y1, x1) * fy * fx
    )
    pixels = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return GrayImage(width=side, height=side, pixels=pixels)


def write_pgm(img: GrayImage, path) -> None:
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (img.width, img.height))
        f.write(img.pixels.tobytes())


def read_pgm(path) -> GrayImage:
    data = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            pos = data.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {fields[0]!r}")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    raw = data[pos : pos + width * height]
    if len(raw) != width * height:
        raise ValueError("truncated PGM pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    return GrayImage(width=width, height=height, pixels=pixels.copy())


def _benign_stream(rng: np.random.Generator, size: int) -> bytearray:
    """Structured byte stream: text-like runs with sparse zero/low-value blocks."""
    out = bytearray()
    while len(out) < size:
        run = int(rng.integers(64, 512))
        kind = rng.random()
        if kind < 0.7:
            out += rng.integers(0x20, 0x7F, size=run, dtype=np.uint8).tobytes()
        elif kind < 0.9:
            out += bytes(run)  # zero-filled section padding
        else:
            out += rng.integers(0x00, 0x80, size=run, dtype=np.uint8).tobytes()
    return out[:size]


def generate_corpus(n_benign: int, n_malware: int, seed: int) -> list[CorpusSample]:
    """Deterministic synthetic corpus; malware carries a family motif benign cannot."""
    if n_benign < 0 or n_malware < 0:
        raise ValueError("sample counts must be nonnegative")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_benign):
        size = int(rng.integers(2048, 65536))
        samples.append(
            CorpusSample(payload=bytes(_benign_stream(rng, size)), label="benign", family="none")
        )
    for k in range(n_malware):
        family = FAMILIES[k % len(FAMILIES)]
        motif = FAMILY_MOTIFS[family]
        size = int(rng.integers(2048, 65536))
        buf = _benign_stream(rng, size)
        # Inject the motif at pseudo-random offsets, roughly one per 32 bytes,
        # so its texture clearly survives downsampling to 32x32.
        n_inject = max(1, size // 32)
        offsets = rng.integers(0, max(1, size - len(motif)), size=n_inject)
        for off in sorted(int(o) for o in offsets):
            buf[off : off + len(motif)] = motif
        samples.append(CorpusSample(payload=bytes(buf), label="malware", family=family))
    # Deterministic shuffle so any prefix slice is label-balanced.
    order = rng.permutation(len(samples))
    return [samples[i] for i in order]


def image_to_input(img: GrayImage, side: int) -> np.ndarray:
    """Scale into [0, 1] model input of shape (1, side, side), resizing an image not side x side already."""
    if (img.height, img.width) != (side, side):
        img = resize_to(img, side)
    return (img.pixels.astype(np.float64) / 255.0)[None, :, :]


def sample_to_input(sample_bytes: bytes, side: int = 32) -> np.ndarray:
    """Convert + resize + scale into [0, 1] model input of shape (1, side, side)."""
    return image_to_input(bytes_to_image(sample_bytes), side)


def write_manifest(samples, paths, seed: int, out_path) -> None:
    """Comma-separated manifest: path, label, family, byte length, seed."""
    lines = ["path,label,family,length,seed"]
    for sample, path in zip(samples, paths):
        lines.append(f"{path},{sample.label},{sample.family},{len(sample.payload)},{seed}")
    Path(out_path).write_text("\n".join(lines) + "\n")
