import numpy as np
import pytest

from lutpim import binviz
from lutpim.binviz import (
    FAMILIES,
    FAMILY_MOTIFS,
    GrayImage,
    bytes_to_image,
    generate_corpus,
    image_to_input,
    read_pgm,
    resize_to,
    sample_to_input,
    width_for_size,
    write_manifest,
    write_pgm,
)
from tests.helpers import bilinear_point


def test_width_table_boundaries():
    kb = 1024
    assert width_for_size(5 * kb) == 32
    assert width_for_size(10 * kb) == 64  # 10 KB is already the next bucket
    assert width_for_size(10 * kb - 1) == 32
    assert width_for_size(29 * kb) == 64
    assert width_for_size(59 * kb) == 128
    assert width_for_size(99 * kb) == 256
    assert width_for_size(150 * kb) == 384
    assert width_for_size(450 * kb) == 512
    assert width_for_size(900 * kb) == 768
    assert width_for_size(2000 * kb) == 1024


def test_bytes_to_image_small_payload():
    img = bytes_to_image(bytes([10, 20, 30, 40, 50]))
    assert img.width == 32 and img.height == 1
    assert list(img.pixels[0, :5]) == [10, 20, 30, 40, 50]
    assert not img.pixels[0, 5:].any()  # zero padding


def test_bytes_to_image_exact_square():
    img = bytes_to_image(bytes([0x7F]) * 1024)
    assert img.width == 32 and img.height == 32
    assert (img.pixels == 127).all()


def test_bytes_to_image_shapes():
    img = bytes_to_image(b"\x01" * 20_000)
    assert img.width == 64
    assert img.height == 313  # ceil(20000 / 64)
    with pytest.raises(ValueError):
        bytes_to_image(b"")


def test_row_major_order():
    payload = bytes(range(256)) * 40  # 10240 bytes -> width 64
    img = bytes_to_image(payload)
    assert img.pixels[0, 0] == 0
    assert img.pixels[0, 63] == 63
    assert img.pixels[1, 0] == 64


def test_losslessness_before_resize():
    rng = np.random.default_rng(9)
    payload = rng.integers(0, 256, size=5000, dtype=np.uint8).tobytes()
    img = bytes_to_image(payload)
    assert img.pixels.tobytes()[:len(payload)] == payload


def test_resize_identity_and_constant():
    pix = np.arange(32 * 32, dtype=np.uint8).reshape(32, 32)
    img = GrayImage(width=32, height=32, pixels=pix)
    assert (resize_to(img, 32).pixels == pix).all()
    const = GrayImage(width=64, height=64, pixels=np.full((64, 64), 200, np.uint8))
    assert (resize_to(const, 32).pixels == 200).all()


def test_resize_matches_scalar_bilinear_oracle():
    # every output pixel, on a 1 x w row, an h x 1 column, a side-1 output and a corpus-sized 128-wide image
    rng = np.random.default_rng(21)
    for h, w, side in ((48, 80, 32), (1, 80, 32), (48, 1, 32), (48, 80, 1), (1, 1, 5), (470, 128, 32)):
        pix = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        out = resize_to(GrayImage(width=w, height=h, pixels=pix), side)
        src = pix.astype(np.float64)

        def coord(i, n_src):
            return 0.0 if side == 1 or n_src == 1 else i * (n_src - 1) / (side - 1)

        expect = np.array([
            [np.clip(np.rint(bilinear_point(src, coord(i, h), coord(j, w))), 0, 255) for j in range(side)]
            for i in range(side)
        ])
        assert out.pixels.shape == (side, side)
        assert np.array_equal(out.pixels, expect), (h, w, side)


def test_resize_corner_alignment():
    rng = np.random.default_rng(4)
    pix = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
    out = resize_to(GrayImage(width=40, height=40, pixels=pix), 32)
    assert out.pixels[0, 0] == pix[0, 0]
    assert out.pixels[0, -1] == pix[0, -1]
    assert out.pixels[-1, 0] == pix[-1, 0]
    assert out.pixels[-1, -1] == pix[-1, -1]


def test_checkerboard_interior_averages():
    pix = np.indices((33, 33)).sum(axis=0) % 2 * 255
    out = resize_to(GrayImage(width=33, height=33, pixels=pix.astype(np.uint8)), 32)
    interior = out.pixels[1:-1, 1:-1]
    assert interior.min() > 0 and interior.max() < 255


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pix = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
    img = GrayImage(width=23, height=17, pixels=pix)
    p = tmp_path / "x.pgm"
    write_pgm(img, p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n23 17\n255\n")
    assert len(raw) == len(b"P5\n23 17\n255\n") + 17 * 23
    back = read_pgm(p)
    assert back.width == 23 and back.height == 17
    assert (back.pixels == pix).all()


def test_read_pgm_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n1 2 3 4")
    with pytest.raises(ValueError):
        read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\nab")
    with pytest.raises(ValueError):
        read_pgm(trunc)


def test_corpus_determinism():
    a = generate_corpus(10, 10, seed=42)
    b = generate_corpus(10, 10, seed=42)
    assert [(s.payload, s.label, s.family) for s in a] == [
        (s.payload, s.label, s.family) for s in b
    ]
    c = generate_corpus(10, 10, seed=43)
    assert [s.payload for s in a] != [s.payload for s in c]


def test_corpus_composition_and_sizes():
    samples = generate_corpus(15, 25, seed=0)
    assert len(samples) == 40
    labels = [s.label for s in samples]
    assert labels.count("benign") == 15 and labels.count("malware") == 25
    for s in samples:
        assert 2048 <= len(s.payload) < 65536


def test_motif_presence_oracle():
    # every malware sample contains its own family motif; no benign sample
    # contains any motif (plain substring search, independent of the generator)
    samples = generate_corpus(20, 20, seed=13)
    for s in samples:
        if s.label == "malware":
            assert FAMILY_MOTIFS[s.family] in s.payload
        else:
            for motif in FAMILY_MOTIFS.values():
                assert motif not in s.payload


def test_benign_alphabet_excludes_high_bytes():
    for s in generate_corpus(10, 0, seed=3):
        assert max(s.payload) < 0x80


def test_family_rotation():
    samples = generate_corpus(0, 10, seed=1)
    fams = sorted({s.family for s in samples})
    assert fams == sorted(FAMILIES)


def test_sample_to_input():
    samples = generate_corpus(1, 0, seed=6)
    x = sample_to_input(samples[0].payload)
    assert x.shape == (1, 32, 32)
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_image_to_input_resizes_only_an_image_of_another_side(monkeypatch):
    rng = np.random.default_rng(4)
    payload = rng.integers(0, 256, size=5000, dtype=np.uint8).tobytes()
    square = resize_to(bytes_to_image(payload), 32)
    resized = []

    def counting_resize(img, side):
        resized.append((img.height, img.width, side))
        return resize_to(img, side)

    monkeypatch.setattr(binviz, "resize_to", counting_resize)
    x = image_to_input(square, 32)
    assert resized == [] and x.shape == (1, 32, 32) and np.array_equal(x[0] * 255.0, square.pixels)
    assert np.array_equal(sample_to_input(payload), x)
    assert resized == [(157, 32, 32)]


def test_manifest_format(tmp_path):
    samples = generate_corpus(2, 1, seed=5)
    paths = [f"sample_{i:05d}.bin" for i in range(3)]
    out = tmp_path / "manifest.csv"
    write_manifest(samples, paths, seed=5, out_path=out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,label,family,length,seed"
    assert len(lines) == 4
    for sample, path, line in zip(samples, paths, lines[1:]):
        cols = line.split(",")
        assert cols == [path, sample.label, sample.family, str(len(sample.payload)), "5"]
