import json
import os
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capreg.decoder import REGRESSION, CaptionModel
from capreg.embedding import RESERVED, EmbeddingTable, Vocabulary
from capreg.encoder import (AnnotationSet, DataError, load_features,
                            save_features)
from capreg.harness import CheckpointError, load_checkpoint, save_checkpoint


def framed_bytes(magic: bytes, header, payload=b"", version=4) -> bytes:
    """A framed file by hand: ``magic``, ``version``, the header's length,
    the header (a dict as JSON, or raw bytes), the payload's bytes and a
    CRC32 of all that."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    body = magic + struct.pack("<II", version, len(blob)) + blob + bytes(payload)
    return body + struct.pack("<I", zlib.crc32(body))


def _f4(values) -> np.ndarray:
    return np.asarray(values, "<f4")


_SIZES = st.sampled_from([0, 1, 2, 3, 5, 2**16, 2**30, 2**31, 2**32 - 1])


@st.composite
def framing_corruptions(draw, raw: bytes) -> bytes:
    """``raw``, a framed file, with one corruption of its framing: cut
    short, a bit flipped, another magic, version or header length, other
    header bytes, or bytes after the payload. The CRC is recomputed, so that
    the corruption reaches the parser, or kept as it was."""
    body = raw[:-4]
    header_len, = struct.unpack_from("<I", body, 8)
    kind = draw(st.sampled_from(["truncate", "flip", "magic", "version", "header_length",
                                 "header_bytes", "trailing"]))
    if kind == "truncate":
        body = body[:draw(st.integers(0, len(body) - 1))]
    elif kind == "flip":
        bit = draw(st.integers(0, 8 * len(body) - 1))
        body = bytearray(body)
        body[bit // 8] ^= 1 << (bit % 8)
        body = bytes(body)
    elif kind == "magic":
        body = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != raw[:4])) + body[4:]
    elif kind == "version":
        version = draw(st.integers(0, 2**32 - 1).filter(lambda v: v != 4))
        body = body[:4] + struct.pack("<I", version) + body[8:]
    elif kind == "header_length":
        body = body[:8] + struct.pack("<I", draw(_SIZES)) + body[12:]
    elif kind == "header_bytes":
        # an int past the digits Python parses is a ValueError, not a JSON
        # one, and nesting past the recursion limit a RecursionError
        blob = draw(st.one_of(
            st.binary(max_size=24), st.just(b'{"dim": ' + b"1" * 5000 + b"}"),
            st.just(b"[" * 100_000 + b"]" * 100_000),
            st.builds(lambda v: json.dumps(v).encode(), st.one_of(
                st.none(), st.integers(), st.text(max_size=4),
                st.lists(st.integers(), max_size=3)))))
        body = body[:8] + struct.pack("<I", len(blob)) + blob + body[12 + header_len:]
    else:
        body += draw(st.binary(min_size=1, max_size=16))
    if draw(st.booleans()):  # a CRC of the corrupt bytes
        return body + struct.pack("<I", zlib.crc32(body))
    return body if kind == "truncate" else body + raw[-4:]


class TestAnnotationSet:
    def test_geometry_must_match(self):
        with pytest.raises(ValueError):
            AnnotationSet(np.zeros((5, 4)), 2, 2)

    def test_non_finite_rejected(self):
        bad = np.zeros((4, 2))
        bad[1, 0] = np.nan
        with pytest.raises(ValueError):
            AnnotationSet(bad, 2, 2)

    def test_grid_flattening(self, tmp_path):
        # a hand-written 2x2x3 feature file: h_2 is the (1,0) cell in
        # row-major order
        path = tmp_path / "h.annv"
        path.write_bytes(framed_bytes(b"ANNV", {"rows": 2, "cols": 2, "dim": 3},
                                      _f4(np.arange(12.0))))
        a = load_features(path)
        assert a.vectors.shape == (4, 3)
        np.testing.assert_array_equal(a.vectors[2], [6.0, 7.0, 8.0])


class TestFeatureFiles:
    def test_zero_file(self, tmp_path):
        a = AnnotationSet(np.zeros((16, 64)), 4, 4)
        path = tmp_path / "z.annv"
        save_features(a, path)
        loaded = load_features(path)
        assert loaded.vectors.shape == (16, 64)
        np.testing.assert_array_equal(loaded.vectors, 0.0)

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        vecs = rng.normal(0, 1, (6, 5)).astype(np.float32).astype(np.float64)
        a = AnnotationSet(vecs, 2, 3)
        path = tmp_path / "r.annv"
        save_features(a, path)
        loaded = load_features(path)
        assert (loaded.rows, loaded.cols) == (2, 3)
        np.testing.assert_array_equal(loaded.vectors, vecs)

    def test_hand_built_grid_cell(self, tmp_path):
        grid = np.arange(12.0).reshape(2, 2, 3)
        a = AnnotationSet(grid.reshape(4, 3), 2, 2)
        path = tmp_path / "g.annv"
        save_features(a, path)
        loaded = load_features(path)
        np.testing.assert_array_equal(loaded.vectors[2], grid[1, 0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.annv"
        path.write_bytes(b"XXXX" + b"\x00" * 30)
        with pytest.raises(DataError):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        a = AnnotationSet(np.zeros((4, 4)), 2, 2)
        path = tmp_path / "t.annv"
        save_features(a, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError):
            load_features(path)

    def test_checksum_mismatch(self, tmp_path):
        a = AnnotationSet(np.ones((4, 4)), 2, 2)
        path = tmp_path / "c.annv"
        save_features(a, path)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # flip the last payload byte, keep length
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="c.annv: checksum mismatch"):
            load_features(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, value):
        path = tmp_path / "n.annv"
        path.write_bytes(framed_bytes(b"ANNV", {"rows": 2, "cols": 2, "dim": 3},
                                      _f4([0.0] * 5 + [value] + [0.0] * 6)))
        with pytest.raises(DataError, match="n.annv: non-finite"):
            load_features(path)

    @pytest.mark.parametrize("rows, cols, channels", [(0, 0, 0), (0, 3, 4), (2, 0, 4),
                                                      (2, 2, 0)])
    def test_empty_grid(self, tmp_path, rows, cols, channels):
        path = tmp_path / "e.annv"
        path.write_bytes(framed_bytes(b"ANNV", {"rows": rows, "cols": cols, "dim": channels}))
        with pytest.raises(DataError, match="e.annv: empty"):
            load_features(path)

    @pytest.mark.parametrize("header", [{"rows": 2, "cols": 2}, {"rows": 2, "cols": 2, "dim": -1},
                                        {"rows": True, "cols": 2, "dim": 1},
                                        {"rows": 2.0, "cols": 2, "dim": 1}],
                             ids=["missing", "negative", "bool", "float"])
    def test_bad_grid_header(self, tmp_path, header):
        path = tmp_path / "h.annv"
        path.write_bytes(framed_bytes(b"ANNV", header, _f4(np.zeros(4))))
        with pytest.raises(DataError, match="h.annv: header rows, cols and dim must be"):
            load_features(path)


# ---------------------------------------------------------------------------
# the framing every binary input shares


def _table() -> EmbeddingTable:
    """5 x 2, so the last value saved is 9.0."""
    return EmbeddingTable(Vocabulary(list(RESERVED) + ["x", "y"]), np.arange(10.0).reshape(5, 2))


def _save_checkpoint(path):
    model = CaptionModel.init(_table(), depth=1, hidden=3, annot_dim=2, attention_k=2,
                              head_kind=REGRESSION)
    save_checkpoint(model, path)


# name -> (write a valid file, load one, the error a bad one raises)
FORMATS = {
    "features": (lambda path: save_features(AnnotationSet(np.arange(12.0).reshape(4, 3), 2, 2),
                                            path), load_features, DataError),
    "table": (lambda path: _table().save(path), EmbeddingTable.load, DataError),
    "checkpoint": (_save_checkpoint, lambda path: load_checkpoint(path, _table()),
                   CheckpointError),
}


def _values(loaded) -> list[np.ndarray]:
    if isinstance(loaded, (AnnotationSet, EmbeddingTable)):
        return [loaded.vectors]
    return [p.data for p in loaded.parameters()]


@pytest.mark.parametrize("name", FORMATS)
def test_load_from_a_pipe(tmp_path, name):
    # a pipe's size is unknown until it is read, as with `<(cat e.bin)`
    save, load, _ = FORMATS[name]
    path, fifo = tmp_path / "saved", tmp_path / "fifo"
    save(path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        loaded = load(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    for a, b in zip(_values(loaded), _values(load(path)), strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", FORMATS)
def test_saved_file_is_the_documented_layout(tmp_path, name):
    # magic, version 4, the header's length, the header, the payload and a CRC32
    FORMATS[name][0](tmp_path / "saved")
    raw = (tmp_path / "saved").read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + header_len])
    assert raw == framed_bytes(raw[:4], header, raw[12 + header_len:-4])
    assert raw[:4] == {"features": b"ANNV", "table": b"GEMB", "checkpoint": b"CKPT"}[name]


@pytest.mark.parametrize("name", FORMATS)
def test_flipped_payload_bit_fails_the_checksum(tmp_path, name):
    # in a table saved without a checksum, this flip loaded 9.0 as 9.00390625
    save, load, error = FORMATS[name]
    path = tmp_path / "saved"
    save(path)
    raw = bytearray(path.read_bytes())
    raw[-4 - 3] ^= 1 << 4  # bit 4 of the third-from-last payload byte
    path.write_bytes(bytes(raw))
    with pytest.raises(error, match="saved: checksum mismatch"):
        load(path)


def _old_layout(name: str) -> bytes:
    """A file in the layout ``name`` had before the shared framing, by hand."""
    if name == "table":  # no checksum: |V|, d and the NUL-joined tokens' length
        tokens = b"\x00".join(t.encode() for t in [*RESERVED, "x", "y"])
        return (b"GEMB" + struct.pack("<IIII", 1, 5, 2, len(tokens)) + tokens
                + _f4(np.arange(10.0)).tobytes())
    if name == "features":  # rows, cols and dim in the fixed header
        body = b"ANNV" + struct.pack("<IIII", 1, 1, 1, 1) + _f4([0.5]).tobytes()
    else:  # version 3, whose framing this one kept
        body = b"CKPT" + struct.pack("<II", 3, 2) + b"{}" + bytes(8)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("name", FORMATS)
def test_old_layout_refused(tmp_path, name):
    _, load, error = FORMATS[name]
    path = tmp_path / "old"
    path.write_bytes(_old_layout(name))
    version = 3 if name == "checkpoint" else 1
    with pytest.raises(error, match=f"old: unsupported version {version}$"):
        load(path)


@st.composite
def _feature_files(draw):
    """A valid feature file, then one corruption of its framing or header."""
    rows, cols, dim = (draw(st.integers(1, 3)) for _ in range(3))
    values = draw(st.lists(st.floats(-1e3, 1e3, width=32), min_size=rows * cols * dim,
                           max_size=rows * cols * dim))
    header = {"rows": rows, "cols": cols, "dim": dim}
    kind = draw(st.sampled_from(["none", "framing", "framing", "dims", "missing",
                                 "non-finite"]))
    if kind == "framing":
        return draw(framing_corruptions(framed_bytes(b"ANNV", header, _f4(values))))
    if kind == "dims":
        header[draw(st.sampled_from(sorted(header)))] = draw(st.one_of(
            _SIZES, st.sampled_from([-1, 2**64, True, 1.5, "2", None, [1]])))
    elif kind == "missing":
        del header[draw(st.sampled_from(sorted(header)))]
    elif kind == "non-finite":
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return framed_bytes(b"ANNV", header, _f4(values))


@given(raw=_feature_files())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_load_features_fuzz(tmp_path_factory, raw):
    """A corrupt feature file only ever raises DataError."""
    path = tmp_path_factory.getbasetemp() / "fuzz.annv"
    path.write_bytes(raw)
    try:
        annotations = load_features(path)
    except DataError:
        return
    assert annotations.vectors.shape == (annotations.rows * annotations.cols,
                                         annotations.dim)
    assert annotations.vectors.size > 0
    assert np.all(np.isfinite(annotations.vectors))
