import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capreg.encoder import (AnnotationSet, DataError, load_features,
                            save_features)


def annv_bytes(rows, cols, channels, values=None):
    """A feature file by hand: header, ``values`` as f32 (zeros by default)
    and a CRC that matches whatever precedes it."""
    if values is None:
        values = np.zeros(rows * cols * channels)
    blob = b"ANNV" + struct.pack("<IIII", 1, rows, cols, channels)
    blob += np.asarray(values, dtype="<f4").tobytes()
    return blob + struct.pack("<I", zlib.crc32(blob))


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
        blob = b"ANNV" + struct.pack("<IIII", 1, 2, 2, 3)
        blob += np.arange(12.0).astype("<f4").tobytes()
        path = tmp_path / "h.annv"
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
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
        raw[25] ^= 0xFF  # flip a payload byte, keep length
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_features(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, value):
        path = tmp_path / "n.annv"
        path.write_bytes(annv_bytes(2, 2, 3, [0.0] * 5 + [value] + [0.0] * 6))
        with pytest.raises(DataError, match="n.annv: non-finite"):
            load_features(path)

    @pytest.mark.parametrize("rows, cols, channels", [(0, 0, 0), (0, 3, 4), (2, 0, 4),
                                                      (2, 2, 0)])
    def test_empty_grid(self, tmp_path, rows, cols, channels):
        path = tmp_path / "e.annv"
        path.write_bytes(annv_bytes(rows, cols, channels))
        with pytest.raises(DataError, match="e.annv: empty"):
            load_features(path)


def _recrc(blob: bytes) -> bytes:
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


@st.composite
def _feature_files(draw):
    """A valid feature file, then one corruption. Every corruption but
    truncation recomputes the CRC, so it reaches the parser."""
    rows, cols, channels = (draw(st.integers(1, 3)) for _ in range(3))
    values = draw(st.lists(st.floats(-1e3, 1e3, width=32), min_size=rows * cols * channels,
                           max_size=rows * cols * channels))
    raw = annv_bytes(rows, cols, channels, values)
    kind = draw(st.sampled_from(["none", "truncate", "flip", "magic", "version",
                                 "dims", "non-finite"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        bit = draw(st.integers(0, 8 * (len(raw) - 4) - 1))
        blob = bytearray(raw)
        blob[bit // 8] ^= 1 << (bit % 8)
        return _recrc(bytes(blob))
    if kind == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"ANNV"))
        return _recrc(magic + raw[4:])
    if kind == "version":
        version = draw(st.integers(0, 2**32 - 1).filter(lambda v: v != 1))
        return _recrc(raw[:4] + struct.pack("<I", version) + raw[8:])
    if kind == "dims":
        dim = st.sampled_from([0, 1, 2, 3, 2**16, 2**31, 2**32 - 1])
        dims = struct.pack("<III", draw(dim), draw(dim), draw(dim))
        return _recrc(raw[:8] + dims + raw[20:])
    if kind == "non-finite":
        at = draw(st.integers(0, rows * cols * channels - 1))
        bad = np.array([draw(st.sampled_from([np.nan, np.inf, -np.inf]))], "<f4")
        return _recrc(raw[:20 + 4 * at] + bad.tobytes() + raw[24 + 4 * at:])
    return raw


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
