import struct
import zlib

import numpy as np
import pytest

from capreg.encoder import (AnnotationSet, FeatureFileError, load_features,
                            save_features)


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
        with pytest.raises(FeatureFileError):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        a = AnnotationSet(np.zeros((4, 4)), 2, 2)
        path = tmp_path / "t.annv"
        save_features(a, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FeatureFileError):
            load_features(path)

    def test_checksum_mismatch(self, tmp_path):
        a = AnnotationSet(np.ones((4, 4)), 2, 2)
        path = tmp_path / "c.annv"
        save_features(a, path)
        raw = bytearray(path.read_bytes())
        raw[25] ^= 0xFF  # flip a payload byte, keep length
        path.write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError):
            load_features(path)
