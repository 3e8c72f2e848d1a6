"""Scene generation determinism and hotspot property; PGM and annotation round-trips."""

import numpy as np
import pytest

from fusedet import synthdata as sd
from fusedet.losses import object_mask


class TestGenerateScene:
    def test_same_seed_is_bit_identical(self):
        a = sd.generate_scene(sd.SceneSpec(seed=123))
        b = sd.generate_scene(sd.SceneSpec(seed=123))
        assert np.array_equal(a.visible, b.visible)
        assert np.array_equal(a.infrared, b.infrared)
        assert np.array_equal(a.boxes, b.boxes)

    def test_different_seeds_differ(self):
        a = sd.generate_scene(sd.SceneSpec(seed=1))
        b = sd.generate_scene(sd.SceneSpec(seed=2))
        assert not np.array_equal(a.visible, b.visible)

    def test_zero_objects(self):
        pair = sd.generate_scene(sd.SceneSpec(seed=9, min_objects=0, max_objects=0))
        assert pair.boxes.shape == (0, 4)

    def test_values_in_unit_range(self):
        pair = sd.generate_scene(sd.SceneSpec(seed=4))
        for img in (pair.visible, pair.infrared):
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_boxes_inside_bounds_and_positive(self):
        for seed in range(30):
            pair = sd.generate_scene(sd.SceneSpec(seed=seed))
            if pair.boxes.size == 0:
                continue
            cx, cy, w, h = pair.boxes.T
            assert np.all(w > 0) and np.all(h > 0)
            assert np.all(cx - w / 2 >= -1e-9) and np.all(cx + w / 2 <= 1 + 1e-9)
            assert np.all(cy - h / 2 >= -1e-9) and np.all(cy + h / 2 <= 1 + 1e-9)

    def test_hotspot_contrast_over_100_seeds(self):
        """Infrared mean inside boxes exceeds the mean outside, by construction."""
        for seed in range(100):
            pair = sd.generate_scene(sd.SceneSpec(seed=seed))
            if pair.boxes.size == 0:
                continue
            h, w = pair.infrared.shape
            mask = object_mask(pair.boxes, h, w).astype(bool)
            assert pair.infrared[mask].mean() > pair.infrared[~mask].mean()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sd.SceneSpec(seed=0, width=16)
        with pytest.raises(ValueError):
            sd.SceneSpec(seed=0, min_objects=3, max_objects=1)


class TestPgm:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(17, 23))
        path = tmp_path / "img.pgm"
        sd.write_image(path, img)
        back = sd.read_image(path)
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_known_bytes_fixture(self, tmp_path):
        # 2x2, maxval 255, pixels 0, 128, 255, 64 in row-major order
        path = tmp_path / "fix.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = sd.read_image(path)
        np.testing.assert_allclose(img, np.array([[0, 128], [255, 64]]) / 255.0)

    def test_write_then_read_exact_bytes(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "w.pgm"
        sd.write_image(path, img)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([10, 20]))
        img = sd.read_image(path)
        np.testing.assert_allclose(img * 255, [[10, 20]])

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(sd.PgmParseError, match="byte 0"):
            sd.read_image(path)

    def test_truncated_data_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(sd.PgmParseError, match="truncated"):
            sd.read_image(path)
        try:
            sd.read_image(path)
        except sd.PgmParseError as e:
            assert e.offset == 11  # pixel data starts right after the 11-byte header

    def test_rejects_out_of_range_image(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sd.write_image(tmp_path / "x.pgm", np.full((2, 2), 1.5))

    def test_rejects_non_finite_pixels_with_their_count(self, tmp_path):
        """NaN passes a [0, 1] range check (every comparison is False), so it is counted first."""
        img = np.full((3, 4), 0.5)
        img[0, 1], img[2, 2], img[1, 3] = np.nan, np.inf, -np.inf
        path = tmp_path / "x.pgm"
        with pytest.raises(ValueError, match=r"3 pixel\(s\) are not finite"):
            sd.write_image(path, img)
        assert not path.exists()


class TestAnnotations:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        boxes = rng.uniform(0.1, 0.9, size=(3, 4))
        path = tmp_path / "b.json"
        sd.write_annotations(path, "scene-0001", boxes)
        name, back, scores = sd.read_annotations(path)
        assert name == "scene-0001"
        np.testing.assert_array_equal(back, boxes)
        assert scores is None

    def test_empty_boxes(self, tmp_path):
        path = tmp_path / "e.json"
        sd.write_annotations(path, "s", np.zeros((0, 4)))
        assert '"boxes": []' in path.read_text()
        _, back, _ = sd.read_annotations(path)
        assert back.shape == (0, 4)

    def test_scores_round_trip(self, tmp_path):
        boxes = np.array([[0.5, 0.5, 0.2, 0.2]])
        path = tmp_path / "s.json"
        sd.write_annotations(path, "s", boxes, scores=np.array([0.75]))
        _, back, scores = sd.read_annotations(path)
        np.testing.assert_array_equal(scores, [0.75])


    @pytest.mark.parametrize("text, fault", [
        ("", "not JSON"),
        ("{\"scene\": ", "not JSON"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"boxes": []}', "no 'scene' field"),
        ('{"scene": "s"}', "no 'boxes' field"),
        ('{"scene": "s", "boxes": {"cx": 0.5}}', "'boxes' must be a list, got dict"),
        ('{"scene": "s", "boxes": [[0.5, 0.5, 0.2, 0.2]]}', "box 0 is not an object"),
        ('{"scene": "s", "boxes": [{"cx": 0.5, "cy": 0.5, "w": 0.2}]}', "box 0 has no 'h'"),
        ('{"scene": "s", "boxes": [{"cx": 0.5, "cy": 0.5, "w": 0.2, "h": 0.2}, {"cy": 0.5}]}', "box 1 has no 'cx'"),
        ('{"scene": "s", "boxes": [{"cx": "hi", "cy": 0.5, "w": 0.2, "h": 0.2}]}', "box 0: cx is not a number: 'hi'"),
        ('{"scene": "s", "boxes": [{"cx": 0.5, "cy": null, "w": 0.2, "h": 0.2}]}', "box 0: cy is not a number: None"),
        ('{"scene": "s", "boxes": [{"cx": 0.5, "cy": 0.5, "w": true, "h": 0.2}]}', "box 0: w is not a number: True"),
        ('{"scene": "s", "boxes": [{"cx": 0.5, "cy": 0.5, "w": 0.2, "h": 0.2, "score": "0.9"}]}',
         "box 0: score is not a number: '0.9'"),
    ])
    def test_malformed_file_names_itself_and_its_fault(self, tmp_path, text, fault):
        path = tmp_path / "bad.boxes.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            sd.read_annotations(path)
        assert str(err.value).startswith(f"{path}: ")
        assert fault in str(err.value)

    def test_integer_coordinates_and_a_nan_score_are_numbers(self, tmp_path):
        """Range and finiteness are the scorer's to judge (map_eval names the scene)."""
        path = tmp_path / "b.json"
        path.write_text('{"scene": "s", "boxes": [{"cx": 1, "cy": 0, "w": 1, "h": 1, "score": NaN}]}')
        name, boxes, scores = sd.read_annotations(path)
        assert name == "s"
        np.testing.assert_array_equal(boxes, [[1.0, 0.0, 1.0, 1.0]])
        assert np.isnan(scores[0])

class TestDatasetLayout:
    def test_write_and_load_scene(self, tmp_path):
        pair = sd.generate_scene(sd.SceneSpec(seed=5))
        sd.write_scene(tmp_path, "train", "scene-0000", pair)
        back = sd.load_scene(tmp_path, "train", "scene-0000")
        assert np.abs(back.visible - pair.visible).max() <= 1.0 / 255.0
        np.testing.assert_array_equal(back.boxes, pair.boxes)

    def test_generate_dataset_is_deterministic(self, tmp_path):
        ids1 = sd.generate_dataset(tmp_path / "a", "train", 3, 11)
        ids2 = sd.generate_dataset(tmp_path / "b", "train", 3, 11)
        assert ids1 == ids2
        for sid in ids1:
            for suffix in (".vis.pgm", ".ir.pgm", ".boxes.json"):
                fa = (tmp_path / "a" / "train" / (sid + suffix)).read_bytes()
                fb = (tmp_path / "b" / "train" / (sid + suffix)).read_bytes()
                assert fa == fb

    def test_list_scene_ids(self, tmp_path):
        sd.generate_dataset(tmp_path, "val", 4, 3)
        assert sd.list_scene_ids(tmp_path, "val") == [f"scene-{i:04d}" for i in range(4)]

    def test_missing_split_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sd.list_scene_ids(tmp_path, "nope")
