import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amf.data import (
    MixtureSpec,
    SOURCE_PERIOD_BASE,
    batches,
    dataset_load,
    dataset_save,
    gen_mixture,
    gen_source_task,
    load_idx,
)
from amf.errors import ConfigError, FormatError, UsageError

SPEC = MixtureSpec(k_a=3, k_b=2, n_train=4, n_val=2, n_test=2, image_hw=8,
                   noise_a=0.3, noise_b=0.2, seed=11)


class TestMixture:
    def test_split_sizes_and_label_layout(self):
        ds = gen_mixture(SPEC)
        assert len(ds.train) == SPEC.num_classes * SPEC.n_train
        assert len(ds.val) == SPEC.num_classes * SPEC.n_val
        assert len(ds.test) == SPEC.num_classes * SPEC.n_test
        for ex in ds.train:
            assert 0 <= ex.label < SPEC.num_classes
            # mode 0 carries labels [0, k_a), mode 1 the rest
            assert ex.mode == (0 if ex.label < SPEC.k_a else 1)
            assert ex.image.shape == (1, 8, 8)
            assert ex.image.dtype == np.float32
            assert ex.image.min() >= 0.0 and ex.image.max() <= 1.0

    def test_seed_determinism(self):
        a, b = gen_mixture(SPEC), gen_mixture(SPEC)
        for ea, eb in zip(a.train + a.val + a.test, b.train + b.val + b.test):
            np.testing.assert_array_equal(ea.image, eb.image)

    def test_different_seeds_differ(self):
        a = gen_mixture(SPEC)
        b = gen_mixture(replace(SPEC, seed=12))
        assert any(not np.array_equal(ea.image, eb.image)
                   for ea, eb in zip(a.train, b.train))

    def test_noiseless_classes_are_distinct(self):
        clean = MixtureSpec(k_a=4, k_b=4, n_train=1, n_val=1, n_test=1,
                            image_hw=16, noise_a=0.0, noise_b=0.0, seed=0)
        ds = gen_mixture(clean)
        images = {ex.label: ex.image.tobytes() for ex in ds.train}
        assert len(set(images.values())) == clean.num_classes

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            MixtureSpec(k_a=0, k_b=0)
        with pytest.raises(ConfigError):
            MixtureSpec(image_hw=10)
        with pytest.raises(ConfigError):
            MixtureSpec(noise_a=-0.1)
        with pytest.raises(ConfigError):
            MixtureSpec(channels=0)


class TestSourceTask:
    def test_periods_disjoint_from_target(self):
        src = gen_source_task(SPEC, seed=99)
        assert src.spec.k_a == 0
        # target gratings use periods 2..2+k_b-1, source starts at 10
        assert SOURCE_PERIOD_BASE > 2 + SPEC.k_b

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            gen_source_task(MixtureSpec(k_a=1, k_b=9, image_hw=8), seed=0)

    def test_all_examples_mode_1(self):
        src = gen_source_task(SPEC, seed=99)
        assert all(ex.mode == 1 for ex in src.train)


class TestBatches:
    def test_every_example_appears_once(self):
        ds = gen_mixture(SPEC)
        seen = []
        for images, labels, modes in batches(ds.train, 5, epoch_seed=3):
            assert images.shape[1:] == (1, 8, 8)
            assert len(labels) == len(modes) == len(images)
            seen.extend(labels.tolist())
        assert sorted(seen) == sorted(ex.label for ex in ds.train)

    def test_epoch_seed_controls_order(self):
        ds = gen_mixture(SPEC)
        first = [l.tolist() for _, l, _ in batches(ds.train, 5, epoch_seed=3)]
        again = [l.tolist() for _, l, _ in batches(ds.train, 5, epoch_seed=3)]
        other = [l.tolist() for _, l, _ in batches(ds.train, 5, epoch_seed=4)]
        assert first == again
        assert first != other

    def test_no_shuffle_preserves_order(self):
        ds = gen_mixture(SPEC)
        labels = np.concatenate([l for _, l, _ in batches(ds.train, 7, 0, shuffle=False)])
        np.testing.assert_array_equal(labels, [ex.label for ex in ds.train])

    def test_rejects_bad_usage(self):
        ds = gen_mixture(SPEC)
        with pytest.raises(UsageError):
            list(batches(ds.train, 0, 0))
        with pytest.raises(UsageError):
            list(batches([], 4, 0))


class TestDatasetFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        for ds in (gen_mixture(SPEC), gen_source_task(SPEC, seed=5)):
            path = str(tmp_path / "t.ds")
            dataset_save(ds, path)
            back = dataset_load(path)
            assert back.spec.num_classes == ds.spec.num_classes
            for split in ("train", "val", "test"):
                assert len(back.split(split)) == len(ds.split(split))
                for ea, eb in zip(ds.split(split), back.split(split)):
                    assert (ea.label, ea.mode) == (eb.label, eb.mode)
                    np.testing.assert_array_equal(ea.image, eb.image)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "t.ds")
        dataset_save(gen_mixture(SPEC), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(b"BADMAGIC" + blob[8:])
        with pytest.raises(FormatError):
            dataset_load(path)

    def test_truncation_and_trailing_rejected(self, tmp_path):
        path = str(tmp_path / "t.ds")
        dataset_save(gen_mixture(SPEC), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        with pytest.raises(FormatError):
            dataset_load(path)
        open(path, "wb").write(blob + b"\x01")
        with pytest.raises(FormatError):
            dataset_load(path)


    # first record: after magic (8), spec block (48) and split counts (12)
    @pytest.mark.parametrize("offset, value", [(0, SPEC.num_classes), (2, 2)], ids=["label", "mode"])
    def test_out_of_range_record_rejected(self, tmp_path, offset, value):
        path = str(tmp_path / "t.ds")
        dataset_save(gen_mixture(SPEC), path)
        blob = bytearray(open(path, "rb").read())
        struct.pack_into("<H" if offset == 0 else "<B", blob, 68 + offset, value)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError):
            dataset_load(path)

    # the file stays self-consistent; only the spec block's counts disagree
    @pytest.mark.parametrize("split, keep", [("train", -1), ("val", -1), ("test", -1), ("test", 0)],
                             ids=["train", "val", "test", "empty_test"])
    def test_split_count_mismatch_rejected(self, tmp_path, split, keep):
        ds = gen_mixture(SPEC)
        setattr(ds, split, ds.split(split)[:keep])
        path = str(tmp_path / "t.ds")
        dataset_save(ds, path)
        with pytest.raises(FormatError):
            dataset_load(path)

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
           st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(edits=[(43, 0xBF)], cut=10**6)  # sign byte of noise_a: a negative noise std
    # test count 2 -> 0 and its two 67-byte records cut off: an empty test split
    @example(edits=[(64, 0)], cut=470 - 2 * 67)
    def test_mutated_file_raises_only_format_error(self, tmp_path, edits, cut):
        path = str(tmp_path / "t.ds")
        dataset_save(gen_mixture(replace(SPEC, k_a=1, k_b=1, n_train=1, n_val=1, n_test=1, image_hw=4)), path)
        blob = bytearray(open(path, "rb").read())
        for pos, value in edits:
            blob[pos % len(blob)] = value
        open(path, "wb").write(bytes(blob[:cut]))
        try:
            ds = dataset_load(path)
        except FormatError:
            return
        s = ds.spec
        assert [len(ds.train), len(ds.val), len(ds.test)] == [s.num_classes * k for k in (s.n_train, s.n_val, s.n_test)]


def _write_idx(tmp_path, images, labels):
    n, rows, cols = images.shape
    ipath, lpath = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    with open(ipath, "wb") as f:
        f.write(struct.pack(">4I", 0x803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lpath, "wb") as f:
        f.write(struct.pack(">2I", 0x801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return ipath, lpath


class TestIdx:
    def test_roundtrip_and_scaling(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 4, 4))
        labels = np.array([0, 1, 2, 3, 4])
        ipath, lpath = _write_idx(tmp_path, images, labels)
        exs = load_idx(ipath, lpath)
        assert len(exs) == 5
        np.testing.assert_allclose(exs[2].image[0], images[2] / 255.0, atol=1e-7)
        assert [e.label for e in exs] == labels.tolist()
        assert [e.mode for e in exs] == [0, 1, 0, 1, 0]  # parity rule

    def test_single_mode_rule_and_limit(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        labels = np.array([1, 3, 5, 7])
        ipath, lpath = _write_idx(tmp_path, images, labels)
        exs = load_idx(ipath, lpath, limit=2, mode_rule="single")
        assert len(exs) == 2
        assert all(e.mode == 0 for e in exs)

    def test_count_mismatch_rejected(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        ipath, lpath = _write_idx(tmp_path, images, np.array([0, 1, 2]))
        with open(lpath, "wb") as f:
            f.write(struct.pack(">2I", 0x801, 2))
            f.write(bytes([0, 1]))
        with pytest.raises(FormatError):
            load_idx(ipath, lpath)

    def test_bad_magic_rejected(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        ipath, lpath = _write_idx(tmp_path, images, np.array([0]))
        blob = open(ipath, "rb").read()
        open(ipath, "wb").write(b"\xff\xff\xff\xff" + blob[4:])
        with pytest.raises(FormatError):
            load_idx(ipath, lpath)

    def test_unknown_mode_rule_rejected(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        ipath, lpath = _write_idx(tmp_path, images, np.array([0]))
        with pytest.raises(UsageError):
            load_idx(ipath, lpath, mode_rule="thirds")
