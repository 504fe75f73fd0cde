import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amf.autodiff import new_rng
from amf.data import (
    MixtureSpec,
    SOURCE_PERIOD_BASE,
    Split,
    batches,
    dataset_load,
    dataset_save,
    gen_mixture,
    gen_source_task,
    load_idx,
)
from amf.errors import ConfigError, FormatError, UsageError

from conftest import TINY_SPEC

SPEC = MixtureSpec(k_a=3, k_b=2, n_train=4, n_val=2, n_test=2, image_hw=8,
                   noise_a=0.3, noise_b=0.2, seed=11)


def _assert_splits_equal(a: Split, b: Split) -> None:
    for name in ("images", "labels", "modes"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


class TestSplit:
    def test_len_and_rows(self):
        split = gen_mixture(SPEC).train
        assert len(split) == len(split.images) == SPEC.num_classes * SPEC.n_train
        rows = list(split)
        assert len(rows) == len(split)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(row.image, split.images[i])
            assert (row.label, row.mode) == (split.labels[i], split.modes[i])
            assert type(row.label) is int and type(row.mode) is int

    def test_mismatched_arrays_rejected(self):
        split = gen_mixture(SPEC).train
        with pytest.raises(UsageError):
            Split(split.images, split.labels[:-1], split.modes)
        with pytest.raises(UsageError):
            Split(split.images[:, 0], split.labels, split.modes)


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
        for name in ("train", "val", "test"):
            _assert_splits_equal(a.split(name), b.split(name))

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
        for seed in (2**64, -1):  # a dataset file stores the seed as u64
            with pytest.raises(ConfigError, match="seed"):
                MixtureSpec(seed=seed)

    # a dataset file stores noise as f32; a spec it could not restore is rejected
    @pytest.mark.parametrize("field", ["noise_a", "noise_b"])
    def test_noise_that_would_not_load_back_rejected(self, field):
        with pytest.raises(ConfigError):
            replace(SPEC, **{field: 0.1 + 0.2})
        with pytest.raises(ConfigError):
            gen_source_task(SPEC, seed=1000, noise=0.123456789)


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

    def test_no_seed_keeps_split_order(self):
        ds = gen_mixture(SPEC)
        labels = np.concatenate([l for _, l, _ in batches(ds.train, 7)])
        np.testing.assert_array_equal(labels, [ex.label for ex in ds.train])

    def test_rejects_bad_usage(self):
        split = gen_mixture(SPEC).train
        with pytest.raises(UsageError):
            list(batches(split, 0, 0))
        with pytest.raises(UsageError):
            list(batches(Split(split.images[:0], split.labels[:0], split.modes[:0]), 4, 0))

    def test_matches_stacked_rows(self):
        split = gen_mixture(SPEC).train
        rows = list(split)
        order = new_rng(2).permutation(len(split))
        for b, (images, labels, modes) in enumerate(batches(split, 7, epoch_seed=2)):
            picked = [rows[i] for i in order[b * 7 : (b + 1) * 7]]
            assert images.dtype == np.float32 and labels.dtype == modes.dtype == np.int64
            np.testing.assert_array_equal(images, np.stack([r.image for r in picked]))
            np.testing.assert_array_equal(labels, [r.label for r in picked])
            np.testing.assert_array_equal(modes, [r.mode for r in picked])
        assert b == (len(split) - 1) // 7


class TestDatasetFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        for ds in (gen_mixture(SPEC), gen_source_task(SPEC, seed=5)):
            path = str(tmp_path / "t.ds")
            dataset_save(ds, path)
            back = dataset_load(path)
            assert back.spec == ds.spec
            for split in ("train", "val", "test"):
                _assert_splits_equal(back.split(split), ds.split(split))

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

    # noise values are stored as f32; the loaded spec must still regenerate the file
    @pytest.mark.parametrize("spec", [MixtureSpec(), TINY_SPEC], ids=["default", "tiny"])
    def test_loaded_spec_regenerates_the_file(self, tmp_path, spec):
        path = str(tmp_path / "t.ds")
        dataset_save(gen_mixture(spec), path)
        back = dataset_load(path)
        assert back.spec == spec
        again = gen_mixture(back.spec)
        for split in ("train", "val", "test"):
            _assert_splits_equal(again.split(split), back.split(split))

    def test_source_spec_roundtrip(self, tmp_path):
        ds = gen_source_task(MixtureSpec(), seed=1000)
        path = str(tmp_path / "t.ds")
        dataset_save(ds, path)
        assert dataset_load(path).spec == ds.spec

    @pytest.mark.parametrize("field, value", [("labels", SPEC.num_classes), ("modes", 2)])
    def test_record_that_would_not_load_rejected(self, tmp_path, field, value):
        ds = gen_mixture(SPEC)
        getattr(ds.val, field)[0] = value
        with pytest.raises(UsageError):
            dataset_save(ds, str(tmp_path / "t.ds"))

    # header fields: u32 at 8 + 4*i for k_a, k_b, n_train, n_val, n_test, H, W, C
    @pytest.mark.parametrize("fields", [{36: 2**32 - 1}, {28: 2**16, 32: 2**16}, {28: 2**30, 32: 2**30}],
                             ids=["channels", "hw_2^16", "hw_2^30"])
    def test_record_larger_than_file_rejected(self, tmp_path, fields):
        path = str(tmp_path / "t.ds")
        dataset_save(gen_mixture(SPEC), path)
        blob = bytearray(open(path, "rb").read())
        for offset, value in fields.items():
            struct.pack_into("<I", blob, offset, value)
        open(path, "wb").write(bytes(blob))
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
        s = ds.split(split)
        setattr(ds, split, Split(s.images[:keep], s.labels[:keep], s.modes[:keep]))
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
        np.testing.assert_allclose(exs.images[2, 0], images[2] / 255.0, atol=1e-7)
        assert [e.label for e in exs] == labels.tolist()
        assert [e.mode for e in exs] == [0, 1, 0, 1, 0]  # parity rule

    def test_scaling_matches_float64_division(self, tmp_path):
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        ipath, lpath = _write_idx(tmp_path, images, np.arange(4))
        exs = load_idx(ipath, lpath)
        expected = (images[:, None] / 255.0).astype(np.float32)
        assert exs.images.dtype == np.float32
        assert exs.images.tobytes() == expected.tobytes()

    def test_single_mode_rule(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        labels = np.array([1, 3, 5, 7])
        ipath, lpath = _write_idx(tmp_path, images, labels)
        exs = load_idx(ipath, lpath, mode_rule="single")
        assert len(exs) == 4
        assert all(e.mode == 0 for e in exs)

    def test_count_mismatch_rejected(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        ipath, lpath = _write_idx(tmp_path, images, np.array([0, 1, 2]))
        with open(lpath, "wb") as f:
            f.write(struct.pack(">2I", 0x801, 2))
            f.write(bytes([0, 1]))
        with pytest.raises(FormatError):
            load_idx(ipath, lpath)

    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 3, (100000, 1000, 1000)],
                             ids=["overflows_an_index", "larger_than_memory"])
    def test_header_larger_than_file_rejected(self, tmp_path, dims):
        ipath, lpath = _write_idx(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), np.array([0]))
        with open(ipath, "wb") as f:
            f.write(struct.pack(">4I", 0x803, *dims))
        with pytest.raises(FormatError, match="truncated"):
            load_idx(ipath, lpath)

    def test_label_header_larger_than_file_rejected(self, tmp_path):
        ipath, lpath = _write_idx(tmp_path, np.zeros((0, 2, 2), dtype=np.uint8), np.array([]))
        with open(ipath, "wb") as f:
            f.write(struct.pack(">4I", 0x803, 2**32 - 1, 0, 0))
        with open(lpath, "wb") as f:
            f.write(struct.pack(">2I", 0x801, 2**32 - 1))
        with pytest.raises(FormatError, match="truncated"):
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
