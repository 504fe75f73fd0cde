import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from amf import autodiff as ad
from amf import gradsuite
from amf.autodiff import Tensor, new_rng
from amf.errors import DataError, ShapeError, UsageError
from amf.gradsuite import _run_case
from amf.models import AMFModel, init_model

F = st.floats(-10, 10, allow_nan=False, width=32)


def _rand(shape, seed=0, requires_grad=False, dtype=np.float64):
    data = new_rng(seed).normal(0, 1, size=shape).astype(dtype)
    return Tensor(data, requires_grad=requires_grad)


def _graph(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root``."""
    nodes, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    return list(nodes.values())


class TestSoftmax:
    def test_reference_values(self):
        p = ad.softmax(Tensor(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(p.data, [[0.0900, 0.2447, 0.6652]], atol=1e-4)

    @given(hnp.arrays(np.float32, (3, 5), elements=F))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_distributions(self, x):
        p = ad.softmax(Tensor(x)).data
        assert np.all(p >= 0) and np.all(p <= 1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    @given(hnp.arrays(np.float64, (2, 4), elements=F), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, c):
        p1 = ad.softmax(Tensor(x)).data
        p2 = ad.softmax(Tensor(x + c)).data
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            ad.softmax(Tensor(np.zeros((2, 3, 4))))


class TestCrossEntropy:
    def test_reference_value(self):
        loss = ad.cross_entropy(Tensor(np.array([[1.0, 2.0]])), np.array([0]))
        assert loss.data == pytest.approx(1.3133, abs=1e-4)

    def test_equals_negative_log_prob(self):
        logits = _rand((4, 6), seed=1)
        labels = np.array([0, 5, 2, 2])
        loss = ad.cross_entropy(logits, labels)
        p = ad.softmax(logits).data
        expect = -np.log(p[np.arange(4), labels]).mean()
        assert loss.data == pytest.approx(expect, rel=1e-6)

    def test_nonnegative(self):
        for seed in range(10):
            logits = _rand((5, 3), seed=seed)
            labels = new_rng(seed).integers(0, 3, size=5)
            assert float(ad.cross_entropy(logits, labels).data) >= 0

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataError):
            ad.cross_entropy(_rand((2, 3)), np.array([0, 3]))

    def test_rejects_bad_label_shape(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(_rand((2, 3)), np.array([0]))

    def test_rejects_empty_batch(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(Tensor(np.zeros((0, 3))), np.array([], dtype=np.int64))


class TestStructuralOps:
    def test_flatten_preserves_batch(self):
        x = _rand((3, 2, 4, 4))
        y = ad.flatten(x)
        assert y.shape == (3, 32)
        np.testing.assert_array_equal(y.data.reshape(x.shape), x.data)

    def test_concat_then_slice_roundtrip(self):
        a, b = _rand((4, 3), seed=1), _rand((4, 5), seed=2)
        cat = ad.concat([a, b])
        np.testing.assert_array_equal(ad.slice_cols(cat, 0, 3).data, a.data)
        np.testing.assert_array_equal(ad.slice_cols(cat, 3, 8).data, b.data)

    def test_concat_rejects_batch_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat([_rand((2, 3)), _rand((3, 3))])

    def test_scale_rows(self):
        m, h = _rand((3, 4), seed=1), _rand((3, 1), seed=2)
        np.testing.assert_array_equal(ad.scale_rows(m, h).data, m.data * h.data)

    def test_maxpool_matches_blockwise_max(self):
        x = _rand((2, 3, 6, 6))
        out = ad.maxpool2(x).data
        expect = x.data.reshape(2, 3, 3, 2, 3, 2).max(axis=(3, 5))
        np.testing.assert_array_equal(out, expect)

    def test_maxpool_tie_gradient_goes_to_first(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        out = ad.sum_all(ad.maxpool2(x))
        out.backward()
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])
        # partial ties: the first of the tied positions, not the first position
        for window, expect in (([[0.0, 2.0], [2.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]),
                               ([[0.0, 1.0], [2.0, 2.0]], [[0.0, 0.0], [1.0, 0.0]])):
            x = Tensor(np.array([[window]]), requires_grad=True)
            ad.sum_all(ad.maxpool2(x)).backward()
            np.testing.assert_array_equal(x.grad, [[expect]])

    def test_maxpool_rejects_odd_dims(self):
        with pytest.raises(ShapeError):
            ad.maxpool2(_rand((1, 1, 3, 4)))

    def test_conv2d_identity_kernel(self):
        x = _rand((2, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ad.conv2d(x, Tensor(w), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_conv2d_rejects_non_3x3(self):
        with pytest.raises(ShapeError):
            ad.conv2d(_rand((1, 1, 4, 4)), _rand((1, 1, 5, 5)), Tensor(np.zeros(1)))


TIES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


class TestPoolReluOrder:
    """relu(maxpool2(x)) stands in for maxpool2(relu(x)): equal values and
    input gradients, up to the sign of zero, on tie-heavy inputs."""

    @staticmethod
    def _value_and_grad(x, w, pool_first):
        xt = Tensor(x.copy(), requires_grad=True)
        y = ad.relu(ad.maxpool2(xt)) if pool_first else ad.maxpool2(ad.relu(xt))
        # a signed upstream gradient, so zero gradients can carry either sign
        ad.sum_all(ad.matmul(ad.flatten(y), Tensor(w))).backward()
        return y.data, xt.grad

    @staticmethod
    def _check(x, w):
        y_new, g_new = TestPoolReluOrder._value_and_grad(x, w, pool_first=True)
        y_old, g_old = TestPoolReluOrder._value_and_grad(x, w, pool_first=False)
        assert np.array_equal(y_new, y_old)
        assert np.array_equal(g_new, g_old)
        # maxpool2's backward turns every zero into +0.0 in the reordered block
        assert not np.signbit(g_new[g_new == 0]).any()

    @given(hnp.arrays(np.float64, (2, 2, 4, 4), elements=TIES),
           hnp.arrays(np.float64, (8, 1), elements=TIES), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_tie_heavy_inputs(self, x, w, dtype):
        self._check(x.astype(dtype), w)

    def test_all_non_positive_windows(self):
        windows = [[[-1.0, -1.0], [-2.0, -0.0]], [[-0.0, 0.0], [0.0, -0.0]],
                   [[-2.0, -1.0], [-1.0, -2.0]], [[0.0, -1.0], [-0.0, -2.0]]]
        x = np.block([[np.array(windows[0]), np.array(windows[1])],
                      [np.array(windows[2]), np.array(windows[3])]])[None, None]
        for w in (np.array([[1.0], [-1.0], [-0.0], [2.0]]), np.array([[-1.0], [-1.0], [-1.0], [-1.0]])):
            self._check(x, w)
            y, g = self._value_and_grad(x, w, pool_first=True)
            assert np.array_equal(y, np.zeros_like(y)) and np.array_equal(g, np.zeros_like(g))


class TestReductions:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_scalar_reductions_match_numpy(self, seed):
        x = _rand((7, 5), seed=seed)
        assert float(ad.sum_all(x).data) == pytest.approx(float(x.data.sum()), rel=1e-12)

    def test_float32_reductions_accumulate_in_float64(self):
        # values chosen so naive float32 partial sums drift visibly
        data = np.full(100_000, 0.1, dtype=np.float32)
        got = float(ad.sum_all(Tensor(data)).data)
        assert got == pytest.approx(float(data.astype(np.float64).sum()), rel=1e-12)


class TestBackward:
    def test_backward_requires_scalar(self):
        with pytest.raises(UsageError):
            _rand((2, 2), requires_grad=True).backward()

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = ad.sum_all(ad.concat([x, x]))
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_grad_check_composite(self):
        a = _rand((3, 4), seed=5, requires_grad=True)
        w = _rand((4, 2), seed=6, requires_grad=True)
        labels = np.array([0, 1, 0])

        def build():
            return ad.cross_entropy(ad.matmul(ad.relu(a), w), labels)

        max_rel = _run_case([a, w], build, "f64", eps=1e-6)
        assert max_rel < 1e-6, max_rel

    def test_no_two_tensors_share_a_grad_buffer(self, monkeypatch):
        """An array an op hands over with ``owned=True`` shares no memory with
        any gradient still live when the tensor keeps it."""
        model = AMFModel(n=2, d=4, num_classes=3, image_hw=8, seed=0)
        loss = ad.cross_entropy(model.forward(_rand((2, 1, 8, 8), dtype=np.float32)).logits,
                                np.array([0, 2]))
        nodes = _graph(loss)
        kept = []
        accumulate = Tensor._accumulate

        def checked(t, g, owned=False):
            if owned and t.grad is None:
                for other in nodes:
                    assert other.grad is None or not np.shares_memory(g, other.grad)
                kept.append(g)
            accumulate(t, g, owned)

        monkeypatch.setattr(Tensor, "_accumulate", checked)
        model.zero_grads()
        loss.backward()
        assert len(kept) > len(model.params)

    def test_second_sweep_through_a_released_node_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = ad.relu(x)
        loss = ad.sum_all(y)
        loss.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])
        with pytest.raises(UsageError, match="already swept"):
            loss.backward()
        with pytest.raises(UsageError, match="already swept"):
            ad.sum_all(y).backward()

    def test_second_sweep_through_memoized_amf_parts_raises(self):
        """After ``_run_case`` has swept the memoized policy output and branch
        latents, a loss built on them cannot be swept again."""
        model, x, labels = gradsuite._amf_case(0, "f64")
        build = gradsuite._amf_loss(model, x, labels)
        # only the classifier moves, so every memoized part stays the swept one
        head = [t for k, t in model.params.items() if k.startswith("classifier.")]
        _run_case(head, build, "f64", max_coords=2)
        model.zero_grads()
        with pytest.raises(UsageError, match="already swept"):
            build().backward()

    def test_swept_graph_holds_no_interior_grad_or_closure(self):
        """After one sweep the graph holds its node data and the leaf
        gradients, and nothing else: no interior gradient, no saved array."""
        model = AMFModel(n=2, d=4, num_classes=3, image_hw=8, seed=0)
        x = _rand((2, 1, 8, 8), dtype=np.float32)
        model.zero_grads()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = ad.cross_entropy(model.forward(x).logits, np.array([0, 2]))
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        interior = [t for t in _graph(loss) if t._backward is not None]
        assert interior
        for t in interior:
            assert t.grad is None and t._backward is ad._released
        assert all(t.grad is not None for t in model.params.values())
        # the Tensor, ndarray and parent-tuple objects of a node take about
        # 450 bytes; a retained closure's arrays or interior grads take
        # several times the allowance
        allowance = 1024 * len(interior)
        assert held <= (sum(t.data.nbytes for t in interior)
                        + sum(t.grad.nbytes for t in model.params.values()) + allowance)


def _fields(res) -> list[bytes]:
    """The bytes of every array a ForwardResult carries."""
    return [t.data.tobytes() for t in (res.logits, res.fused, res.weights, *res.latents)
            if t is not None]


class TestNoGrad:
    def test_nests_and_restores_the_previous_mode_when_the_body_raises(self):
        assert ad.is_grad_enabled()
        with ad.no_grad():
            assert not ad.is_grad_enabled()
            with ad.no_grad():
                assert not ad.is_grad_enabled()
            assert not ad.is_grad_enabled()
            with pytest.raises(ValueError):
                with ad.no_grad():
                    raise ValueError
            assert not ad.is_grad_enabled()
        assert ad.is_grad_enabled()
        with pytest.raises(ValueError):
            with ad.no_grad():
                raise ValueError
        assert ad.is_grad_enabled()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graph_has_no_closure_or_parent_and_the_same_bits(self, dtype):
        model = AMFModel(n=2, d=4, num_classes=3, image_hw=8, seed=0)
        x = _rand((2, 1, 8, 8), dtype=dtype)
        labels = np.array([0, 2])
        res = model.forward(x)
        loss = ad.cross_entropy(res.logits, labels)
        with ad.no_grad():
            fres = model.forward(x)
            floss = ad.cross_entropy(fres.logits, labels)
        for t in (floss, fres.logits, fres.fused, fres.weights, *fres.latents):
            assert t._parents == () and t._backward is None and not t.requires_grad
        assert _fields(fres) == _fields(res)
        assert floss.data.tobytes() == loss.data.tobytes()
        assert all(t.requires_grad for t in model.params.values())

    def test_backward_from_a_forward_only_loss_raises(self):
        model = AMFModel(n=2, d=4, num_classes=3, image_hw=8, seed=0)
        model.zero_grads()
        with ad.no_grad():
            loss = ad.cross_entropy(model.forward(_rand((2, 1, 8, 8))).logits, np.array([0, 2]))
        with pytest.raises(UsageError, match="requires no grad"):
            loss.backward()
        assert all(t.grad is None for t in model.params.values())

    def test_backward_from_inputs_that_require_no_grad_raises(self):
        x = Tensor(np.array([1.0, -2.0]))
        loss = ad.sum_all(ad.relu(x))
        assert loss._parents == () and loss._backward is None
        with pytest.raises(UsageError, match="requires no grad"):
            loss.backward()
        assert x.grad is None


class TestSharedPatches:
    """A model builds its input's im2col patches once per forward and passes
    them to every conv that reads the input."""

    @staticmethod
    def _count_im2col(monkeypatch, matrices: list | None = None) -> list:
        """The input array of every ``im2col`` build; ``matrices``, when
        given, gets a weak reference to each matrix built."""
        built = []
        im2col = ad.im2col

        def counted(x):
            built.append(x.data)
            cols = im2col(x)
            if matrices is not None:
                matrices.append(weakref.ref(cols))
            return cols
        monkeypatch.setattr(ad, "im2col", counted)
        return built

    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("arch", ["amf", "multitune", "single"])
    def test_forward_builds_input_patches_once(self, monkeypatch, arch, grad):
        model = init_model(arch, 0, num_classes=3, n=3, d=4, image_hw=8)
        x = _rand((2, 1, 8, 8), dtype=np.float32)
        labels = np.array([0, 2])

        def run() -> list[bytes]:
            if not grad:
                with ad.no_grad():
                    return _fields(model.forward(x))
            model.zero_grads()
            loss = ad.cross_entropy(model.forward(x).logits, labels)
            loss.backward()
            return [loss.data.tobytes()] + [t.grad.tobytes() for t in model.params.values()]

        matrices = []
        built = self._count_im2col(monkeypatch, matrices)
        shared = run()
        # the policy conv (amf) and every branch conv1 read x; each conv2 reads its own input
        assert sum(d is x.data for d in built) == 1
        assert len(built) == 1 + model.n
        # the forward and then the last closure that held the shared patches have freed them
        assert matrices[built.index(x.data)]() is None

        # every conv building its own patches gives the same bits
        conv2d = ad.conv2d
        monkeypatch.setattr(ad, "conv2d", lambda x, w, bias, cols=None: conv2d(x, w, bias))
        built.clear()
        assert shared == run()
        # the forward's build, now unused, and one by each conv that reads x
        assert sum(d is x.data for d in built) == 1 + model.n + (arch == "amf")

    @pytest.mark.parametrize("arch", ["amf", "multitune"])
    def test_no_grad_frees_the_patches_before_conv2(self, monkeypatch, arch):
        model = init_model(arch, 0, num_classes=3, n=3, d=4, image_hw=8)
        x = _rand((2, 1, 8, 8), dtype=np.float32)
        matrices, alive = [], []
        self._count_im2col(monkeypatch, matrices)
        conv2d = ad.conv2d

        def checked(inp, w, bias, cols=None):
            if inp is not x:
                alive.append(matrices[0]() is not None)
            return conv2d(inp, w, bias, cols)
        monkeypatch.setattr(ad, "conv2d", checked)
        with ad.no_grad():
            model.forward(x)
        assert alive == [False] * model.n

    def test_patches_of_another_input_rejected(self):
        x, w, b = _rand((2, 1, 4, 4)), _rand((3, 1, 3, 3)), Tensor(np.zeros(3))
        with pytest.raises(ShapeError, match="patches shape"):
            ad.conv2d(x, w, b, ad.im2col(_rand((1, 1, 4, 4))))


class TestGradSuite:
    @pytest.mark.parametrize("entry", [
        lambda mode: gradsuite.check_primitive("matmul", 0, mode),
        lambda mode: gradsuite.check_amf_loss(0, mode),
        lambda mode: gradsuite.run_suite(num_seeds=1, mode=mode, amf_seeds=1),
        lambda mode: _run_case([Tensor(np.ones(2), requires_grad=True)], None, mode, eps=1e-6),
    ], ids=["check_primitive", "check_amf_loss", "run_suite", "run_case_with_eps"])
    def test_unknown_mode_rejected(self, entry):
        with pytest.raises(UsageError, match="unknown precision mode 'f16'"):
            entry("f16")

    @pytest.mark.parametrize("seeds", [dict(num_seeds=0), dict(amf_seeds=0), dict(num_seeds=-1)])
    def test_run_suite_needs_a_seed_per_check(self, seeds):
        with pytest.raises(UsageError, match="need >= 1 seed"):
            gradsuite.run_suite(**seeds)

    @staticmethod
    def _recorded(build, losses):
        def run():
            loss = build()
            losses.append(loss.data.tobytes())
            return loss
        return run

    @pytest.mark.parametrize("mode", ["f64", "f32"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_memoized_amf_loss_equals_full_rebuild(self, seed, mode):
        """Every loss the memoized builder returns, and so the suite's
        result, is bit-identical to rebuilding the whole forward."""
        runs = []
        for memoized in (True, False):
            model, x, labels = gradsuite._amf_case(seed, mode)
            params = list(model.params.values())
            build = (gradsuite._amf_loss(model, x, labels) if memoized
                     else lambda: ad.cross_entropy(model.forward(x).logits, labels))
            losses = []
            err = _run_case(params, self._recorded(build, losses), mode, max_coords=20,
                            pick_seed=seed + 1, eps=1e-4, promote=params + [x])
            runs.append((err, losses))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) > 400
        assert gradsuite.check_amf_loss(seed, mode, max_coords=20) == runs[1][0]

    def test_memo_rebuilds_a_branch_after_its_parameter_changes(self):
        model, x, labels = gradsuite._amf_case(0, "f64")
        build = gradsuite._amf_loss(model, x, labels)
        before = build().data.item()
        model.params["branch2.conv1.w"].data.reshape(-1)[5] += 0.5
        fresh, fx, flabels = gradsuite._amf_case(0, "f64")
        fresh.params["branch2.conv1.w"].data.reshape(-1)[5] += 0.5
        expected = ad.cross_entropy(fresh.forward(fx).logits, flabels).data.item()
        assert build().data.item() == expected != before


class TestGraphLifetime:
    """A graph is freed by reference counting once its caller drops it, so
    training memory does not pile up between cyclic GC collections."""

    @staticmethod
    def _logits_ref(train: bool) -> weakref.ref:
        model = AMFModel(n=2, d=4, num_classes=3, image_hw=8, seed=0)
        res = model.forward(_rand((2, 1, 8, 8), dtype=np.float32))
        if train:
            loss = ad.cross_entropy(res.logits, np.array([0, 2]))
            model.zero_grads()
            loss.backward()
            # the sweep drops interior gradients and keeps the leaves'
            assert res.logits.grad is None
            assert all(t.grad is not None for t in model.params.values())
        return weakref.ref(res.logits)

    @pytest.mark.parametrize("train", [True, False], ids=["backward", "forward_only"])
    def test_graph_freed_without_cyclic_gc(self, train):
        gc.disable()
        try:
            assert self._logits_ref(train)() is None
        finally:
            gc.enable()


class TestTensorCreate:
    def test_gaussian_is_seed_deterministic(self):
        a = ad.tensor_create((3, 3), fill="gaussian", seed=9)
        b = ad.tensor_create((3, 3), fill="gaussian", seed=9)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.dtype == np.float32

    def test_rejects_bad_shape_and_fill(self):
        with pytest.raises(ShapeError):
            ad.tensor_create((0, 3))
        with pytest.raises(UsageError):
            ad.tensor_create((2,), fill="uniform")
