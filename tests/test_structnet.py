import itertools
import sys
import threading

import numpy as np
import pytest

from celab import structnet
from celab.channel_sim import NoiseSpec, apply_channel, exponential_pdp, sample_channel
from celab.errors import (
    DegenerateRatioError,
    InvalidArgumentError,
    ResourceLimitError,
    TrainingDivergenceError,
)
from celab.estimators import estimate_ls
from celab.evaluation import compute_mse, snr_to_noise_var
from celab.signal_model import (
    SubframeSpec,
    build_constellation,
    generate_transmit_grid,
    realify_channel_column,
)
from celab.structnet import (
    IilKind,
    IilOrder,
    StructNetModel,
    TrainConfig,
    _BatchTrainer,
    _binary_samples,
    _grid_tanh_sum,
    _init_mlp,
    _init_stream,
    _mlp,
    _softmax,
    channel_layer_forward,
    detect_multinomial,
    estimate_channel_structnet,
    iil_modulo_forward,
    model_forward,
    shift_grid,
)


def _model(rng, n_rx=2, n_k=3, kind=IilKind.MODULO, n_h1=8, n_h2=8):
    d = 2 * n_rx
    return StructNetModel(
        desired=rng.normal(size=d),
        interference=rng.normal(size=(n_k, d)),
        w1=rng.normal(0, 0.1, (n_h1, d)),
        b1=np.zeros(n_h1),
        w2=rng.normal(0, 0.1, (n_h2, n_h1)),
        b2=np.zeros(n_h2),
        w3=rng.normal(0, 0.1, (2, n_h2)),
        b3=np.zeros(2),
        iil_kind=kind,
    )


def _sorted_columns(h, stream, order):
    """The realified columns of h (N_r, N_t) other than the stream's, in the
    interference order `order`: strongest first, or as given."""
    n_tx = h.shape[1]
    columns = [realify_channel_column(h[:, j % n_tx], j, n_tx)
               for j in range(2 * n_tx) if j != stream]
    if order is IilOrder.DESCENDING_STRENGTH:
        columns.sort(key=lambda v: -np.sum(v**2))
    return np.stack(columns)


class TestInitModel:
    def test_interference_count_and_order(self):
        rng = np.random.default_rng(0)
        h_ls = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
        desired, interference, _ = _init_stream(h_ls, 0, TrainConfig(), np.random.default_rng(1))
        assert desired.shape == (1, 4)
        assert interference.shape == (1, 3, 4)
        want = [realify_channel_column(h_ls[0, :, j % 2], j, 2) for j in (1, 2, 3)]
        want.sort(key=lambda v: -np.sum(v**2))
        assert np.allclose(interference[0], np.stack(want))

    def test_single_antenna_has_one_interferer(self):
        h_ls = np.array([[[1 + 2j]]])
        _, interference, _ = _init_stream(h_ls, 0, TrainConfig(), np.random.default_rng(0))
        assert interference.shape == (1, 1, 2)
        assert np.allclose(interference[0, 0], [-2.0, 1.0])

    def test_given_order_preserved(self):
        rng = np.random.default_rng(1)
        h_ls = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
        cfg = TrainConfig(iil_order=IilOrder.GIVEN_ORDER)
        _, interference, _ = _init_stream(h_ls, 1, cfg, np.random.default_rng(2))
        want = [realify_channel_column(h_ls[0, :, j % 2], j, 2) for j in (0, 2, 3)]
        assert np.allclose(interference[0], np.stack(want))

    def test_same_seed_same_mlp(self):
        h_ls = np.eye(2, dtype=complex)[None]
        _, _, a = _init_stream(h_ls, 0, TrainConfig(), np.random.default_rng(3))
        _, _, b = _init_stream(h_ls, 0, TrainConfig(), np.random.default_rng(3))
        assert len(a) == len(b) == 6
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a, b))

    @pytest.mark.parametrize("order", [IilOrder.DESCENDING_STRENGTH, IilOrder.GIVEN_ORDER])
    def test_batched_init_orders_each_subcarrier(self, order):
        # Column scales per subcarrier: which antenna is stronger changes
        # from subcarrier to subcarrier, so a shared order would be wrong.
        rng = np.random.default_rng(20)
        scales = np.array([[3.0, 0.5], [0.5, 3.0], [1.0, 2.0], [2.0, 1.0]])
        h_ls = (rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))) \
            * scales[:, None, :]
        strongest = np.argmax(np.sum(np.abs(h_ls) ** 2, axis=1), axis=1)
        assert len(set(strongest)) > 1
        cfg = TrainConfig(iil_order=order)
        for stream in range(4):
            desired, interference, _ = _init_stream(h_ls, stream, cfg,
                                                    np.random.default_rng(0))
            for k in range(4):
                want = realify_channel_column(h_ls[k, :, stream % 2], stream, 2)
                assert np.array_equal(desired[k], want)
                assert np.array_equal(interference[k], _sorted_columns(h_ls[k], stream, order))


class TestChannelLayer:
    def test_zero_shift_identity(self):
        rng = np.random.default_rng(2)
        model = _model(rng)
        y = rng.normal(size=4)
        assert np.array_equal(channel_layer_forward(model, y, 0.0), y)

    def test_shift_arithmetic(self):
        rng = np.random.default_rng(3)
        model = _model(rng, n_rx=1)
        model.desired = np.array([0.5, -0.5])
        assert np.allclose(channel_layer_forward(model, [1.0, 1.0], 2.0), [2.0, 0.0])

    def test_gradient_wrt_desired_is_shift(self):
        rng = np.random.default_rng(4)
        model = _model(rng)
        y = rng.normal(size=4)
        shift, eps = 3.0, 1e-6
        for k in range(4):
            model.desired[k] += eps
            up = channel_layer_forward(model, y, shift)
            model.desired[k] -= 2 * eps
            dn = channel_layer_forward(model, y, shift)
            model.desired[k] += eps
            grad = (up - dn) / (2 * eps)
            want = np.zeros(4)
            want[k] = shift
            assert np.allclose(grad, want, rtol=1e-6, atol=1e-6)


class TestShiftingIil:
    def test_no_interference_is_plain_tanh(self):
        s = np.array([[[0.3, -1.2]]])
        out, _ = _grid_tanh_sum(s, np.zeros((1, 0, 2)), shift_grid(0, 3).astype(float),
                                _BatchTrainer._CHUNK)
        assert np.allclose(out, np.tanh(s))

    def test_zero_vector_multiplies_count(self):
        s = np.array([[[0.4, 0.9]]])
        out, _ = _grid_tanh_sum(s, np.zeros((1, 1, 2)), shift_grid(1, 3).astype(float),
                                _BatchTrainer._CHUNK)
        assert np.allclose(out, 7 * np.tanh(s))

    def test_grid_shapes(self):
        g = shift_grid(2, 3)
        assert g.shape == (49, 2)
        assert g.min() == -3 and g.max() == 3

    def test_periodicity_error_is_boundary_terms(self):
        # Shifting by one period telescopes the truncated sum, so the change
        # equals exactly the two boundary terms tanh(z+8h) - tanh(z-6h).
        # 200 models, one sample and one unit interference vector each.
        rng = np.random.default_rng(5)
        h = rng.normal(size=(200, 1, 4))
        h /= np.linalg.norm(h, axis=2, keepdims=True)
        z = rng.uniform(-3, 3, size=(200, 1, 4))
        grid = shift_grid(1, 3).astype(float)
        f0, _ = _grid_tanh_sum(z, h, grid, _BatchTrainer._CHUNK)
        f1, _ = _grid_tanh_sum(z + 2 * h, h, grid, _BatchTrainer._CHUNK)
        want = np.tanh(z + 8 * h) - np.tanh(z - 6 * h)
        assert np.allclose(f1 - f0, want, atol=1e-12)
        assert np.all(np.abs(f1 - f0) <= np.abs(np.tanh(z + 8 * h)) + np.abs(np.tanh(z - 6 * h)) + 1e-12)

    # K = 0 is one transmit antenna's (1, 0) grid; K = 3 with window 1 is 27
    # grid points, which chunks of 5 split into five full chunks and one of 2.
    @pytest.mark.parametrize("chunk", [None, 5])
    @pytest.mark.parametrize("n_batch", [1, 3])
    @pytest.mark.parametrize("n_k, window", [(0, 3), (1, 3), (3, 1)])
    def test_layer_and_backward_match_a_loop_over_grid_points(
            self, monkeypatch, n_k, window, n_batch, chunk):
        if chunk is not None:
            monkeypatch.setattr(_BatchTrainer, "_CHUNK", chunk)
        rng = np.random.default_rng(31)
        d, n_samples = 4, 6
        s = rng.normal(0.0, 1.5, (n_batch, n_samples, d))
        dz = rng.normal(0.0, 1.0, (n_batch, n_samples, d))
        interference = rng.normal(0.0, 0.7, (n_batch, n_k, d))

        # Reference: sum_g tanh(s + 2 m_g . h), one grid point at a time.
        z_ref, ds_ref = np.zeros_like(s), np.zeros_like(s)
        g_ref = np.zeros_like(interference)
        for m in itertools.product(range(-window, window + 1), repeat=n_k):
            m = np.array(m, dtype=float)
            t = np.tanh(s + 2.0 * np.einsum("k,bkd->bd", m, interference)[:, None, :])
            u = dz * (1.0 - t * t)
            z_ref += t
            ds_ref += u
            g_ref += 2.0 * m[None, :, None] * u.sum(axis=1)[:, None, :]

        mlp = structnet._init_mlp(rng, n_batch, d, TrainConfig())
        tr = _BatchTrainer(np.zeros((n_batch, d)), interference, mlp,
                           np.tile([1, 0], n_samples // 2), np.zeros((n_batch, n_samples)), s,
                           TrainConfig(iil_kind=IilKind.SHIFTING, iil_window=window))
        z, cache = tr._iil_shifting(s)
        ds, g_int = tr._iil_shifting_backward(cache, dz)
        for got, want in ((z, z_ref), (ds, ds_ref), (g_int, g_ref)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestModuloIil:
    def test_scalar_example(self):
        out, alphas = iil_modulo_forward([5.0], [[1.0]], 1e-6)
        assert np.allclose(out, [1.0])
        assert np.allclose(alphas[0], [2.0])

    def test_floor_semantics_for_negatives(self):
        out, alphas = iil_modulo_forward([-0.5], [[1.0]], 1e-6)
        assert np.allclose(out, [1.5])
        assert np.allclose(alphas[0], [-1.0])

    def test_small_entries_skipped(self):
        out, alphas = iil_modulo_forward([5.0, 5.0], [[1.0, 1e-9]], 1e-6)
        assert np.allclose(out, [1.0, 5.0])
        assert np.allclose(alphas[0], [2.0, 0.0])

    def test_exact_invariance_single_vector(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            h = rng.uniform(0.2, 2.0, size=4) * rng.choice([-1, 1], size=4)
            z = rng.normal(size=4)
            if np.min(np.abs(z / (2 * h) - np.round(z / (2 * h)))) < 1e-6:
                continue
            m = rng.integers(-6, 7)
            a, _ = iil_modulo_forward(z, h[None, :], 1e-6)
            b, _ = iil_modulo_forward(z + 2 * m * h, h[None, :], 1e-6)
            assert np.allclose(a, b, atol=1e-9)

    def test_output_within_one_period_of_first_vector(self):
        rng = np.random.default_rng(7)
        h = rng.uniform(0.5, 1.5, size=4)
        z = rng.normal(size=4) * 5
        out, _ = iil_modulo_forward(z, h[None, :], 1e-6)
        assert np.all(out >= 0.0) and np.all(out < 2 * h)


class TestClassifier:
    def test_zero_weights_uniform(self):
        mlp = (np.zeros((1, 8, 4)), np.zeros((1, 8)), np.zeros((1, 8, 8)), np.zeros((1, 8)),
               np.zeros((1, 2, 8)), np.zeros((1, 2)))
        _, _, p = _mlp(np.ones((1, 1, 4)), *mlp)
        assert np.allclose(p, [0.5, 0.5])

    def test_probabilities_sum_to_one(self):
        # 3 models, 20 samples each.
        rng = np.random.default_rng(8)
        mlp = _init_mlp(rng, 3, 4, TrainConfig(n_h1=8, n_h2=8))
        _, _, p = _mlp(rng.normal(size=(3, 20, 4)), *mlp)
        assert p.shape == (3, 20, 2)
        assert np.max(np.abs(p.sum(axis=2) - 1.0)) < 1e-12
        assert np.all(p > 0)

    def test_softmax_matches_generic_formula(self):
        rng = np.random.default_rng(21)
        scores = np.concatenate([
            rng.normal(0.0, 5.0, (50, 2)),
            [[800.0, -800.0], [-800.0, 800.0], [800.0, 800.0], [-800.0, -800.0],
             [800.0, 799.0], [0.0, 0.0]],
        ]).reshape(4, 14, 2)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        want = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        got = _softmax(scores)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-15


class TestTrainingSamples:
    def test_shifts_for_minus_three(self):
        classes, shifts, _ = _binary_samples([-3], [np.zeros(2)])
        assert classes.tolist() == [1, 0] and shifts.tolist() == [4.0, 2.0]

    def test_shifts_for_plus_one(self):
        classes, shifts, _ = _binary_samples([1], [np.zeros(2)])
        assert classes.tolist() == [1, 0] and shifts.tolist() == [0.0, -2.0]

    def test_two_samples_per_pair_and_spacing(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(4, 4))
        classes, shifts, samples = _binary_samples([-3, -1, 1, 3], y)
        assert classes.tolist() == [1, 0] * 4
        assert shifts.shape == (8,) and samples.shape == (8, 4)
        assert np.all(shifts[0::2] - shifts[1::2] == 2.0)
        assert np.array_equal(samples[0::2], y) and np.array_equal(samples[1::2], y)


class TestTrainEpoch:
    @staticmethod
    def _setup(cfg, seed=10):
        """A float64 batch-of-one trainer on four noiseless BPSK pilots of a
        one-antenna channel, started at the true channel."""
        h = 1.0 + 0.5j
        x_levels = np.array([-1.0, 1.0, -1.0, 1.0])
        y = np.stack([(h * x_levels).real, (h * x_levels).imag], axis=1)
        desired, interference, mlp = _init_stream(np.array([[[h]]]), 0, cfg,
                                                  np.random.default_rng(seed))
        classes, lam, samples = _binary_samples(x_levels[None], y[None])
        return _BatchTrainer(desired, interference, mlp, classes, lam, samples, cfg)

    def test_frozen_channel_phase(self):
        tr = self._setup(TrainConfig(lr_channel=0.0))
        before = {name: getattr(tr, name).copy() for name in ALL_WEIGHTS}
        tr.run_epochs(1)
        assert np.array_equal(tr.desired, before["desired"])
        assert np.array_equal(tr.interference, before["interference"])
        assert not np.array_equal(tr.w1, before["w1"])

    def test_frozen_interference_option(self):
        tr = self._setup(TrainConfig(update_interference=False))
        before = tr.interference.copy()
        desired = tr.desired.copy()
        tr.run_epochs(1)
        assert np.array_equal(tr.interference, before)
        assert not np.array_equal(tr.desired, desired)

    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_loss_decreases_noiseless(self, kind):
        tr = self._setup(TrainConfig(iil_kind=kind))
        losses = []
        for _ in range(10):
            tr.run_epochs(1)
            losses.append(tr.loss()[0])
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestDetectMultinomial:
    def test_uniform_posterior(self):
        rng = np.random.default_rng(11)
        model = _model(rng)
        p = detect_multinomial(model, rng.normal(size=4), posterior=lambda z: (0.5, 0.5))
        assert np.allclose(p, 0.25)

    def test_hand_solved_ratio_chain(self):
        rng = np.random.default_rng(12)
        model = _model(rng)
        # Every ratio P(-1)/P(+1) = 1/3 -> probabilities prop. to 3^-k.
        p = detect_multinomial(model, rng.normal(size=4), posterior=lambda z: (0.25, 0.75))
        want = np.array([1 / 27, 1 / 9, 1 / 3, 1.0])
        assert np.allclose(p, want / want.sum())

    def test_degenerate_ratio(self):
        rng = np.random.default_rng(13)
        model = _model(rng)
        with pytest.raises(DegenerateRatioError):
            detect_multinomial(model, np.zeros(4), posterior=lambda z: (0.0, 1.0))


class TestEstimateChannel:
    def test_zero_epochs_is_ls(self):
        spec = SubframeSpec(n_sc=16)
        const = build_constellation(16)
        pdp = exponential_pdp(8, 3.0)
        ss = np.random.SeedSequence(14).spawn(4)
        h = sample_channel(pdp, spec, ss[0])
        grid = generate_transmit_grid(spec, const, ss[1])
        y = apply_channel(grid, h, NoiseSpec(2.0), ss[2])
        y_p = y[:, :, : spec.n_pilot]
        h_ls = estimate_ls(y_p, grid.pilots)
        got = estimate_channel_structnet(
            y_p, grid.pilots, TrainConfig(epochs=0), ss[3]
        )
        assert np.array_equal(got, h_ls)

    def test_noiseless_training_preserves_truth(self):
        spec = SubframeSpec(n_sc=16)
        const = build_constellation(16)
        pdp = exponential_pdp(8, 3.0)
        ss = np.random.SeedSequence(15).spawn(3)
        h = sample_channel(pdp, spec, ss[0])
        grid = generate_transmit_grid(spec, const, ss[1])
        y = apply_channel(grid, h, NoiseSpec(0.0), 0)
        got = estimate_channel_structnet(
            y[:, :, : spec.n_pilot], grid.pilots, TrainConfig(), ss[2]
        )
        # Training starts at the exact LS solution; the cross-entropy then
        # inflates the separation margin slightly, so the weights drift by a
        # small amount rather than staying bit-exact at the truth.
        assert compute_mse(h.freq_response, got) < 1e-4

    def test_deterministic_given_seed(self):
        spec = SubframeSpec(n_sc=8)
        const = build_constellation(16)
        pdp = exponential_pdp(4, 2.0)
        ss = np.random.SeedSequence(16).spawn(3)
        h = sample_channel(pdp, spec, ss[0])
        grid = generate_transmit_grid(spec, const, ss[1])
        y = apply_channel(grid, h, NoiseSpec(1.0), ss[2])
        cfg = TrainConfig(epochs=20)
        a = estimate_channel_structnet(y[:, :, :2], grid.pilots, cfg, 99)
        b = estimate_channel_structnet(y[:, :, :2], grid.pilots, cfg, 99)
        assert np.array_equal(a, b)

    def test_float32_change_agrees_with_float64(self, monkeypatch):
        # The learner trains in float32 around the float64 LS anchor; its
        # change from LS must follow the same training run in float64.
        spec = SubframeSpec(n_sc=16)
        const = build_constellation(16)
        ss = np.random.SeedSequence(14).spawn(3)
        h = sample_channel(exponential_pdp(8, 3.0), spec, ss[0])
        grid = generate_transmit_grid(spec, const, ss[1])
        y_p = apply_channel(grid, h, NoiseSpec(2.0), ss[2])[:, :, : spec.n_pilot]
        h_ls = estimate_ls(y_p, grid.pilots)
        cfg = TrainConfig(epochs=200)
        delta32 = estimate_channel_structnet(y_p, grid.pilots, cfg, 5) - h_ls

        class Float64Trainer(_BatchTrainer):
            def __init__(self, *args, dtype=None, **kwargs):
                super().__init__(*args, dtype=np.float64, **kwargs)

        monkeypatch.setattr(structnet, "_BatchTrainer", Float64Trainer)
        delta64 = estimate_channel_structnet(y_p, grid.pilots, cfg, 5) - h_ls
        assert np.linalg.norm(delta64) > 1e-3 * np.linalg.norm(h_ls)
        assert np.linalg.norm(delta32 - delta64) <= 0.02 * np.linalg.norm(delta64)

    def test_single_model_view_stays_float64(self, monkeypatch):
        # model_forward runs the model as a batch-of-one trainer in float64.
        trainers = []
        init = _BatchTrainer.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            trainers.append(self)

        monkeypatch.setattr(_BatchTrainer, "__init__", record)
        rng = np.random.default_rng(36)
        p = model_forward(_model(rng, kind=IilKind.SHIFTING), rng.normal(size=(3, 4)), 1.0)
        assert p.shape == (3, 2) and p.dtype == np.float64
        (trainer,) = trainers
        for name in ALL_WEIGHTS + ("lam", "y", "grid"):
            assert getattr(trainer, name).dtype == np.float64, name

    def test_orthogonal_pilots_supported(self):
        from celab.signal_model import PilotPattern

        spec = SubframeSpec(n_sc=8, pilot_pattern=PilotPattern.ORTHOGONAL)
        const = build_constellation(16)
        pdp = exponential_pdp(4, 2.0)
        ss = np.random.SeedSequence(17).spawn(3)
        h = sample_channel(pdp, spec, ss[0])
        grid = generate_transmit_grid(spec, const, ss[1])
        y = apply_channel(grid, h, NoiseSpec(0.5), ss[2])
        got = estimate_channel_structnet(
            y[:, :, :2], grid.pilots, TrainConfig(epochs=5), ss[2]
        )
        assert got.shape == (8, 2, 2)
        assert np.all(np.isfinite(got))

    @staticmethod
    def _pilots(spec, seed):
        ss = np.random.SeedSequence(seed).spawn(3)
        h = sample_channel(exponential_pdp(4, 2.0), spec, ss[0])
        grid = generate_transmit_grid(spec, build_constellation(16), ss[1])
        return apply_channel(grid, h, NoiseSpec(1.0), ss[2])[:, :, : spec.n_pilot], grid.pilots

    def test_seed_sequence_not_advanced(self):
        y_p, x_p = self._pilots(SubframeSpec(n_sc=8), 20)
        cfg = TrainConfig(epochs=20)
        ss = np.random.SeedSequence(21)
        a = estimate_channel_structnet(y_p, x_p, cfg, ss)
        b = estimate_channel_structnet(y_p, x_p, cfg, ss)
        assert np.array_equal(a, b)
        assert ss.n_children_spawned == 0
        # A fresh sequence draws what an int seed of the same entropy draws.
        assert np.array_equal(a, estimate_channel_structnet(y_p, x_p, cfg, 21))

    def test_given_ls_estimate_is_used(self, monkeypatch):
        y_p, x_p = self._pilots(SubframeSpec(n_sc=8), 22)
        cfg = TrainConfig(epochs=20)
        want = estimate_channel_structnet(y_p, x_p, cfg, 23)
        h_ls = estimate_ls(y_p, x_p)

        def refuse(*args):
            raise AssertionError("LS recomputed")

        monkeypatch.setattr(structnet, "estimate_ls", refuse)
        assert np.array_equal(estimate_channel_structnet(y_p, x_p, cfg, 23, h_ls=h_ls), want)

    # Active pilot slots per antenna, over 3 antennas and 3 slots; the first
    # antenna with no slot, or with another count than antenna 0's, is at fault.
    @pytest.mark.parametrize("slots, match", [
        ((2, 0, 0), "^antenna 1 transmits no pilot symbol$"),
        ((0, 2, 0), "^antenna 0 transmits no pilot symbol$"),
        ((2, 2, 0), "^antenna 2 transmits no pilot symbol$"),
        ((2, 1, 2), "^antennas differ in active pilot slot count$"),
        ((2, 1, 0), "^antennas differ in active pilot slot count$"),
    ])
    def test_pilot_slot_rule(self, slots, match):
        x_p = np.zeros((4, 3, 3), dtype=complex)
        for antenna, n in enumerate(slots):
            x_p[:, antenna, :n] = 1.0 + 1.0j
        y_p = np.ones((4, 2, 3), dtype=complex)
        with pytest.raises(InvalidArgumentError, match=match):
            estimate_channel_structnet(y_p, x_p, TrainConfig(epochs=1), 0,
                                       h_ls=np.zeros((4, 2, 3), dtype=complex))

    def test_shifting_cache_cap_allocates_nothing(self):
        # 4x4 at 64 subcarriers: the backward cache over the 7^7-point grid
        # would take ~1e11 bytes.
        import tracemalloc

        y_p, x_p = self._pilots(SubframeSpec(n_tx=4, n_rx=4, n_pilot=4), 24)
        cfg = TrainConfig(epochs=1, iil_kind=IilKind.SHIFTING)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="cache"):
                estimate_channel_structnet(y_p, x_p, cfg, 25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(lr_classifier=-0.1)
        with pytest.raises(InvalidArgumentError):
            TrainConfig(iil_window=0)

    def test_zero_rates_allowed_for_freezing(self):
        TrainConfig(lr_channel=0.0)
        TrainConfig(lr_classifier=0.0, epochs=0)


class TestFullForward:
    def test_modulo_invariance_end_to_end(self):
        rng = np.random.default_rng(18)
        model = _model(rng, n_k=1)
        model.interference = rng.uniform(0.3, 1.5, size=(1, 4))
        y = rng.normal(size=4)
        base = model_forward(model, y, 0.0)
        for m in (-2, 1, 3):
            shifted = model_forward(model, y + 2 * m * model.interference[0], 0.0)
            assert np.allclose(shifted, base, atol=1e-9)

    def test_empty_input_rejected(self):
        model = _model(np.random.default_rng(37))
        with pytest.raises(InvalidArgumentError, match="at least one received vector"):
            model_forward(model, np.zeros((0, 4)), 0.0)


MLP_WEIGHTS = ("w1", "b1", "w2", "b2", "w3", "b3")
ALL_WEIGHTS = ("desired", "interference") + MLP_WEIGHTS


def _batch_trainer(kind, n_batch, update_interference, seed=19, dtype=np.float64):
    """A fresh trainer with its own arrays; equal seeds give equal trainers."""
    rng = np.random.default_rng(seed)
    d, n_k, n_samples = 4, 3, 4
    cfg = TrainConfig(iil_kind=kind, iil_window=1, lr_classifier=0.05, lr_channel=0.05,
                      update_interference=update_interference)
    interference = (rng.uniform(0.3, 1.5, (n_batch, n_k, d))
                    * rng.choice([-1, 1], (n_batch, n_k, d)))
    mlp = (
        rng.normal(0, 0.3, (n_batch, 8, d)), rng.normal(0, 0.1, (n_batch, 8)),
        rng.normal(0, 0.3, (n_batch, 8, 8)), rng.normal(0, 0.1, (n_batch, 8)),
        rng.normal(0, 0.3, (n_batch, 2, 8)), rng.normal(0, 0.1, (n_batch, 2)),
    )
    return _BatchTrainer(
        desired=rng.normal(0.0, 1.0, (n_batch, d)),
        interference=interference,
        mlp=mlp,
        labels=np.tile([1, 0], n_samples // 2),
        lam=rng.choice([-4.0, -2.0, 0.0, 2.0, 4.0], (n_batch, n_samples)),
        y=rng.normal(0.0, 2.0, (n_batch, n_samples, d)),
        cfg=cfg,
        dtype=dtype,
    )


def _reference_epochs(tr, n_epochs):
    """The alternation with two full, independent `_grads()` calls per epoch."""
    cfg = tr.cfg
    for _ in range(n_epochs):
        g = tr._grads()
        for name in MLP_WEIGHTS:
            w = getattr(tr, name)
            w -= cfg.lr_classifier * g[name]
        g = tr._grads()
        tr.desired -= cfg.lr_channel * g["desired"]
        if cfg.update_interference:
            tr.interference -= cfg.lr_channel * g["interference"]


class TestSharedForward:
    """`run_epochs` shares one forward per epoch and must match the reference
    alternation bit for bit."""

    @staticmethod
    def _assert_same_weights(kind, n_batch, update_interference, n_epochs=3):
        fast = _batch_trainer(kind, n_batch, update_interference)
        ref = _batch_trainer(kind, n_batch, update_interference)
        start = _batch_trainer(kind, n_batch, update_interference)
        fast.run_epochs(n_epochs)
        _reference_epochs(ref, n_epochs)
        for name in ALL_WEIGHTS:
            assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
        assert not np.array_equal(fast.desired, start.desired)
        moved = not np.array_equal(fast.interference, start.interference)
        assert moved is update_interference

    @pytest.mark.parametrize("update_interference", [True, False])
    @pytest.mark.parametrize("n_batch", [1, 3])
    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_matches_two_full_grads(self, kind, n_batch, update_interference):
        self._assert_same_weights(kind, n_batch, update_interference)

    @pytest.mark.parametrize("update_interference", [True, False])
    def test_chunked_shift_grid(self, monkeypatch, update_interference):
        # window 1 and 3 interference vectors: 27 grid points in 6 chunks
        whole = _batch_trainer(IilKind.SHIFTING, 3, update_interference)._grads()
        monkeypatch.setattr(_BatchTrainer, "_CHUNK", 5)
        chunked = _batch_trainer(IilKind.SHIFTING, 3, update_interference)._grads()
        for name in ALL_WEIGHTS:
            assert np.allclose(chunked[name], whole[name], rtol=1e-12, atol=1e-14), name
        self._assert_same_weights(IilKind.SHIFTING, 3, update_interference)

    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_partial_grads_are_subsets_of_full(self, kind):
        tr = _batch_trainer(kind, 2, True)
        full = tr._grads()
        assert set(full) == set(ALL_WEIGHTS)
        mlp = tr._grads(tr._forward(), channel=False)
        channel = tr._grads(tr._forward(), mlp=False)
        assert set(mlp) == set(MLP_WEIGHTS)
        assert set(channel) == {"desired", "interference"}
        for name, g in {**mlp, **channel}.items():
            assert np.array_equal(g, full[name]), name


class TestLoss:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_saturated_classifier_loss_is_finite(self, kind, dtype):
        # Scores of ~1e4 drive the picked probability below the smallest
        # normal number of either precision; the clamp keeps the loss finite.
        tr = _batch_trainer(kind, 3, True, dtype=dtype)
        tr.w3 *= 1e5
        loss = tr.loss()
        assert loss.dtype == dtype
        assert np.all(np.isfinite(loss)) and np.all(loss > 10.0)


class TestParallelParts:
    """The batch trained as parts in threads is bit for bit the batch trained
    whole in one thread."""

    # 7 models: parts of uneven size, and at 7 parts one model per thread.
    @pytest.mark.parametrize("n_parts", [2, 3, 7])
    @pytest.mark.parametrize("update_interference", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_parts_match_whole(self, kind, dtype, update_interference, n_parts):
        whole = _batch_trainer(kind, 7, update_interference, dtype=dtype)
        whole.run_epochs(3)
        parts = _batch_trainer(kind, 7, update_interference, dtype=dtype)
        # Threads hand over the interpreter every microsecond.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            loss = structnet._train_in_parts(parts, 3, n_parts)
        finally:
            sys.setswitchinterval(interval)
        for name in ALL_WEIGHTS:
            assert np.array_equal(getattr(parts, name), getattr(whole, name)), name
        assert np.array_equal(loss, whole.loss())

    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_estimate_same_in_one_and_two_parts(self, monkeypatch, kind):
        y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=8), 26)
        cfg = TrainConfig(epochs=4, iil_kind=kind)
        got = {}
        # 8 subcarriers of 2x2 are 32 models: in 33 parts the first is empty.
        for n_parts in (1, 2, 33):
            monkeypatch.setattr(structnet, "_n_parts", lambda trainer, n=n_parts: n)
            got[n_parts] = estimate_channel_structnet(y_p, x_p, cfg, 27)
        assert np.array_equal(got[1], got[2])
        assert np.array_equal(got[1], got[33])

    def test_part_count(self, monkeypatch):
        monkeypatch.setattr(structnet.os, "sched_getaffinity", lambda pid: set(range(8)))

        def n_parts(n_sc, kind=IilKind.MODULO):
            y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=n_sc), 28)
            seen = []
            monkeypatch.setattr(structnet, "_train_in_parts",
                                lambda trainer, n_epochs, n: seen.append(n) or np.zeros(1))
            estimate_channel_structnet(y_p, x_p, TrainConfig(epochs=1, iil_kind=kind), 29)
            return seen[0]

        # 2x2, 4 samples per model: 16 (model, sample) pairs per subcarrier.
        assert n_parts(64) == 1
        assert n_parts(128) == 2
        assert n_parts(256) == 4
        assert n_parts(8, IilKind.SHIFTING) == 8  # 128 pairs x 343 grid points
        monkeypatch.setattr(structnet.os, "sched_getaffinity", lambda pid: set(range(64)))
        assert n_parts(8, IilKind.SHIFTING) == 32  # work for 42 parts, but 32 models
        monkeypatch.setattr(structnet.os, "sched_getaffinity", lambda pid: {0})
        assert n_parts(256) == 1

    def test_part_count_without_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity count the machine's cores.
        monkeypatch.delattr(structnet.os, "sched_getaffinity")
        trainer = _batch_trainer(IilKind.SHIFTING, 64, True)  # 64 x 4 samples x 27 points
        for cpus, want in ((3, 3), (None, 1)):
            monkeypatch.setattr(structnet.os, "cpu_count", lambda cpus=cpus: cpus)
            assert structnet._n_parts(trainer) == want

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_part_exception_raised_in_caller(self, monkeypatch, failing):
        run_epochs = _BatchTrainer.run_epochs

        def run_or_fail(self, n_epochs, stop=None):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} part failed")
            run_epochs(self, n_epochs, stop)

        monkeypatch.setattr(_BatchTrainer, "run_epochs", run_or_fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} part failed"):
            structnet._train_in_parts(_batch_trainer(IilKind.MODULO, 6, True), 2, 3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("diverging", ["caller", "worker"])
    def test_nonfinite_loss_in_one_part_diverges(self, monkeypatch, diverging):
        loss = _BatchTrainer.loss

        def loss_with_nan(self):
            out = loss(self)
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (diverging == "caller"):
                out[-1] = np.nan
            return out

        monkeypatch.setattr(_BatchTrainer, "loss", loss_with_nan)
        monkeypatch.setattr(structnet, "_n_parts", lambda trainer: 2)
        y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=8), 30)
        with pytest.raises(TrainingDivergenceError):
            estimate_channel_structnet(y_p, x_p, TrainConfig(epochs=2), 31)

    @pytest.mark.parametrize("n_parts,diverging",
                             [(1, "caller"), (2, "caller"), (2, "worker")])
    def test_part_going_nonfinite_stops_within_an_epoch(self, monkeypatch, n_parts,
                                                        diverging):
        # The diverging part's classifier step of epoch 4 (0-based 3) of 50
        # puts a NaN into w3; its channel step carries it into the channel
        # weights.  Each epoch makes two `_grads` calls.  The healthy part
        # stops at the first epoch it starts after that, so it does not
        # train all 50.
        n_epochs, bad_epoch = 50, 3
        grads = _BatchTrainer._grads
        calls = {}

        def grads_with_nan(self, fwd=None, mlp=True, channel=True):
            in_caller = threading.current_thread() is threading.main_thread()
            key = "diverging" if in_caller == (diverging == "caller") else "healthy"
            calls[key] = calls.get(key, 0) + 1
            g = grads(self, fwd, mlp, channel)
            if key == "diverging" and calls[key] == 2 * bad_epoch + 1:
                g["w3"][0, 0, 0] = np.nan
            return g

        monkeypatch.setattr(_BatchTrainer, "_grads", grads_with_nan)
        monkeypatch.setattr(structnet, "_n_parts", lambda trainer: n_parts)
        y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=8), 34)
        for kind in (IilKind.MODULO, IilKind.SHIFTING):
            calls.clear()
            cfg = TrainConfig(epochs=n_epochs, iil_kind=kind)
            with pytest.raises(TrainingDivergenceError, match="epoch 4"):
                estimate_channel_structnet(y_p, x_p, cfg, 35)
            assert calls["diverging"] == 2 * (bad_epoch + 1), kind
            assert calls.get("healthy", 0) < 2 * n_epochs, kind

    def test_cache_cap_checked_for_the_whole_batch(self, monkeypatch):
        # 2x2 at 16 subcarriers: 64 models x 4 samples x 4 reals x 343 grid
        # points in float32; the cap lies between half of that and all of it.
        whole_bytes = 64 * 4 * 4 * 343 * 4
        monkeypatch.setattr(structnet, "CACHE_BYTE_CAP", whole_bytes * 3 // 4)
        monkeypatch.setattr(structnet, "_n_parts", lambda trainer: 2)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or start(self))
        y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=16), 32)
        cfg = TrainConfig(epochs=1, iil_kind=IilKind.SHIFTING)
        with pytest.raises(ResourceLimitError, match="cache"):
            estimate_channel_structnet(y_p, x_p, cfg, 33)
        assert started == []
        monkeypatch.setattr(structnet, "CACHE_BYTE_CAP", whole_bytes)
        estimate_channel_structnet(y_p, x_p, cfg, 33)
        assert len(started) == 1
