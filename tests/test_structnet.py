import itertools
import mmap
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

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
from celab.evaluation import compute_mse
from celab.signal_model import (
    PilotPattern,
    SubframeSpec,
    build_constellation,
    child_seeds,
    generate_transmit_grid,
    realify_signal,
)
from celab.structnet import (
    IilKind,
    IilOrder,
    StructNetModel,
    TrainConfig,
    _BatchTrainer,
    _binary_samples,
    _columns,
    _complexify,
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


def _model(rng, n_rx=2, n_k=3, n_h1=8, n_h2=8):
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
    )


def _column(h, stream):
    """Realized stream `stream`'s channel column of h (N_r, N_t): [Re; Im] of
    antenna `stream`, or [-Im; Re] of antenna `stream` - N_t."""
    n_tx = h.shape[1]
    col = h[:, stream % n_tx]
    return np.concatenate([col.real, col.imag] if stream < n_tx else [-col.imag, col.real])


def _sorted_columns(h, stream, order):
    """The realified columns of h (N_r, N_t) other than the stream's, in the
    interference order `order`: strongest first, or as given."""
    columns = [_column(h, j) for j in range(2 * h.shape[1]) if j != stream]
    if order is IilOrder.DESCENDING_STRENGTH:
        columns.sort(key=lambda v: -np.sum(v**2))
    return np.stack(columns)


class TestInitModel:
    def test_interference_count_and_order(self):
        rng = np.random.default_rng(0)
        h_ls = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
        desired, interference, _ = _init_stream(_columns(h_ls), 0, TrainConfig(),
                                                np.random.default_rng(1))
        assert desired.shape == (1, 4)
        assert interference.shape == (1, 3, 4)
        want = [_column(h_ls[0], j) for j in (1, 2, 3)]
        want.sort(key=lambda v: -np.sum(v**2))
        assert np.allclose(interference[0], np.stack(want))

    def test_single_antenna_has_one_interferer(self):
        h_ls = np.array([[[1 + 2j]]])
        _, interference, _ = _init_stream(_columns(h_ls), 0, TrainConfig(),
                                          np.random.default_rng(0))
        assert interference.shape == (1, 1, 2)
        assert np.allclose(interference[0, 0], [-2.0, 1.0])

    def test_given_order_preserved(self):
        rng = np.random.default_rng(1)
        h_ls = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
        cfg = TrainConfig(iil_order=IilOrder.GIVEN_ORDER)
        _, interference, _ = _init_stream(_columns(h_ls), 1, cfg, np.random.default_rng(2))
        want = [_column(h_ls[0], j) for j in (0, 2, 3)]
        assert np.allclose(interference[0], np.stack(want))

    def test_same_seed_same_mlp(self):
        h_ls = np.eye(2, dtype=complex)[None]
        _, _, a = _init_stream(_columns(h_ls), 0, TrainConfig(), np.random.default_rng(3))
        _, _, b = _init_stream(_columns(h_ls), 0, TrainConfig(), np.random.default_rng(3))
        assert len(a) == len(b) == 6
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a, b))

    def test_drawn_in_blocks_as_one_draw(self, monkeypatch):
        # Models drawn 3 at a time: each weight holds what one N(0, 0.1)
        # draw of it gives, in the order w1, w2, w3.
        monkeypatch.setattr(structnet, "_BLOCK", 3)
        cfg = TrainConfig(n_h1=5, n_h2=6)
        for n_models in (7, 6, 1, 0):
            rng = np.random.default_rng(38)
            want = [rng.normal(0.0, 0.1, (n_models,) + shape)
                    for shape in ((5, 4), (6, 5), (2, 6))]
            got = _init_mlp(np.random.default_rng(38), n_models, 4, cfg)
            for w, v in zip(got[::2], want):
                assert w.tobytes() == v.tobytes(), n_models
            assert all(b.shape[0] == n_models and not b.any() for b in got[1::2])

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
            desired, interference, _ = _init_stream(_columns(h_ls), stream, cfg,
                                                    np.random.default_rng(0))
            for k in range(4):
                want = _column(h_ls[k], stream)
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
        # Values, integer dtype and row order: the order sets the shifting
        # layer's summation order.
        for k in range(5):
            for m in (1, 2, 3):
                g = shift_grid(k, m)
                want = np.array(list(itertools.product(range(-m, m + 1), repeat=k)), dtype=int)
                assert g.dtype.kind == "i" and g.shape == want.shape
                assert np.array_equal(g, want)

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
        desired, interference, mlp = _init_stream(_columns(np.array([[[h]]])), 0, cfg,
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
        # A zero, NaN or infinite probability leaves a ratio undefined.
        for probs in [(0.0, 1.0), (np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (0.5, -np.inf)]:
            with pytest.raises(DegenerateRatioError):
                detect_multinomial(model, np.zeros(4), posterior=lambda z, probs=probs: probs)

    @pytest.mark.parametrize("cfg", [None, TrainConfig(iil_kind=IilKind.SHIFTING)],
                             ids=["modulo", "shifting"])
    def test_chain_over_model_forward(self, cfg):
        # Without a posterior the chain runs on model_forward's, with the
        # default IIL; the shifting IIL is passed in as a posterior.
        rng = np.random.default_rng(14)
        model, y = _model(rng), rng.normal(size=4)

        def posterior(z):
            return model_forward(model, z, 0.0, cfg)

        p = detect_multinomial(model, y) if cfg is None else detect_multinomial(model, y, posterior)
        q1, q2, q3 = (q[0] / q[1] for q in (posterior(y + shift * model.desired)
                                             for shift in (2.0, 0.0, -2.0)))
        want = np.array([q1 * q2 * q3, q2 * q3, q3, 1.0])
        assert np.array_equal(p, want / want.sum())
        assert p.sum() == pytest.approx(1.0)
        if cfg is not None:
            assert not np.array_equal(p, detect_multinomial(model, y))


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

    def test_float32_change_agrees_with_float64(self):
        # The learner trains in float32 around the float64 LS anchor; its
        # change from LS must follow the same training run in float64, from
        # float64 start values.
        spec = SubframeSpec(n_sc=16)
        const = build_constellation(16)
        ss = np.random.SeedSequence(14).spawn(3)
        h = sample_channel(exponential_pdp(8, 3.0), spec, ss[0])
        grid = generate_transmit_grid(spec, const, ss[1])
        y_p = apply_channel(grid, h, NoiseSpec(2.0), ss[2])[:, :, : spec.n_pilot]
        h_ls = estimate_ls(y_p, grid.pilots)
        cfg = TrainConfig(epochs=200)
        delta32 = estimate_channel_structnet(y_p, grid.pilots, cfg, 5) - h_ls

        labels, anchor, interference, mlp, lam, y = self._stacked_streams(
            y_p, grid.pilots, cfg, 5)
        reference = _BatchTrainer(np.zeros_like(anchor), interference, mlp, labels, lam, y, cfg)
        reference.run_epochs(cfg.epochs)
        delta64 = _complexify(reference.desired.reshape(2 * spec.n_tx, spec.n_sc, -1))
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
        p = model_forward(_model(rng), rng.normal(size=(3, 4)), 1.0,
                          TrainConfig(iil_kind=IilKind.SHIFTING))
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

    @staticmethod
    def _captured_batch(monkeypatch, y_p, x_p, cfg, seed):
        """The batch `estimate_channel_structnet` hands to its parts, untrained."""
        batches = []
        monkeypatch.setattr(structnet, "_train_in_parts",
                            lambda batch, n_parts: batches.append(batch) or 0.0)
        estimate_channel_structnet(y_p, x_p, cfg, seed)
        (batch,) = batches
        return batch

    @staticmethod
    def _stacked_streams(y_p, x_p, cfg, seed):
        """The batch as it was composed before it was built in place, in
        float64: each stream initialized whole, the streams concatenated and
        the channel layer's input formed on the batch.  Returns (labels,
        anchor, interference, MLP weights, lam, channel-layer input)."""
        n_tx = x_p.shape[1]
        h_ls = estimate_ls(y_p, x_p)
        active = np.any(x_p != 0, axis=0)
        streams = []
        for i, stream_seed in enumerate(child_seeds(seed, 2 * n_tx)):
            slots = np.flatnonzero(active[i % n_tx])
            x = x_p[:, i % n_tx, slots]
            y_real = realify_signal(np.transpose(y_p[:, :, slots], (0, 2, 1)))
            labels, lam, samples = _binary_samples(x.real if i < n_tx else x.imag, y_real)
            desired, interference, mlp = _init_stream(_columns(h_ls), i, cfg,
                                                      np.random.default_rng(stream_seed))
            streams.append((desired, interference, *mlp, lam, samples))
        anchor, interference, *mlp, lam, y = (np.concatenate(a) for a in zip(*streams))
        return labels, anchor, interference, mlp, lam, structnet._channel_layer(y, lam, anchor)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("pattern", list(PilotPattern))
    @pytest.mark.parametrize("order", list(IilOrder))
    @pytest.mark.parametrize("n_tx", [1, 2])
    def test_batch_built_in_place_is_the_stacked_streams(self, monkeypatch, n_tx, order,
                                                         pattern, extra):
        # The batch built in place is the stacked streams cast to float32.
        # With an extra orthogonal pilot slot, slot n_tx is silent for every
        # antenna, so each stream takes its samples from a subset of the slots.
        spec = SubframeSpec(n_sc=8, n_tx=n_tx, n_pilot=n_tx + extra, pilot_pattern=pattern)
        y_p, x_p = self._pilots(spec, 42)
        cfg = TrainConfig(epochs=1, iil_order=order)
        batch = self._captured_batch(monkeypatch, y_p, x_p, cfg, 43)
        got = batch.rows(0, batch.n_streams)
        labels, anchor, interference, mlp, lam, y = self._stacked_streams(y_p, x_p, cfg, 43)
        want = _BatchTrainer(np.zeros_like(anchor), interference, mlp, labels, lam, y, cfg,
                             dtype=np.float32)
        for name in structnet._PER_MODEL + ("labels",):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert np.array_equal(_columns(batch.h_ls).reshape(anchor.shape), anchor)

    def test_one_column_table_per_part(self, monkeypatch):
        # Every stream of a part is initialized from one table of the LS
        # estimate's stream columns, built once for the part.
        batch = _learner_batch()
        calls = []
        monkeypatch.setattr(structnet, "_columns",
                            lambda h, f=structnet._columns: calls.append(1) or f(h))
        batch.rows(1, 4)
        assert len(calls) == 1

    @pytest.mark.parametrize("block", [3, 256])
    def test_part_rows_are_the_stacked_streams_rows(self, monkeypatch, block):
        # 2x2 at 8 subcarriers: 4 streams of 8 models, in ranges of one and
        # two streams.  At block 3 the MLP draws are cut inside streams.
        monkeypatch.setattr(structnet, "_BLOCK", block)
        y_p, x_p = self._pilots(SubframeSpec(n_sc=8), 46)
        cfg = TrainConfig(epochs=1)
        batch = self._captured_batch(monkeypatch, y_p, x_p, cfg, 47)
        labels, anchor, interference, mlp, lam, y = self._stacked_streams(y_p, x_p, cfg, 47)
        want = _BatchTrainer(np.zeros_like(anchor), interference, mlp, labels, lam, y, cfg,
                             dtype=np.float32)
        for first, last in ((0, 1), (1, 3), (3, 4)):
            got = batch.rows(first, last)
            for name in structnet._PER_MODEL:
                a, b = getattr(got, name), getattr(want, name)[8 * first:8 * last]
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (first, name)
                assert a.tobytes() == b.tobytes(), (first, name)
            assert got.labels.tobytes() == want.labels.tobytes()

    def test_batch_built_without_float64_staging(self, monkeypatch):
        # 2x2 at 256 subcarriers: 1024 models.  Built in place, the batch
        # takes the float32 trainer's bytes and at most one float64 weight
        # draw besides; a float64 copy of the batch alone takes twice those.
        import tracemalloc

        y_p, x_p = self._pilots(SubframeSpec(n_sc=256), 44)
        tracemalloc.start()
        try:
            batch = self._captured_batch(monkeypatch, y_p, x_p, TrainConfig(epochs=1), 45)
            trainer = batch.rows(0, batch.n_streams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trainer.w1.shape[0] == 1024
        trainer_bytes = sum(getattr(trainer, name).nbytes for name in structnet._PER_MODEL)
        assert peak < 2 * trainer_bytes

    def test_caller_holds_only_its_own_part(self, monkeypatch):
        # 2x2 at 256 subcarriers in two parts of two streams, 512 models.  The caller
        # builds and trains only its part, a block at a time, and receives
        # the other part's desired weights alone: its peak read 2.4 times its
        # part's bytes.  Holding the whole batch and a pickled copy of the
        # worker's part besides read 4.7 times.
        import tracemalloc

        structnet._close_workers()  # forked below, after the patch
        monkeypatch.setattr(structnet, "_n_parts", lambda batch: 2)
        y_p, x_p = self._pilots(SubframeSpec(n_sc=256), 48)
        cfg = TrainConfig(epochs=2)
        try:
            estimate_channel_structnet(y_p, x_p, cfg, 49)  # forks the worker untraced
            tracemalloc.start()
            try:
                estimate_channel_structnet(y_p, x_p, cfg, 49)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            structnet._close_workers()
        batch = self._captured_batch(monkeypatch, y_p, x_p, cfg, 49)
        part = batch.rows(0, batch.n_streams // 2)
        part_bytes = sum(getattr(part, name).nbytes for name in structnet._PER_MODEL)
        assert peak < 3 * part_bytes


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


def _batch_trainer(kind, n_batch, update_interference, seed=19, dtype=np.float64,
                   n_h1=8, n_h2=8):
    """A fresh trainer with its own arrays; equal seeds give equal trainers."""
    rng = np.random.default_rng(seed)
    d, n_k, n_samples = 4, 3, 4
    cfg = TrainConfig(iil_kind=kind, iil_window=1, lr_classifier=0.05, lr_channel=0.05,
                      update_interference=update_interference)
    interference = (rng.uniform(0.3, 1.5, (n_batch, n_k, d))
                    * rng.choice([-1, 1], (n_batch, n_k, d)))
    mlp = (
        rng.normal(0, 0.3, (n_batch, n_h1, d)), rng.normal(0, 0.1, (n_batch, n_h1)),
        rng.normal(0, 0.3, (n_batch, n_h2, n_h1)), rng.normal(0, 0.1, (n_batch, n_h2)),
        rng.normal(0, 0.3, (n_batch, 2, n_h2)), rng.normal(0, 0.1, (n_batch, 2)),
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


def _reference_mlp(tr, z):
    """The MLP forward with every weight taken as a `swapaxes` view."""
    a1 = np.tanh(z @ tr.w1.swapaxes(1, 2) + tr.b1[:, None, :])
    a2 = np.tanh(a1 @ tr.w2.swapaxes(1, 2) + tr.b2[:, None, :])
    return a1, a2, _softmax(a2 @ tr.w3.swapaxes(1, 2) + tr.b3[:, None, :])


class TestSharedForward:
    """`run_epochs` shares one forward per epoch and must match the reference
    alternation bit for bit, and its MLP forward the one on `swapaxes` views."""

    @staticmethod
    def _assert_same_weights(kind, n_batch, update_interference, n_epochs=3, edit=None,
                             **kw):
        fast, ref, start = (_batch_trainer(kind, n_batch, update_interference, **kw)
                            for _ in range(3))
        for tr in (fast, ref, start):
            if edit is not None:
                edit(tr)
        fast.run_epochs(n_epochs)
        _reference_epochs(ref, n_epochs)
        for name in ALL_WEIGHTS:
            assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
        assert not np.array_equal(fast.desired, start.desired)
        moved = not np.array_equal(fast.interference, start.interference)
        assert moved is update_interference
        z, _ = fast._forward()
        for got, want in zip(fast._mlp_forward(z), _reference_mlp(fast, z)):
            assert np.array_equal(got, want)
        return fast

    # The last input is the learner's own shape, where OpenBLAS's kernel
    # choice depends on the operands' layout: float32, 16 and 32 hidden
    # units, 4 samples of 4 reals, 128 models.
    @pytest.mark.parametrize("update_interference", [True, False])
    @pytest.mark.parametrize("n_batch,shape", [
        pytest.param(1, {}, id="1"), pytest.param(3, {}, id="3"),
        pytest.param(128, dict(dtype=np.float32, n_h1=16, n_h2=32), id="128-float32")])
    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_matches_two_full_grads(self, kind, n_batch, shape, update_interference):
        self._assert_same_weights(kind, n_batch, update_interference, **shape)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_modulo_entry_under_training(self, dtype):
        # One entry below EPS_MOD; every other is at least 0.3 in magnitude.
        def mask_one(tr):
            tr.interference[1, 2, 3] = 1e-9

        tr = self._assert_same_weights(IilKind.MODULO, 3, True, n_epochs=5, edit=mask_one,
                                       dtype=dtype)
        assert tr.interference[1, 2, 3] == dtype(1e-9)  # a zero quotient: no gradient
        _, alphas = tr._forward()
        assert np.all(alphas[2, 1, :, 3] == 0.0) and not np.any(np.signbit(alphas[2, 1, :, 3]))

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


class TestGradientBuffers:
    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_bound_only_while_run_epochs_runs(self, kind):
        tr = _batch_trainer(kind, 3, True)
        tr.run_epochs(2)
        assert tr._g is None and tr._wt is None
        # Outside `run_epochs`, each call returns new arrays.
        first, second = tr._grads(), tr._grads()
        assert not any(np.shares_memory(first[name], second[name]) for name in ALL_WEIGHTS)
        tr.desired[0, 0] = np.nan
        with pytest.raises(TrainingDivergenceError, match="epoch 1$"):
            tr.run_epochs(2)
        assert tr._g is None and tr._wt is None


class TestBlocks:
    """`run_epochs` trains `_BLOCK` models at a time: at block 3, a 7-model
    batch trains as blocks of 3, 3 and 1 models."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_blocks_match_the_reference(self, monkeypatch, kind, dtype):
        monkeypatch.setattr(structnet, "_BLOCK", 3)
        blocks = []  # (models, gradient rows, w2 copy rows) at each classifier step
        grads = _BatchTrainer._grads

        def record(self, fwd=None, mlp=True, channel=True):
            if mlp and self._g is not None:
                blocks.append((self.y.shape[0], self._g["w1"].shape[0], self._wt[1].shape[0]))
            return grads(self, fwd, mlp, channel)

        monkeypatch.setattr(_BatchTrainer, "_grads", record)
        fast = _batch_trainer(kind, 7, True, dtype=dtype)
        fast.run_epochs(3)
        monkeypatch.setattr(_BatchTrainer, "_grads", grads)
        ref = _batch_trainer(kind, 7, True, dtype=dtype)
        _reference_epochs(ref, 3)
        for name in ALL_WEIGHTS:
            assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
        assert blocks == [(3, 3, 3)] * 3 + [(3, 3, 3)] * 3 + [(1, 1, 1)] * 3
        assert fast._g is None and fast._wt is None

    def test_divergence_in_a_later_block(self, monkeypatch):
        # A NaN in model 4, in the second block: the first block has trained
        # all its epochs when the second raises in its first; the third has
        # not started.
        monkeypatch.setattr(structnet, "_BLOCK", 3)
        start = _batch_trainer(IilKind.MODULO, 7, True)
        ref = _batch_trainer(IilKind.MODULO, 7, True)
        _reference_epochs(ref, 4)
        tr = _batch_trainer(IilKind.MODULO, 7, True)
        tr.desired[4, 0] = np.nan
        with pytest.raises(TrainingDivergenceError, match="epoch 1$"):
            tr.run_epochs(4)
        for name in ALL_WEIGHTS:
            assert np.array_equal(getattr(tr, name)[:3], getattr(ref, name)[:3]), name
            assert np.array_equal(getattr(tr, name)[6:], getattr(start, name)[6:]), name
        assert tr._g is None and tr._wt is None


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


# An estimate split in four parts, three in workers, in a fresh interpreter,
# which prints the workers' pids and then exits or, with the argument "wait",
# sleeps.  At exit it prints the pids of the workers that still exist, from
# an exit hook that runs after the lab's.
_SPLIT_ESTIMATE = """
import atexit, os, sys, time
pids = []
atexit.register(lambda: print(*[p for p in pids if os.path.exists(f"/proc/{p}")], flush=True))
import numpy as np
from celab import structnet
from celab.channel_sim import NoiseSpec, apply_channel, exponential_pdp, sample_channel
from celab.signal_model import SubframeSpec, build_constellation, generate_transmit_grid
spec = SubframeSpec(n_sc=8)
ss = np.random.SeedSequence(40).spawn(3)
grid = generate_transmit_grid(spec, build_constellation(16), ss[1])
y = apply_channel(grid, sample_channel(exponential_pdp(4, 2.0), spec, ss[0]), NoiseSpec(1.0), ss[2])
structnet._n_parts = lambda batch: 4
structnet.estimate_channel_structnet(y[:, :, :spec.n_pilot], grid.pilots,
                                     structnet.TrainConfig(epochs=2), 41)
pids += [pid for pid, _ in structnet._WORKERS.procs]
print(*pids, flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
"""


def _split_estimate(mode: str) -> list:
    return [sys.executable, "-c", _SPLIT_ESTIMATE, mode]


def _env() -> dict:
    src = str(Path(structnet.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _alive(pid: int) -> bool:
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@dataclass
class _TrainerBatch:
    """A stand-in for a learner batch (`structnet._Batch`) over the models of
    `_batch_trainer(kind, 7, update_interference, dtype=dtype)`, each model a
    stream of its own: `train` trains rows [first, last) of that trainer for
    3 epochs."""

    kind: IilKind
    update_interference: bool
    dtype: type
    n_streams: int = 7

    def train(self, first, last, stop=None):
        part = _batch_trainer(self.kind, self.n_streams, self.update_interference,
                              dtype=self.dtype).part(first, last)
        part.run_epochs(3, stop)
        return part.desired


def _learner_batch(n_sc=2, kind=IilKind.MODULO, epochs=3, update_interference=True,
                   seed=50):
    """The learner's batch of a 2x2 subframe, 4 streams of n_sc models, with
    the rates of `_batch_trainer`, so a few epochs move the weights."""
    spec = SubframeSpec(n_sc=n_sc)
    ss = np.random.SeedSequence(seed).spawn(3)
    grid = generate_transmit_grid(spec, build_constellation(16), ss[1])
    h = sample_channel(exponential_pdp(2, 1.0), spec, ss[0])  # delays below n_sc = 2
    y_p, x_p = apply_channel(grid, h, NoiseSpec(1.0), ss[2])[:, :, :spec.n_pilot], grid.pilots
    cfg = TrainConfig(epochs=epochs, iil_kind=kind, lr_classifier=0.05, lr_channel=0.05,
                      update_interference=update_interference)
    return structnet._Batch(y_p, x_p, estimate_ls(y_p, x_p), cfg, child_seeds(seed + 1, 4))


def _shared_counts(n: int) -> np.ndarray:
    """n int64 counters in shared memory: a worker forked after this call
    adds to the caller's counts."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.int64)


class TestParallelParts:
    """The batch trained as parts in worker processes is bit for bit the
    batch trained whole in the caller.  A worker returns only its desired
    weights; `TestBlocks` compares every weight of parts trained in process."""

    @pytest.fixture(autouse=True)
    def fresh_workers(self):
        # Workers are forked at the first split call, so the test's
        # monkeypatches reach them; ended after the test, they do not outlive
        # the patches.
        structnet._close_workers()
        yield
        structnet._close_workers()

    # 7 models: parts of uneven size, and at 7 parts one model per part.
    @pytest.mark.parametrize("n_parts", [2, 3, 7])
    @pytest.mark.parametrize("update_interference", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_parts_match_whole(self, kind, dtype, update_interference, n_parts):
        whole = _batch_trainer(kind, 7, update_interference, dtype=dtype)
        whole.run_epochs(3)
        parts = structnet._train_in_parts(
            _TrainerBatch(kind, update_interference, dtype), n_parts)
        assert parts.dtype == whole.desired.dtype
        assert parts.tobytes() == whole.desired.tobytes()

    # 8 models in 4 streams of 2: at 7 parts one stream or none per part, in
    # six workers, more than a 2-core machine has cores.
    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_more_workers_than_cores(self, monkeypatch, kind):
        batch = _learner_batch(kind=kind)
        whole = batch.train(0, batch.n_streams)
        for _ in range(2):  # the second call reuses the six workers
            assert structnet._train_in_parts(batch, 7).tobytes() == whole.tobytes()
            assert len(structnet._WORKERS.procs) == 6  # one per part after the first

    @pytest.mark.parametrize("kind", [IilKind.MODULO, IilKind.SHIFTING])
    def test_estimate_same_in_one_and_two_parts(self, monkeypatch, kind):
        # Every part count from 1 to 2*N_t: at N_t = 2, 3 parts split 4
        # streams unevenly.  The 3x3 shifting layer takes a 3^5-point grid.
        for n_tx in (1, 2, 3):
            spec = SubframeSpec(n_sc=8, n_tx=n_tx, n_pilot=n_tx)
            y_p, x_p = TestEstimateChannel._pilots(spec, 26)
            cfg = TrainConfig(epochs=4, iil_kind=kind, iil_window=1 if n_tx == 3 else 3)
            got = {}
            for n_parts in range(1, 2 * n_tx + 1):
                monkeypatch.setattr(structnet, "_n_parts", lambda batch, n=n_parts: n)
                got[n_parts] = estimate_channel_structnet(y_p, x_p, cfg, 27)
            for n_parts in range(2, 2 * n_tx + 1):
                assert got[n_parts].tobytes() == got[1].tobytes(), (n_tx, n_parts)

    def test_part_count(self, monkeypatch):
        def n_parts(cores, n_tx=2, epochs=200, kind=IilKind.MODULO):
            monkeypatch.setattr(structnet.os, "sched_getaffinity",
                                lambda pid: set(range(cores)))
            spec = SubframeSpec(n_sc=16, n_tx=n_tx, n_pilot=n_tx)
            y_p, x_p = TestEstimateChannel._pilots(spec, 28)
            seen = []
            monkeypatch.setattr(structnet, "_train_in_parts",
                                lambda batch, n: seen.append(n) or 0.0)
            estimate_channel_structnet(y_p, x_p, TrainConfig(epochs=epochs, iil_kind=kind), 29)
            return seen[0]

        # One part per core, at most one per realized stream (2*N_t), for any
        # amount of work.
        assert n_parts(8) == 4
        assert n_parts(8, epochs=1, kind=IilKind.SHIFTING) == 4
        assert n_parts(8, n_tx=1) == 2
        assert n_parts(8, n_tx=3) == 6
        assert n_parts(2) == 2
        assert n_parts(2, epochs=1) == 2
        assert n_parts(1) == 1
        monkeypatch.delattr(structnet.os, "fork")
        assert n_parts(8) == 1

    def test_part_count_without_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity count the machine's cores.
        monkeypatch.delattr(structnet.os, "sched_getaffinity")
        batch = _learner_batch(n_sc=16)  # 4 streams
        for cpus, want in ((3, 3), (None, 1), (8, 4)):
            monkeypatch.setattr(structnet.os, "cpu_count", lambda cpus=cpus: cpus)
            assert structnet._n_parts(batch) == want

    def test_one_part_without_fork(self, monkeypatch):
        monkeypatch.setattr(structnet.os, "sched_getaffinity", lambda pid: set(range(2)))
        batch = _learner_batch(n_sc=16, epochs=200)
        assert structnet._n_parts(batch) == 2
        monkeypatch.delattr(structnet.os, "fork")
        assert structnet._n_parts(batch) == 1
        y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=8), 26)
        cfg = TrainConfig(epochs=4, iil_kind=IilKind.SHIFTING)
        estimate_channel_structnet(y_p, x_p, cfg, 27)
        assert structnet._WORKERS.procs == []

    # With both failing, the caller's part's exception is the one raised.
    @pytest.mark.parametrize("failing", ["caller", "worker", "both"])
    def test_part_exception_raised_in_caller(self, monkeypatch, failing):
        run_epochs = _BatchTrainer.run_epochs
        caller = os.getpid()
        fail = _shared_counts(1)
        fail[0] = 1

        def run_or_fail(self, n_epochs, stop=None):
            where = "caller" if os.getpid() == caller else "worker"
            if fail[0] and failing in (where, "both"):
                raise RuntimeError(f"{where} part failed")
            run_epochs(self, n_epochs, stop)

        monkeypatch.setattr(_BatchTrainer, "run_epochs", run_or_fail)
        raised = "caller" if failing == "both" else failing
        with pytest.raises(RuntimeError, match=f"^{raised} part failed$"):
            structnet._train_in_parts(_learner_batch(epochs=2), 3)
        # The workers outlive a part's exception and train the next batch.
        workers = list(structnet._WORKERS.procs)
        fail[0] = 0
        structnet._train_in_parts(_learner_batch(epochs=2), 3)
        assert structnet._WORKERS.procs == workers

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("weight", ["w1", "w2", "w3"])
    def test_nonfinite_mlp_weight_in_last_epoch_diverges(self, monkeypatch, weight, value):
        # The worker part's classifier step of the last epoch makes one MLP
        # weight non-finite; that epoch's channel step carries it into the
        # channel weights (NaN, or 0 * inf where tanh saturates).
        n_epochs = 3
        grads = _BatchTrainer._grads
        caller = os.getpid()
        calls = _shared_counts(1)

        def grads_with_value(self, fwd=None, mlp=True, channel=True):
            g = grads(self, fwd, mlp, channel)
            if os.getpid() != caller:
                calls[0] += 1
                if calls[0] == 2 * n_epochs - 1:
                    g[weight][0, 0, 0] = value
            return g

        monkeypatch.setattr(_BatchTrainer, "_grads", grads_with_value)
        monkeypatch.setattr(structnet, "_n_parts", lambda batch: 2)
        y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=8), 30)
        with pytest.raises(TrainingDivergenceError, match=f"epoch {n_epochs}$"):
            estimate_channel_structnet(y_p, x_p, TrainConfig(epochs=n_epochs), 31)
        assert calls[0] == 2 * n_epochs

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
        caller = os.getpid()
        calls = _shared_counts(2)  # diverging, healthy

        def grads_with_nan(self, fwd=None, mlp=True, channel=True):
            key = 0 if (os.getpid() == caller) == (diverging == "caller") else 1
            calls[key] += 1
            g = grads(self, fwd, mlp, channel)
            if key == 0 and calls[key] == 2 * bad_epoch + 1:
                g["w3"][0, 0, 0] = np.nan
            return g

        monkeypatch.setattr(_BatchTrainer, "_grads", grads_with_nan)
        monkeypatch.setattr(structnet, "_n_parts", lambda batch: n_parts)
        y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=8), 34)
        for kind in (IilKind.MODULO, IilKind.SHIFTING):
            calls[:] = 0
            cfg = TrainConfig(epochs=n_epochs, iil_kind=kind)
            with pytest.raises(TrainingDivergenceError, match="epoch 4"):
                estimate_channel_structnet(y_p, x_p, cfg, 35)
            assert calls[0] == 2 * (bad_epoch + 1), kind
            assert calls[1] < 2 * n_epochs, kind

    def test_cache_cap_checked_for_the_whole_batch(self, monkeypatch):
        # 2x2 at 16 subcarriers: 64 models x 4 samples x 4 reals x 343 grid
        # points in float32; the cap lies between half of that and all of it.
        whole_bytes = 64 * 4 * 4 * 343 * 4
        monkeypatch.setattr(structnet, "CACHE_BYTE_CAP", whole_bytes * 3 // 4)
        monkeypatch.setattr(structnet, "_n_parts", lambda batch: 2)
        y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=16), 32)
        cfg = TrainConfig(epochs=1, iil_kind=IilKind.SHIFTING)
        with pytest.raises(ResourceLimitError, match="cache"):
            estimate_channel_structnet(y_p, x_p, cfg, 33)
        assert structnet._WORKERS.procs == []
        monkeypatch.setattr(structnet, "CACHE_BYTE_CAP", whole_bytes)
        estimate_channel_structnet(y_p, x_p, cfg, 33)
        assert len(structnet._WORKERS.procs) == 1

    def test_workers_persist_across_a_larger_batch(self, monkeypatch):
        monkeypatch.setattr(structnet, "_n_parts", lambda batch: 2)
        pids = []
        for n_sc in (8, 64):  # the second batch's part holds 8 times the first's models
            y_p, x_p = TestEstimateChannel._pilots(SubframeSpec(n_sc=n_sc), 36)
            estimate_channel_structnet(y_p, x_p, TrainConfig(epochs=1), 37)
            pids.append([pid for pid, _ in structnet._WORKERS.procs])
        assert len(pids[0]) == 1 and pids[1] == pids[0]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
    def test_closed_workers_leave_no_descriptor_open(self):
        before = sorted(os.listdir("/proc/self/fd"))
        structnet._train_in_parts(_learner_batch(epochs=1), 3)
        assert len(structnet._WORKERS.procs) == 2
        structnet._close_workers()
        assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_end_with_their_caller(self):
        proc = subprocess.run(_split_estimate("exit"), capture_output=True, text=True,
                              env=_env(), timeout=120, check=True)
        pids, left_at_exit = proc.stdout.split("\n")[:2]
        assert len(pids.split()) == 3
        assert left_at_exit == ""  # ended and waited for before the interpreter exits

    def test_forked_child_has_workers_of_its_own(self):
        structnet._train_in_parts(_learner_batch(epochs=1), 2)
        workers = list(structnet._WORKERS.procs)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                inherited = list(structnet._WORKERS.procs)
                structnet._train_in_parts(_learner_batch(epochs=1), 2)
                own = [pid for pid, _ in structnet._WORKERS.procs]
                structnet._close_workers()
                status = 0 if inherited == [] and len(own) == 1 else 2
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        assert structnet._WORKERS.procs == workers
        structnet._train_in_parts(_learner_batch(epochs=1), 2)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_end_when_their_caller_is_killed(self):
        proc = subprocess.Popen(_split_estimate("wait"), stdout=subprocess.PIPE, text=True,
                                env=_env())
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        assert len(pids) == 3
        deadline = time.monotonic() + 10.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))
