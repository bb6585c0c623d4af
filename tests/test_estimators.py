import numpy as np
import pytest

from celab.channel_sim import NoiseSpec, apply_channel, analytic_freq_correlation, exponential_pdp, sample_channel
from celab.errors import InvalidArgumentError, NumericalFailureError
from celab.estimators import (
    EmLmmseState,
    FactoredCorr,
    estimate_em_lmmse,
    estimate_lmmse,
    estimate_ls,
    lmmse_filter,
    update_empirical_correlation,
)
from celab.evaluation import compute_mse, snr_to_noise_var
from celab.signal_model import SubframeSpec, build_constellation, generate_transmit_grid


def _random_channel(rng, n_rx, n_tx):
    return rng.normal(size=(n_rx, n_tx)) + 1j * rng.normal(size=(n_rx, n_tx))


class TestLs:
    def test_scaled_identity_pilots(self):
        rng = np.random.default_rng(0)
        h = _random_channel(rng, 2, 2)
        x_p = 2.0 * np.eye(2, dtype=complex)
        assert np.allclose(estimate_ls(h @ x_p, x_p), h, atol=1e-13)

    def test_random_pilots_exact_inversion(self):
        rng = np.random.default_rng(1)
        h = _random_channel(rng, 3, 2)
        x_p = _random_channel(rng, 2, 4)
        assert np.allclose(estimate_ls(h @ x_p, x_p), h, atol=1e-12)

    def test_stacked_subcarriers(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        x_p = rng.normal(size=(5, 2, 3)) + 1j * rng.normal(size=(5, 2, 3))
        got = estimate_ls(h @ x_p, x_p)
        for c in range(5):
            assert np.allclose(got[c], h[c], atol=1e-10)

    def test_singular_gram_rejected(self):
        x_p = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(NumericalFailureError):
            estimate_ls(np.ones((2, 2), dtype=complex), x_p)

    @pytest.mark.parametrize("cond", [1e11, 1e13])
    def test_guard_at_its_edge(self, cond):
        # Pilots Q diag(1, s) with Q unitary: the Gram matrix has condition
        # number 1/s^2, on either side of the 1e12 limit.
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(_random_channel(rng, 2, 2))
        x_p = q @ np.diag([1.0, cond ** -0.5])
        assert np.linalg.cond(x_p @ x_p.conj().T) == pytest.approx(cond, rel=1e-2)
        h = _random_channel(rng, 2, 2)
        if cond > 1e12:
            with pytest.raises(NumericalFailureError, match="ill-conditioned"):
                estimate_ls(h @ x_p, x_p)
        else:
            assert np.allclose(estimate_ls(h @ x_p, x_p), h, atol=1e-3)

    def test_unbiasedness(self):
        rng = np.random.default_rng(3)
        h = _random_channel(rng, 2, 2)
        x_p = np.array([[3 + 1j, 0], [0, 3 + 1j]], dtype=complex)
        sigma2 = 2.0
        n_trials = 20000
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((n_trials, 2, 2)) + 1j * rng.standard_normal((n_trials, 2, 2))
        )
        est = estimate_ls(h @ x_p + noise, np.broadcast_to(x_p, (n_trials, 2, 2)))
        bias = np.mean(est - h, axis=0)
        stderr = np.sqrt(sigma2 / 10.0 / n_trials)
        assert np.all(np.abs(bias) <= 3 * stderr)


class TestLmmse:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(4)
        r = analytic_freq_correlation(exponential_pdp(4, 2.0), 8)
        h_ls = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.allclose(estimate_lmmse(h_ls, r, 0.0, 10.0), h_ls)

    def test_identity_prior_halves(self):
        rng = np.random.default_rng(5)
        h_ls = rng.normal(size=6) + 1j * rng.normal(size=6)
        # sigma_eff^2 = sigma2/pilot_energy = 1 with identity prior -> h/2.
        assert np.allclose(estimate_lmmse(h_ls, np.eye(6), 10.0, 10.0), h_ls / 2)

    def test_non_hermitian_rejected(self):
        r = np.eye(4, dtype=complex)
        r[0, 1] = 1.0
        with pytest.raises(InvalidArgumentError):
            estimate_lmmse(np.ones(4), r, 1.0, 10.0)

    def test_filter_is_contraction(self):
        rng = np.random.default_rng(6)
        r = analytic_freq_correlation(exponential_pdp(8, 3.0), 32)
        filt = lmmse_filter(r, 0.3)
        for _ in range(10):
            h = rng.normal(size=32) + 1j * rng.normal(size=32)
            assert np.linalg.norm(filt @ h) <= np.linalg.norm(h) * (1 + 1e-9)

    def test_beats_ls_at_every_snr(self):
        spec = SubframeSpec()
        const = build_constellation(16)
        pdp = exponential_pdp(8, 3.0)
        r = analytic_freq_correlation(pdp, spec.n_sc)
        e_s = const.avg_energy
        for snr in (0.0, 10.0, 20.0):
            sigma2 = snr_to_noise_var(snr, const, spec.n_tx)
            filt = lmmse_filter(r, sigma2 / e_s)
            mse_ls = mse_lmmse = 0.0
            for sf in range(100):
                ss = np.random.SeedSequence(entropy=(17, sf, int(snr))).spawn(3)
                h = sample_channel(pdp, spec, ss[0])
                grid = generate_transmit_grid(spec, const, ss[1])
                y = apply_channel(grid, h, NoiseSpec(sigma2), ss[2])
                h_ls = estimate_ls(y[:, :, : spec.n_pilot], grid.pilots)
                h_lm = np.einsum("kl,lrt->krt", filt, h_ls)
                mse_ls += compute_mse(h.freq_response, h_ls)
                mse_lmmse += compute_mse(h.freq_response, h_lm)
            assert mse_lmmse < mse_ls


class TestEmpiricalCorrelation:
    def test_first_update_replaces_identity(self):
        state = EmLmmseState.initial(4)
        e0 = np.zeros(4, dtype=complex)
        e0[0] = 1.0
        state = update_empirical_correlation(state, e0)
        assert np.allclose(state.corr, np.outer(e0, e0))
        assert state.subframes_seen == 1

    def test_window_two_average(self):
        state = EmLmmseState.initial(3, window=2)
        e0 = np.array([1.0, 0, 0], dtype=complex)
        e1 = np.array([0, 1.0, 0], dtype=complex)
        state = update_empirical_correlation(state, e0)
        state = update_empirical_correlation(state, e1)
        assert np.allclose(state.corr, 0.5 * (np.outer(e0, e0) + np.outer(e1, e1)))

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(InvalidArgumentError, match="window"):
            EmLmmseState.initial(4, window=window)
        with pytest.raises(InvalidArgumentError, match="window"):
            EmLmmseState(factored=FactoredCorr.from_dense(np.eye(4)), window=window)

    def test_stays_hermitian_psd(self):
        rng = np.random.default_rng(7)
        state = EmLmmseState.initial(8)
        for _ in range(1000):
            state = update_empirical_correlation(
                state, rng.normal(size=8) + 1j * rng.normal(size=8)
            )
        assert np.allclose(state.corr, state.corr.conj().T)
        assert np.min(np.linalg.eigvalsh(state.corr)) >= -1e-10

    def test_fresh_state_halves(self):
        rng = np.random.default_rng(8)
        h_ls = rng.normal(size=5) + 1j * rng.normal(size=5)
        state = EmLmmseState.initial(5)
        assert np.allclose(estimate_em_lmmse(state, h_ls, 10.0, 10.0), h_ls / 2)

    def test_true_prior_matches_genie(self):
        rng = np.random.default_rng(9)
        r = analytic_freq_correlation(exponential_pdp(4, 2.0), 16)
        h_ls = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = EmLmmseState(factored=FactoredCorr.from_dense(r), subframes_seen=500)
        assert np.allclose(
            estimate_em_lmmse(state, h_ls, 2.0, 10.0), estimate_lmmse(h_ls, r, 2.0, 10.0)
        )

    def test_ls_fed_state_approaches_true_correlation(self):
        # Accumulating unbiased estimates drives corr toward R + sigma_eff^2 I,
        # whose distance to R is far below the identity prior's.
        spec = SubframeSpec(n_sc=16)
        pdp = exponential_pdp(4, 2.0)
        r = analytic_freq_correlation(pdp, spec.n_sc)
        state = EmLmmseState.initial(spec.n_sc)
        d0 = np.linalg.norm(state.corr - r)
        for sf in range(200):
            h = sample_channel(pdp, spec, sf)
            state = update_empirical_correlation(state, h.freq_response[:, 0, 0])
        assert np.linalg.norm(state.corr - r) < 0.5 * d0
