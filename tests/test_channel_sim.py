import numpy as np
import pytest

from celab.channel_sim import (
    NoiseSpec,
    PowerDelayProfile,
    add_noise,
    analytic_freq_correlation,
    apply_channel,
    exponential_pdp,
    sample_channel,
    taps_to_freq_response,
)
from celab.errors import InvalidArgumentError
from celab.signal_model import SubframeSpec, build_constellation, generate_transmit_grid


class TestPowerDelayProfile:
    def test_single_tap(self):
        pdp = exponential_pdp(1, 5.0)
        assert np.array_equal(pdp.delays, [0])
        assert pdp.powers[0] == 1.0

    def test_two_taps_half_decay(self):
        # decay chosen so exp(-1/decay) = 0.5 -> powers {1, 0.5} normalized.
        pdp = exponential_pdp(2, 1.0 / np.log(2.0))
        assert np.allclose(pdp.powers, [2 / 3, 1 / 3])

    def test_default_profile_normalized(self):
        pdp = exponential_pdp(8, 3.0)
        assert abs(pdp.powers.sum() - 1.0) < 1e-12
        assert np.all(np.diff(pdp.powers) < 0)

    def test_short_decay_keeps_every_tap(self):
        pdp = exponential_pdp(3, 0.001)
        assert pdp.powers[0] == 1.0
        assert np.all(pdp.powers[1:] == np.finfo(float).tiny)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidArgumentError):
            exponential_pdp(0, 3.0)
        with pytest.raises(InvalidArgumentError):
            exponential_pdp(4, 0.0)
        with pytest.raises(InvalidArgumentError):
            PowerDelayProfile(delays=[0, 0], powers=[0.5, 0.5])
        with pytest.raises(InvalidArgumentError):
            PowerDelayProfile(delays=[0, 1], powers=[0.7, 0.7])


class TestSampleChannel:
    def test_single_tap_is_flat(self):
        spec = SubframeSpec(n_sc=16)
        ch = sample_channel(exponential_pdp(1, 1.0), spec, 0)
        assert np.allclose(ch.freq_response, ch.freq_response[0])

    def test_same_seed_same_channel(self):
        spec = SubframeSpec()
        pdp = exponential_pdp(8, 3.0)
        a = sample_channel(pdp, spec, 5)
        b = sample_channel(pdp, spec, 5)
        assert np.array_equal(a.taps, b.taps)
        assert np.array_equal(a.freq_response, b.freq_response)

    def test_unit_average_power(self):
        # E|H(c)|^2 = sum of tap powers = 1; Monte Carlo via a bulk tap draw
        # through the same DFT mapping.
        pdp = exponential_pdp(8, 3.0)
        rng = np.random.default_rng(6)
        shape = (100, 100, pdp.delays.size)
        scale = np.sqrt(pdp.powers / 2.0)
        taps = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        h = taps_to_freq_response(taps, pdp, 8)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.03)

    def test_dft_consistency(self):
        spec = SubframeSpec(n_sc=32)
        pdp = exponential_pdp(8, 3.0)
        ch = sample_channel(pdp, spec, 9)
        assert np.allclose(
            ch.freq_response, taps_to_freq_response(ch.taps, pdp, spec.n_sc), atol=1e-12
        )

    def test_parseval_energy(self):
        spec = SubframeSpec(n_sc=32)
        pdp = exponential_pdp(8, 3.0)
        ch = sample_channel(pdp, spec, 10)
        freq_energy = np.mean(np.abs(ch.freq_response) ** 2, axis=0)
        tap_energy = np.sum(np.abs(ch.taps) ** 2, axis=-1)
        assert np.allclose(freq_energy, tap_energy, atol=1e-12)

    def test_distinct_seeds_uncorrelated(self):
        spec = SubframeSpec(n_sc=4)
        pdp = exponential_pdp(4, 2.0)
        a = np.array([sample_channel(pdp, spec, 2 * k).taps[0, 0, 0] for k in range(2000)])
        b = np.array([sample_channel(pdp, spec, 2 * k + 1).taps[0, 0, 0] for k in range(2000)])
        corr = np.abs(np.mean(a * b.conj())) / (np.std(a) * np.std(b))
        assert corr <= 0.05

    def test_delay_exceeding_grid(self):
        pdp = PowerDelayProfile(delays=[0, 40], powers=[0.5, 0.5])
        with pytest.raises(InvalidArgumentError):
            sample_channel(pdp, SubframeSpec(n_sc=32), 0)


class TestAnalyticCorrelation:
    def test_flat_channel_fully_correlated(self):
        r = analytic_freq_correlation(exponential_pdp(1, 1.0), 8)
        assert np.allclose(r, np.ones((8, 8)))

    def test_two_tap_hand_value(self):
        # Equal-power taps at delays {0, 1}, n_sc=4:
        # R[0,1] = 0.5*(1 + exp(-j*2*pi*1*(-1)/4)) = 0.5 + 0.5j.
        pdp = PowerDelayProfile(delays=[0, 1], powers=[0.5, 0.5])
        r = analytic_freq_correlation(pdp, 4)
        assert r[0, 1] == pytest.approx(0.5 + 0.5j)
        assert r[1, 0] == pytest.approx(0.5 - 0.5j)

    def test_hermitian_unit_diagonal(self):
        r = analytic_freq_correlation(exponential_pdp(8, 3.0), 64)
        assert np.allclose(r, r.conj().T)
        assert np.allclose(np.diag(r), 1.0)

    def test_matches_sample_covariance(self):
        pdp = exponential_pdp(4, 2.0)
        n_sc = 4
        rng = np.random.default_rng(7)
        shape = (400, 250, pdp.delays.size)
        scale = np.sqrt(pdp.powers / 2.0)
        taps = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        h = taps_to_freq_response(taps, pdp, n_sc).reshape(n_sc, -1)
        emp = (h @ h.conj().T) / h.shape[1]
        assert np.max(np.abs(emp - analytic_freq_correlation(pdp, n_sc))) < 0.02

    @pytest.mark.parametrize("n_sc", [8, 64])
    def test_matches_double_sum(self, n_sc):
        pdp = PowerDelayProfile(delays=[0, 2, 3, 7], powers=[0.4, 0.3, 0.2, 0.1])
        want = np.zeros((n_sc, n_sc), dtype=complex)
        for k in range(n_sc):
            for l in range(n_sc):
                for tau, power in zip(pdp.delays, pdp.powers):
                    want[k, l] += power * np.exp(-2j * np.pi * tau * (k - l) / n_sc)
        got = analytic_freq_correlation(pdp, n_sc)
        assert got.shape == (n_sc, n_sc)
        assert np.max(np.abs(got - want)) < 1e-12


class TestApplyChannel:
    @staticmethod
    def _grid(spec, seed=0):
        return generate_transmit_grid(spec, build_constellation(16), seed)

    def test_noiseless_is_exact_product(self):
        spec = SubframeSpec(n_sc=8)
        grid = self._grid(spec)
        ch = sample_channel(exponential_pdp(4, 2.0), spec, 1)
        y = apply_channel(grid, ch, NoiseSpec(0.0), 0)
        want = np.einsum("crt,cts->crs", ch.freq_response, grid.full)
        assert np.allclose(y, want, atol=1e-14)

    def test_noise_variance(self):
        spec = SubframeSpec(n_sc=64)
        grid = self._grid(spec)
        ch = sample_channel(exponential_pdp(4, 2.0), spec, 2)
        sigma2 = 3.0
        y = apply_channel(grid, ch, NoiseSpec(sigma2), 3)
        clean = apply_channel(grid, ch, NoiseSpec(0.0), 3)
        noise = (y - clean).ravel()
        assert noise.size >= 1000
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(sigma2, rel=0.1)

    def test_noise_added_to_the_product_matches_one_call(self):
        # One product H X serves every noise level: adding each level's noise
        # to it gives apply_channel's Y byte for byte, and leaves it as it was.
        spec = SubframeSpec(n_sc=16)
        grid = self._grid(spec)
        ch = sample_channel(exponential_pdp(4, 2.0), spec, 2)
        clean = apply_channel(grid, ch, NoiseSpec(0.0), None)
        kept = clean.copy()
        for sigma2, seed in ((0.0, 5), (0.5, 5), (3.0, np.random.SeedSequence(9))):
            got = add_noise(clean, NoiseSpec(sigma2), seed)
            assert got.tobytes() == apply_channel(grid, ch, NoiseSpec(sigma2), seed).tobytes()
        assert clean.tobytes() == kept.tobytes()

    def test_shape_mismatch(self):
        spec = SubframeSpec(n_sc=8)
        grid = self._grid(spec)
        ch = sample_channel(exponential_pdp(4, 2.0), SubframeSpec(n_sc=16), 1)
        with pytest.raises(InvalidArgumentError):
            apply_channel(grid, ch, NoiseSpec(0.0), 0)

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NoiseSpec(-1.0)
