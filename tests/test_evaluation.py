import numpy as np
import pytest

from celab.channel_sim import NoiseSpec, apply_channel, exponential_pdp, sample_channel
from celab.errors import InvalidArgumentError, NumericalFailureError
from celab.evaluation import compute_ber, compute_mse, equalize_lmmse, snr_to_noise_var
from celab.signal_model import SubframeSpec, build_constellation, generate_transmit_grid


class TestSnrConversion:
    def test_formula_values(self):
        c = build_constellation(16)
        assert snr_to_noise_var(0.0, c, 2) == pytest.approx(20.0)
        assert snr_to_noise_var(10.0, c, 2) == pytest.approx(2.0)

    def test_infinite_snr(self):
        c = build_constellation(16)
        assert snr_to_noise_var(np.inf, c, 2) == 0.0
        with pytest.raises(InvalidArgumentError, match="-inf"):
            snr_to_noise_var(-np.inf, c, 2)

    def test_empirical_receive_snr(self):
        spec = SubframeSpec(n_sc=64)
        const = build_constellation(16)
        pdp = exponential_pdp(8, 3.0)
        target_db = 10.0
        sigma2 = snr_to_noise_var(target_db, const, spec.n_tx)
        sig_power = noise_power = 0.0
        for sf in range(50):
            ss = np.random.SeedSequence(entropy=(3, sf)).spawn(3)
            h = sample_channel(pdp, spec, ss[0])
            grid = generate_transmit_grid(spec, const, ss[1])
            clean = apply_channel(grid, h, NoiseSpec(0.0), 0)
            noisy = apply_channel(grid, h, NoiseSpec(sigma2), ss[2])
            sig_power += np.mean(np.abs(clean) ** 2)
            noise_power += np.mean(np.abs(noisy - clean) ** 2)
        measured_db = 10 * np.log10(sig_power / noise_power)
        assert abs(measured_db - target_db) <= 0.3


class TestEqualizer:
    def test_zero_noise_inverts(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        got = equalize_lmmse(h @ x, h, 0.0, 10.0)
        assert np.allclose(got, x, atol=1e-10)

    def test_identity_channel_shrinkage(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        got = equalize_lmmse(y, np.eye(2, dtype=complex), 10.0, 10.0)
        assert np.allclose(got, y / 2)

    def test_error_shrinks_with_noise_floor(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        y = h @ x
        errs = [
            np.linalg.norm(equalize_lmmse(y, h, s2, 10.0) - x)
            for s2 in (1e-2, 1e-4, 1e-6)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_singular_channel_rejected(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(NumericalFailureError):
            equalize_lmmse(np.ones((2, 3), dtype=complex), h, 0.0, 10.0)

    @pytest.mark.parametrize("cond", [1e11, 1e13])
    def test_guard_at_its_edge(self, cond):
        # A rank-one channel U diag(1, 0) V^H regularized by r = sigma^2/E_s:
        # the system V diag(1 + r, r) V^H has condition number (1 + r)/r, on
        # either side of the 1e12 limit.
        rng = np.random.default_rng(5)
        u, v = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                for _ in range(2))
        h = u @ np.diag([1.0, 0.0]) @ v.conj().T
        sigma2, sym_energy = 10.0 / (cond - 1.0), 10.0
        a = h.conj().T @ h + (sigma2 / sym_energy) * np.eye(2)
        assert np.linalg.cond(a) == pytest.approx(cond, rel=1e-2)
        y = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        if cond > 1e12:
            with pytest.raises(NumericalFailureError, match="ill-conditioned"):
                equalize_lmmse(y, h, sigma2, sym_energy)
        else:
            assert np.all(np.isfinite(equalize_lmmse(y, h, sigma2, sym_energy)))

    def test_negative_noise_variance_rejected(self):
        with pytest.raises(InvalidArgumentError, match="noise variance"):
            equalize_lmmse(np.ones((2, 3), dtype=complex), np.eye(2, dtype=complex), -5.0, 10.0)

    @pytest.mark.parametrize("n_tx", [1, 2, 3, 4])
    @pytest.mark.parametrize("stack", [(), (16,)], ids=["one", "stack"])
    def test_matches_solve(self, n_tx, stack):
        rng = np.random.default_rng(n_tx)
        for n_rx in range(n_tx, 5):
            h = rng.normal(size=(*stack, n_rx, n_tx)) + 1j * rng.normal(size=(*stack, n_rx, n_tx))
            y = rng.normal(size=(*stack, n_rx, 7)) + 1j * rng.normal(size=(*stack, n_rx, 7))
            hh = np.conj(np.swapaxes(h, -1, -2))
            want = np.linalg.solve(hh @ h + 0.1 * np.eye(n_tx), hh @ y)
            got = equalize_lmmse(y, h, 1.0, 10.0)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_noise_variance_per_stack_entry(self):
        # One call over a stack with mixed noise variances, 0 included, gives
        # each entry's own call byte for byte.
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 5, 2, 2)) + 1j * rng.normal(size=(3, 5, 2, 2))
        y = rng.normal(size=(3, 5, 2, 6)) + 1j * rng.normal(size=(3, 5, 2, 6))
        sigma2 = np.array([0.0, 0.5, 20.0])
        got = equalize_lmmse(y, h, sigma2[:, None], 10.0)
        for i, s2 in enumerate(sigma2):
            assert got[i].tobytes() == equalize_lmmse(y[i], h[i], float(s2), 10.0).tobytes()

    def test_negative_noise_variance_in_a_stack_rejected(self):
        h = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
        with pytest.raises(InvalidArgumentError, match="noise variance"):
            equalize_lmmse(np.ones((3, 2, 4), dtype=complex), h, np.array([1.0, -1e-3, 0.0]), 10.0)

    def test_stacked_subcarriers(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        x = rng.normal(size=(4, 2, 6)) + 1j * rng.normal(size=(4, 2, 6))
        got = equalize_lmmse(h @ x, h, 0.0, 10.0)
        assert np.allclose(got, x, atol=1e-9)


class TestMse:
    def test_perfect_estimate(self):
        h = np.ones((4, 2, 2), dtype=complex)
        assert compute_mse(h, h) == 0.0

    def test_unit_imaginary_offset(self):
        assert compute_mse(np.array([[[1.0]]]), np.array([[[1.0 + 1j]]])) == pytest.approx(1.0)

    def test_hand_summed(self):
        h_true = np.array([[[1, 2], [3, 4]], [[0, 0], [0, 0]]], dtype=complex)
        h_est = np.array([[[1, 2], [3, 4]], [[1j, 0], [0, 2]]], dtype=complex)
        # Errors: |1j|^2 + |2|^2 = 5 over 8 coefficients.
        assert compute_mse(h_true, h_est) == pytest.approx(5 / 8)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            compute_mse(np.ones((2, 2, 2)), np.ones((2, 2, 3)))


    def test_stack_matches_each_entry(self):
        # One call over a stack of estimates gives each entry's own call
        # byte for byte.
        rng = np.random.default_rng(6)
        h = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
        est = h + rng.normal(size=(2, 3, 64, 2, 2)) + 1j * rng.normal(size=(2, 3, 64, 2, 2))
        got = compute_mse(h, est)
        assert got.shape == (2, 3)
        for i in np.ndindex(2, 3):
            assert got[i].tobytes() == np.float64(compute_mse(h, est[i])).tobytes()
        with pytest.raises(InvalidArgumentError):
            compute_mse(h, est[..., :63, :, :])


class TestBer:
    def test_stack_matches_each_entry(self):
        rng = np.random.default_rng(7)
        bits_true = rng.integers(0, 2, (8, 2, 12))  # read flat, as a grid's data bits
        bits_est = rng.integers(0, 2, (5, bits_true.size))
        errors, total, ber = compute_ber(bits_true, bits_est)
        assert errors.shape == ber.shape == (5,)
        for e, b, row in zip(errors, ber, bits_est):
            assert (e, total, b) == compute_ber(bits_true, row)
        with pytest.raises(InvalidArgumentError):
            compute_ber(bits_true, bits_est[:, 1:])

    def test_identical(self):
        errors, total, ber = compute_ber([0, 1, 1, 0], [0, 1, 1, 0])
        assert (errors, total, ber) == (0, 4, 0.0)

    def test_complement(self):
        errors, total, ber = compute_ber([0, 1], [1, 0])
        assert (errors, total, ber) == (2, 2, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            compute_ber([0, 1], [0, 1, 1])

    def test_additivity(self):
        rng = np.random.default_rng(4)
        a_true, a_est = rng.integers(0, 2, 100), rng.integers(0, 2, 100)
        b_true, b_est = rng.integers(0, 2, 300), rng.integers(0, 2, 300)
        e1, t1, _ = compute_ber(a_true, a_est)
        e2, t2, _ = compute_ber(b_true, b_est)
        e, t, ber = compute_ber(
            np.concatenate([a_true, b_true]), np.concatenate([a_est, b_est])
        )
        assert (e, t) == (e1 + e2, t1 + t2)
        assert ber == pytest.approx((e1 + e2) / (t1 + t2))
