import numpy as np
import pytest

from celab.errors import InvalidArgumentError
from celab.signal_model import (
    PilotPattern,
    SubframeSpec,
    build_constellation,
    complexify_channel,
    demodulate_hard,
    generate_pilot_grid,
    generate_transmit_grid,
    modulate_bits,
    realify_channel_column,
    realify_signal,
)


class TestConstellation:
    def test_16qam_levels_and_energy(self):
        c = build_constellation(16)
        assert np.array_equal(c.pam_levels, [-3, -1, 1, 3])
        assert c.avg_energy == 10.0
        assert c.order == 16
        assert len(c.points) == 16

    def test_qpsk(self):
        c = build_constellation(4)
        assert np.array_equal(c.pam_levels, [-1, 1])
        assert c.avg_energy == 2.0

    def test_64qam(self):
        c = build_constellation(64)
        assert np.array_equal(c.pam_levels, np.arange(-7, 8, 2))
        assert c.avg_energy == pytest.approx(42.0)

    def test_unsupported_order(self):
        with pytest.raises(InvalidArgumentError):
            build_constellation(8)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_adjacency(self, order):
        c = build_constellation(order)
        for a, b in zip(c.gray_codes[:-1], c.gray_codes[1:]):
            assert bin(a ^ b).count("1") == 1


class TestModulation:
    def test_bit_words_map_to_corners(self):
        c = build_constellation(16)
        # Per-axis Gray map: 00->-3, 01->-1, 11->+1, 10->+3.
        assert modulate_bits([0, 0, 0, 0], c)[0] == -3 - 3j
        assert modulate_bits([1, 1, 1, 0], c)[0] == 1 + 3j

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_round_trip(self, order):
        c = build_constellation(order)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=4000 * c.bits_per_symbol // 4)
        syms = modulate_bits(bits, c)
        assert np.array_equal(demodulate_hard(syms, c), bits)

    def test_length_mismatch(self):
        c = build_constellation(16)
        with pytest.raises(InvalidArgumentError):
            modulate_bits([0, 1, 1], c)

    def test_hard_decision_nearest(self):
        c = build_constellation(16)
        want = demodulate_hard([1 + 3j], c)
        assert np.array_equal(demodulate_hard([0.9 + 2.8j], c), want)

    def test_hard_decision_tie_toward_smaller_level(self):
        c = build_constellation(16)
        want = demodulate_hard([-1 - 1j], c)
        assert np.array_equal(demodulate_hard([0 + 0j], c), want)

    def test_every_point_demaps_to_itself(self):
        c = build_constellation(16)
        for p in c.points:
            bits = demodulate_hard([p], c)
            assert modulate_bits(bits, c)[0] == p


def _searchsorted_demap(syms, c):
    """The demapper the boundary count replaced: np.searchsorted per axis."""
    syms = np.asarray(syms, dtype=complex).ravel()
    ka = c.bits_per_axis
    boundaries = (c.pam_levels[:-1] + c.pam_levels[1:]) / 2.0
    shifts = np.arange(ka - 1, -1, -1)
    bits = [((c.gray_codes[np.searchsorted(boundaries, v, side="left")][:, None] >> shifts) & 1)
            for v in (syms.real, syms.imag)]
    return np.concatenate(bits, axis=1).reshape(-1)


class TestDemapperAgainstSearchsorted:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_same_bytes(self, order):
        c = build_constellation(order)
        rng = np.random.default_rng(order)
        m = len(c.pam_levels)
        boundaries = (c.pam_levels[:-1] + c.pam_levels[1:]) / 2.0
        # Levels, boundaries (ties go to the smaller level), beyond the
        # outer levels, +-inf and NaN, on either axis and in every pairing.
        special = np.concatenate([c.pam_levels, boundaries, [-m - 5.0, m + 5.0],
                                  [np.inf, -np.inf, np.nan]])
        re, im = (v.ravel() for v in np.meshgrid(special, special))
        edges = re + 0j
        edges.imag = im
        noisy = m * (rng.normal(size=3000) + 1j * rng.normal(size=3000))
        for syms in (edges, noisy, noisy[::3], noisy[:12].reshape(3, 4).T,
                     noisy[:0], noisy.astype(np.complex64)):
            got, want = demodulate_hard(syms, c), _searchsorted_demap(syms, c)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


class TestRealification:
    def test_realify_signal(self):
        assert np.array_equal(realify_signal([1 + 2j]), [1.0, 2.0])
        assert np.array_equal(realify_signal([0, 0]), [0.0, 0.0, 0.0, 0.0])

    def test_realify_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.allclose(realify_signal(a) + realify_signal(b), realify_signal(a + b))

    def test_channel_column_branches(self):
        assert np.array_equal(realify_channel_column([1 + 2j], 0, 1), [1.0, 2.0])
        assert np.array_equal(realify_channel_column([1 + 2j], 1, 1), [-2.0, 1.0])

    def test_second_branch_is_rotation_by_j(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.allclose(realify_channel_column(h, 1, 1), realify_signal(1j * h))

    def test_stream_index_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            realify_channel_column([1j], 2, 1)

    def test_realification_homomorphism(self):
        # realify(H x) = H_tilde x_tilde with columns from both stream branches.
        rng = np.random.default_rng(3)
        n_rx, n_tx = 3, 2
        h = rng.normal(size=(n_rx, n_tx)) + 1j * rng.normal(size=(n_rx, n_tx))
        x = rng.normal(size=n_tx) + 1j * rng.normal(size=n_tx)
        cols = [realify_channel_column(h[:, i % n_tx], i, n_tx) for i in range(2 * n_tx)]
        h_tilde = np.stack(cols, axis=1)
        x_tilde = np.concatenate([x.real, x.imag])
        assert np.allclose(realify_signal(h @ x), h_tilde @ x_tilde, atol=1e-12)


class TestComplexify:
    def test_exact_inverse_pair(self):
        out = complexify_channel([[1.0, 2.0], [-2.0, 1.0]])
        assert np.allclose(out, [[1 + 2j]])

    def test_averages_the_two_reconstructions(self):
        # Stream 0 reconstructs 1+2j, stream 1 de-rotates to 1.2+2.2j;
        # the column is their average.
        out = complexify_channel([[1.0, 2.0], [-2.2, 1.2]])
        assert np.allclose(out, [[1.1 + 2.1j]])

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        n_rx, n_tx = 2, 3
        h = rng.normal(size=(n_rx, n_tx)) + 1j * rng.normal(size=(n_rx, n_tx))
        streams = [realify_channel_column(h[:, i % n_tx], i, n_tx) for i in range(2 * n_tx)]
        assert np.allclose(complexify_channel(streams), h, atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            complexify_channel([[1.0, 2.0], [1.0, 2.0, 3.0]])
        with pytest.raises(InvalidArgumentError):
            complexify_channel([[1.0, 2.0]])


class TestSubframeSpec:
    def test_defaults(self):
        spec = SubframeSpec()
        assert spec.n_data == spec.n_sym - spec.n_pilot

    def test_pilots_must_leave_room_for_data(self):
        with pytest.raises(InvalidArgumentError):
            SubframeSpec(n_sym=2, n_pilot=2)

    def test_orthogonal_needs_enough_pilot_slots(self):
        with pytest.raises(InvalidArgumentError):
            SubframeSpec(n_tx=4, n_pilot=2, pilot_pattern=PilotPattern.ORTHOGONAL)


class TestPilotGrids:
    def test_orthogonal_time_division(self):
        spec = SubframeSpec(pilot_pattern=PilotPattern.ORTHOGONAL)
        c = build_constellation(16)
        pilots = generate_pilot_grid(spec, c, 0)
        for t in range(spec.n_tx):
            for p in range(spec.n_pilot):
                if p != t:
                    assert np.all(pilots[:, t, p] == 0)
                else:
                    assert np.all(np.isin(pilots[:, t, p], c.points))

    def test_orthogonal_gram_is_diagonal(self):
        spec = SubframeSpec(pilot_pattern=PilotPattern.ORTHOGONAL)
        pilots = generate_pilot_grid(spec, build_constellation(16), 1)
        gram = pilots @ np.conj(np.swapaxes(pilots, -1, -2))
        for g in gram:
            assert np.allclose(g, np.diag(np.diag(g)))

    def test_nonorthogonal_all_active_and_conditioned(self):
        spec = SubframeSpec()
        c = build_constellation(16)
        pilots = generate_pilot_grid(spec, c, 2)
        assert np.all(np.isin(pilots, c.points))
        s = np.linalg.svd(pilots, compute_uv=False)
        assert np.all(s[:, -1] ** 2 >= 0.05 * s[:, 0] ** 2)

    def test_same_seed_same_grid(self):
        spec = SubframeSpec()
        c = build_constellation(16)
        assert np.array_equal(generate_pilot_grid(spec, c, 7), generate_pilot_grid(spec, c, 7))

    def test_transmit_grid_shapes_and_determinism(self):
        spec = SubframeSpec()
        c = build_constellation(16)
        grid = generate_transmit_grid(spec, c, 9)
        assert grid.pilots.shape == (spec.n_sc, spec.n_tx, spec.n_pilot)
        assert grid.data.shape == (spec.n_sc, spec.n_tx, spec.n_data)
        assert grid.data_bits.shape == (spec.n_sc, spec.n_tx, spec.n_data * c.bits_per_symbol)
        assert grid.full.shape == (spec.n_sc, spec.n_tx, spec.n_sym)
        again = generate_transmit_grid(spec, c, 9)
        assert np.array_equal(grid.full, again.full)
        assert np.array_equal(grid.data_bits, again.data_bits)

    def test_seed_sequence_not_advanced(self):
        spec = SubframeSpec(n_sc=8)
        c = build_constellation(16)
        ss = np.random.SeedSequence(5)
        a = generate_transmit_grid(spec, c, ss)
        b = generate_transmit_grid(spec, c, ss)
        assert ss.n_children_spawned == 0
        for grid in (b, generate_transmit_grid(spec, c, 5)):
            assert np.array_equal(a.full, grid.full)
            assert np.array_equal(a.data_bits, grid.data_bits)

    def test_data_bits_align_with_symbols(self):
        spec = SubframeSpec(n_sc=4)
        c = build_constellation(16)
        grid = generate_transmit_grid(spec, c, 11)
        resym = modulate_bits(grid.data_bits.reshape(-1), c).reshape(grid.data.shape)
        assert np.array_equal(resym, grid.data)
