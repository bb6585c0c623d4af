"""The factored LMMSE filter against dense references written out here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celab import harness
from celab.channel_sim import analytic_freq_correlation, dft_vectors, exponential_pdp
from celab.errors import InvalidArgumentError
from celab.estimators import (
    EmLmmseState,
    FactoredCorr,
    estimate_em_lmmse,
    lmmse_filter,
    update_empirical_correlation,
)

SEEDS = st.integers(0, 2**32 - 1)


def _cvec(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_factored(rng, n, k, a):
    v = _cvec(rng, k, k)
    return FactoredCorr(float(a), _cvec(rng, n, k), v @ v.conj().T / max(k, 1))


def _dense_lmmse(c, s, h):
    return c @ np.linalg.solve(c + s * np.eye(c.shape[0]), h)


def _close(got, want, tol=1e-10):
    # Relative to want; a zero want must be matched exactly.
    return np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 8), rank=st.sampled_from(("below", "at", "above")),
       a=st.sampled_from((0, 1)), s=st.floats(0.05, 20.0))
def test_factored_filter_matches_dense(seed, n, rank, a, s):
    rng = np.random.default_rng(seed)
    k = {"below": int(rng.integers(0, n)), "at": n, "above": n + int(rng.integers(1, n + 1))}[rank]
    corr = _random_factored(rng, n, k, a)
    h = _cvec(rng, n)
    want = _dense_lmmse(corr.dense(), s, h)
    assert _close(lmmse_filter(corr, s) @ h, want)
    assert _close(lmmse_filter(corr.dense(), s) @ h, want)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 6), window=st.integers(1, 6), extra=st.integers(1, 10),
       s=st.floats(0.05, 20.0))
def test_updates_past_the_fold_match_dense_recurrence(seed, n, window, extra, s):
    rng = np.random.default_rng(seed)
    state = EmLmmseState.initial(n, window=window)
    corr = np.eye(n, dtype=complex)
    for seen in range(n + extra):
        h = _cvec(rng, n)
        w = min(seen + 1, window)
        corr = (1.0 - 1.0 / w) * corr + (1.0 / w) * np.outer(h, h.conj())
        state = update_empirical_correlation(state, h)
        assert _close(state.corr, corr)
        h_ls = _cvec(rng, n)
        got = estimate_em_lmmse(state, h_ls, s, 1.0)
        assert _close(got, _dense_lmmse(corr, s, h_ls))
    assert state.factored.u.shape == (n, n)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 8), k=st.integers(0, 10), a=st.sampled_from((0, 1)))
def test_zero_noise_returns_h_and_negative_noise_raises(seed, n, k, a):
    rng = np.random.default_rng(seed)
    corr = _random_factored(rng, n, k, a)
    h = _cvec(rng, n)
    assert np.array_equal(lmmse_filter(corr, 0.0) @ h, h)
    assert np.array_equal(lmmse_filter(corr.dense(), 0.0) @ h, h)
    for r_hh in (corr, corr.dense()):
        with pytest.raises(InvalidArgumentError):
            lmmse_filter(r_hh, -1e-3)


def _entry(a, p, stack):
    """Entry p of a possibly unstacked (shared) array of a stacked state."""
    return np.broadcast_to(a, (*stack, *a.shape[-2:]))[p]


@pytest.mark.parametrize("n_rx, n_tx", [(2, 2), (3, 2)])
def test_stacked_pairs_match_one_call_per_pair(n_rx, n_tx):
    # One state over every (r, t) pair, fed as the sweep feeds it, against one
    # state per pair: the identity prior, k growing, the fold at k = n, and
    # two updates past it, each at sigma^2 = 0 and > 0, byte for byte.
    n, stack = 6, (n_rx * n_tx,)
    rng = np.random.default_rng(11)
    pairs = [(r, t) for r in range(n_rx) for t in range(n_tx)]
    stacked = EmLmmseState.initial(n, window=4)
    single = {pair: EmLmmseState.initial(n, window=4) for pair in pairs}
    for _ in range(n + 2):
        h_ls = _cvec(rng, n, n_rx, n_tx)
        x = h_ls.reshape(n, -1).T  # (N_r N_t, n), (r, t) row-major
        for s in (0.0, 0.3):
            got = estimate_em_lmmse(stacked, x, s, 1.0)
            filt = lmmse_filter(stacked.factored, s)
            for p, (r, t) in enumerate(pairs):
                want = estimate_em_lmmse(single[r, t], h_ls[:, r, t], s, 1.0)
                assert got[p].tobytes() == want.tobytes()
                assert (filt @ x[..., None])[p].tobytes() == (
                    lmmse_filter(single[r, t].factored, s) @ h_ls[:, r, t, None]).tobytes()
        stacked = update_empirical_correlation(stacked, x)
        for p, (r, t) in enumerate(pairs):
            single[r, t] = update_empirical_correlation(single[r, t], h_ls[:, r, t])
            one = single[r, t].factored
            assert stacked.factored.a == one.a
            assert _entry(stacked.factored.u, p, stack).tobytes() == one.u.tobytes()
            assert _entry(stacked.factored.w, p, stack).tobytes() == one.w.tobytes()
            assert _entry(stacked.corr, p, stack).tobytes() == single[r, t].corr.tobytes()
    assert stacked.factored.u.shape[-2:] == (n, n)


def test_genie_factors_give_analytic_correlation():
    pdp = exponential_pdp(8, 3.0)
    for n_sc in (16, 1024):
        factored = FactoredCorr(0.0, dft_vectors(pdp, n_sc), np.diag(pdp.powers))
        r = analytic_freq_correlation(pdp, n_sc)
        assert np.max(np.abs(factored.dense() - r)) <= 1e-12


def test_non_hermitian_prior_rejected_at_construction():
    r = np.eye(4, dtype=complex)
    r[0, 1] = 1.0
    with pytest.raises(InvalidArgumentError):
        EmLmmseState(factored=FactoredCorr.from_dense(r))


def test_sweep_builds_no_dense_correlation(monkeypatch):
    # Fewer subframes than subcarriers: no state folds, so nothing n x n
    # should be built or solved.
    def refuse(*args, **kwargs):
        raise AssertionError("dense correlation built on the sweep path")

    monkeypatch.setattr(FactoredCorr, "dense", refuse)
    monkeypatch.setattr(FactoredCorr, "from_dense", refuse)
    monkeypatch.setattr(harness.channel_sim, "analytic_freq_correlation", refuse)
    solved = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda m, b: solved.append(m.shape[-1]) or solve(m, b))
    cfg = harness.config_from_items(
        {"methods": "LS,GenieLMMSE,EmLMMSE", "n_subframes": "5", "seed": "2"})
    rows = harness.run_sweep(cfg)
    assert all(np.isfinite(r.mse) for r in rows)
    assert solved and max(solved) < cfg.spec.n_sc
