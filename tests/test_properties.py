"""Property tests: noiseless LS exactness and the shifting IIL's symmetry and
batch independence, over random shapes and seeds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from celab.estimators import estimate_ls
from celab.structnet import _BatchTrainer, _grid_tanh_sum, iil_shifting_forward, shift_grid

SEEDS = st.integers(0, 2**32 - 1)


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_sc=st.integers(1, 8), n_rx=st.integers(1, 4), n_tx=st.integers(1, 4))
def test_noiseless_ls_is_exact(seed, n_sc, n_rx, n_tx):
    # Pilots X = Q diag(g) with Q unitary and gains in [0.5, 2]: cond(X) <= 4.
    rng = np.random.default_rng(seed)
    h = _complex(rng, (n_sc, n_rx, n_tx))
    q, _ = np.linalg.qr(_complex(rng, (n_sc, n_tx, n_tx)))
    x_p = q * rng.uniform(0.5, 2.0, (n_sc, 1, n_tx))
    assert np.max(np.abs(estimate_ls(h @ x_p, x_p) - h)) <= 1e-10


def _shifting_case(seed, n_models, n_k, d):
    rng = np.random.default_rng(seed)
    s = rng.normal(0.0, 2.0, (n_models, 3, d))
    interference = rng.normal(0.0, 0.8, (n_models, n_k, d))
    return s, interference


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_k=st.integers(0, 3), window=st.integers(1, 3), d=st.sampled_from((2, 4)))
def test_shifting_forward_is_odd(seed, n_k, window, d):
    # The grid is symmetric (m and -m both in it) and tanh is odd.
    s, interference = _shifting_case(seed, 1, n_k, d)
    f = iil_shifting_forward(s[0], interference[0], window)
    f_neg = iil_shifting_forward(-s[0], interference[0], window)
    assert np.max(np.abs(f_neg + f)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_models=st.integers(2, 5), n_k=st.integers(0, 3),
       window=st.integers(1, 3), d=st.sampled_from((2, 4)), data=st.data())
def test_single_model_view_is_its_row_of_the_batch(seed, n_models, n_k, window, d, data):
    s, interference = _shifting_case(seed, n_models, n_k, d)
    grid = shift_grid(n_k, window).astype(float)
    batch, _ = _grid_tanh_sum(s, interference, grid, _BatchTrainer._CHUNK)
    b = data.draw(st.integers(0, n_models - 1), label="model")
    single = iil_shifting_forward(s[b], interference[b], window)
    # Each model's row takes the same sums; only the shift GEMM's blocking
    # may differ with the batch size.
    np.testing.assert_allclose(single, batch[b], rtol=1e-13, atol=1e-13)
