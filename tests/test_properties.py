"""Property tests: noiseless LS exactness, the shifting IIL's symmetry and
batch independence, the modulo IIL's invariance, and config round trips,
over random shapes, seeds and configs."""

import math
from enum import Enum

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from celab import harness
from celab.estimators import estimate_ls
from celab.signal_model import PilotPattern, SubframeSpec
from celab.structnet import (
    IilKind,
    IilOrder,
    TrainConfig,
    _BatchTrainer,
    _grid_tanh_sum,
    _modulo,
    shift_grid,
)

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
    grid = shift_grid(n_k, window).astype(float)
    f, _ = _grid_tanh_sum(s, interference, grid, _BatchTrainer._CHUNK)
    f_neg, _ = _grid_tanh_sum(-s, interference, grid, _BatchTrainer._CHUNK)
    assert np.max(np.abs(f_neg + f)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_models=st.integers(2, 5), n_k=st.integers(0, 3),
       window=st.integers(1, 3), d=st.sampled_from((2, 4)), data=st.data())
def test_single_model_view_is_its_row_of_the_batch(seed, n_models, n_k, window, d, data):
    s, interference = _shifting_case(seed, n_models, n_k, d)
    grid = shift_grid(n_k, window).astype(float)
    batch, _ = _grid_tanh_sum(s, interference, grid, _BatchTrainer._CHUNK)
    b = data.draw(st.integers(0, n_models - 1), label="model")
    single, _ = _grid_tanh_sum(s[b:b + 1], interference[b:b + 1], grid, _BatchTrainer._CHUNK)
    # The shift products are per model and the sums per row, so model b's
    # row equals model b run as a batch of one.
    np.testing.assert_array_equal(single[0], batch[b])


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_models=st.integers(1, 4), n_k=st.integers(1, 3),
       d=st.sampled_from((2, 4)))
def test_modulo_is_invariant_to_shifts_by_the_first_vector(seed, n_models, n_k, d):
    # The sequential modulo first reduces by 2*h_1, so adding 2*m*h_1 (m an
    # integer per entry) to the input changes no later step.  Entries of h
    # are at least 0.2 in magnitude, so none is skipped.
    rng = np.random.default_rng(seed)
    s = rng.normal(0.0, 3.0, (n_models, 3, d))
    shape = (n_models, n_k, d)
    interference = rng.uniform(0.2, 1.5, shape) * rng.choice([-1, 1], shape)
    m = rng.integers(-5, 6, s.shape)
    out, alphas = _modulo(s, interference, 1e-6)
    # Away from floor boundaries: every step's ratio is at least 1e-6 from
    # an integer, so rounding in the shifted input moves no quotient.
    z = s
    for k, alpha in enumerate(alphas):
        h = interference[:, k, None, :]
        ratio = z / (2.0 * h)
        assume(np.min(np.abs(ratio - np.round(ratio))) > 1e-6)
        z = z - 2.0 * h * alpha
    shifted, _ = _modulo(s + 2.0 * m * interference[:, :1, :], interference, 1e-6)
    np.testing.assert_allclose(shifted, out, rtol=0, atol=1e-9)


def _render(value) -> str:
    """A config field's value as the text of its key=value item."""
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    if isinstance(value, Enum):
        return value.value
    return value if isinstance(value, str) else repr(value)


def _items(cfg: harness.ExperimentConfig) -> dict:
    """Every config key of `cfg` as a key=value item."""
    owners = {SubframeSpec: cfg.spec, TrainConfig: cfg.train, harness.ExperimentConfig: cfg}
    return {key: _render(getattr(owners[owner], name))
            for key, (owner, name, _) in harness._KEYS.items()}


RATES = st.floats(0.0, 1.0)


@st.composite
def _configs(draw):
    n_tx = draw(st.integers(1, 4))
    n_sym = draw(st.integers(2, 16))
    pattern = draw(st.sampled_from(PilotPattern))
    assume(n_tx < n_sym)
    spec = SubframeSpec(n_tx=n_tx, n_rx=draw(st.integers(1, 4)),
                        n_sc=draw(st.integers(1, 64)), n_sym=n_sym,
                        n_pilot=draw(st.integers(n_tx, n_sym - 1)),
                        cp_len=draw(st.integers(0, 32)), pilot_pattern=pattern)
    train = TrainConfig(epochs=draw(st.integers(0, 500)), lr_classifier=draw(RATES),
                        lr_channel=draw(RATES), iil_kind=draw(st.sampled_from(IilKind)),
                        iil_window=draw(st.integers(1, 5)),
                        iil_order=draw(st.sampled_from(IilOrder)),
                        update_interference=draw(st.booleans()),
                        n_h1=draw(st.integers(1, 64)), n_h2=draw(st.integers(1, 64)))
    return harness.ExperimentConfig(
        spec=spec, qam_order=draw(st.sampled_from((4, 16, 64))),
        pdp_taps=draw(st.integers(1, spec.n_sc)),
        pdp_decay=draw(st.floats(0.0, 1e3, exclude_min=True)),
        snr_db=tuple(draw(st.lists(st.floats(-100.0, 100.0) | st.just(math.inf),
                                   min_size=1, max_size=5))),
        n_subframes=draw(st.integers(1, 1000)),
        methods=tuple(draw(st.permutations(harness.METHODS))[:draw(st.integers(1, 5))]),
        train=train, seed=draw(st.integers(0, 2**63)),
        out=draw(st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)))),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=_configs())
def test_config_round_trips_through_items(cfg):
    items = _items(cfg)
    assert set(items) == set(harness._KEYS)
    assert harness.config_from_items(items) == cfg
