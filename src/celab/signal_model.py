"""Constellations, subframe layout, pilot grids, and complex<->real conversions.

Square QAM symbols are treated as two independent PAM symbols (real and
imaginary axes).  The constellation is kept unnormalized (PAM spacing 2) so
that the +/-2 shifts used by the online learner equal the literal symbol
spacing; the SNR convention in `evaluation` absorbs the energy scaling.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailureError, InvalidArgumentError


class PilotPattern(enum.Enum):
    ORTHOGONAL = "orthogonal"
    NONORTHOGONAL = "nonorthogonal"


# Minimum sigma_min/sigma_max ratio of the pilot Gram matrix before a
# non-orthogonal pilot grid is redrawn.
PILOT_COND_GUARD = 0.05
_MAX_PILOT_REDRAWS = 100


@dataclass(frozen=True)
class Constellation:
    """Square QAM alphabet with per-axis Gray bit mapping."""

    order: int
    pam_levels: np.ndarray        # ordered, e.g. [-3, -1, +1, +3]
    points: np.ndarray            # all order complex points
    avg_energy: float
    point_bits: np.ndarray        # point_bits[p] = bits of points[p], real-axis word first

    @property
    def bits_per_symbol(self) -> int:
        return int(round(math.log2(self.order)))


def build_constellation(order: int) -> Constellation:
    """Build an unnormalized square QAM constellation (PAM spacing 2)."""
    if order not in (4, 16, 64):
        raise InvalidArgumentError(f"unsupported QAM order {order}")
    m = int(round(math.sqrt(order)))
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    # Binary-reflected Gray code: adjacent levels differ in one bit.
    gray = np.array([k ^ (k >> 1) for k in range(m)], dtype=int)
    re, im = np.meshgrid(levels, levels, indexing="ij")
    points = (re + 1j * im).ravel()
    avg_energy = float(np.mean(points.real**2 + points.imag**2))
    ka = int(round(math.log2(m)))
    words = (gray[:, None] << ka | gray).reshape(-1, 1)
    point_bits = (words >> np.arange(2 * ka - 1, -1, -1)) & 1
    return Constellation(
        order=order,
        pam_levels=levels,
        points=points,
        avg_energy=avg_energy,
        point_bits=point_bits,
    )


def _bits_to_words(bits: np.ndarray, width: int) -> np.ndarray:
    """Pack groups of `width` bits (MSB first) into integers."""
    bits = bits.reshape(-1, width)
    weights = 1 << np.arange(width - 1, -1, -1)
    return bits @ weights


def modulate_bits(bits, c: Constellation) -> np.ndarray:
    """Map a bit sequence to QAM symbols, Gray-coded per PAM axis: each
    symbol's bits are the `point_bits` row of its point, whose first half
    selects the real-axis level and second half the imaginary-axis level.
    """
    bits = np.asarray(bits, dtype=int).ravel()
    k = c.bits_per_symbol
    if bits.size % k != 0:
        raise InvalidArgumentError(
            f"bit count {bits.size} not divisible by {k} bits/symbol"
        )
    point = np.empty(c.order, dtype=int)  # point[word] = index of the point carrying it
    point[_bits_to_words(c.point_bits, k)] = np.arange(c.order)
    return c.points[point[_bits_to_words(bits, k)]]


def demodulate_hard(syms, c: Constellation) -> np.ndarray:
    """Hard-decision demap to bits (nearest point, ties toward smaller level).
    An axis's level index counts the decision boundaries below it; NaN counts all."""
    parts = np.asarray(syms, dtype=complex).ravel().view(float).reshape(-1, 2)
    # [re, im] level indices; uint8 holds the point index too (8 levels at most)
    idx = np.zeros(parts.shape, dtype=np.uint8)
    for b in (c.pam_levels[:-1] + c.pam_levels[1:]) / 2.0:
        idx += ~(parts <= b)
    return np.take(c.point_bits, idx[:, 0] * len(c.pam_levels) + idx[:, 1], axis=0).reshape(-1)


def realify_signal(y) -> np.ndarray:
    """[Re(y); Im(y)] along the last axis."""
    y = np.asarray(y, dtype=complex)
    return np.concatenate([y.real, y.imag], axis=-1)


@dataclass(frozen=True)
class SubframeSpec:
    """MIMO-OFDM subframe layout (block fading over n_sym OFDM symbols)."""

    n_tx: int = 2
    n_rx: int = 2
    n_sc: int = 64
    n_sym: int = 14
    n_pilot: int = 2
    cp_len: int = 16  # metadata only; time-domain processing is out of scope
    pilot_pattern: PilotPattern = PilotPattern.NONORTHOGONAL

    def __post_init__(self):
        if min(self.n_tx, self.n_rx, self.n_sc, self.n_sym, self.n_pilot) < 1:
            raise InvalidArgumentError("subframe dimensions must be >= 1")
        if self.n_pilot >= self.n_sym:
            raise InvalidArgumentError("n_pilot must be < n_sym")
        if self.n_pilot < self.n_tx:
            raise InvalidArgumentError("n_pilot must be >= n_tx")

    @property
    def n_data(self) -> int:
        return self.n_sym - self.n_pilot


@dataclass(frozen=True)
class TransmitGrid:
    """One subframe of transmitted symbols.

    pilots: [n_sc x n_tx x n_pilot], data: [n_sc x n_tx x n_data],
    data_bits: bits that generated `data`, shape [n_sc, n_tx, n_data * bits/sym].
    """

    pilots: np.ndarray
    data: np.ndarray
    data_bits: np.ndarray

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.pilots, self.data], axis=-1)


def generate_pilot_grid(spec: SubframeSpec, c: Constellation, seed) -> np.ndarray:
    """Random QAM pilot grid [n_sc x n_tx x n_pilot] for the given pattern.

    Non-orthogonal grids are redrawn per subcarrier until the pilot Gram
    matrix X_p X_p* satisfies sigma_min >= PILOT_COND_GUARD * sigma_max.  It
    can only when n_pilot >= n_tx, which `SubframeSpec` requires.
    """
    rng = np.random.default_rng(seed)
    pilots = np.zeros((spec.n_sc, spec.n_tx, spec.n_pilot), dtype=complex)
    if spec.pilot_pattern is PilotPattern.ORTHOGONAL:
        # Time-division multiplexing: antenna t is active only on slot t.
        for t in range(spec.n_tx):
            pilots[:, t, t] = rng.choice(c.points, size=spec.n_sc)
        return pilots

    pending = np.arange(spec.n_sc)
    for _ in range(_MAX_PILOT_REDRAWS):
        draw = rng.choice(c.points, size=(pending.size, spec.n_tx, spec.n_pilot))
        pilots[pending] = draw
        s = np.linalg.svd(pilots[pending], compute_uv=False)
        # Gram singular values are the squares of the pilot matrix ones.
        bad = (s[:, -1] ** 2) < PILOT_COND_GUARD * (s[:, 0] ** 2)
        pending = pending[bad]
        if pending.size == 0:
            return pilots
    raise GenerationFailureError(
        f"pilot conditioning guard unmet after {_MAX_PILOT_REDRAWS} redraws"
    )


def generate_data_grid(spec: SubframeSpec, c: Constellation, seed):
    """Random data bits and symbols: ([n_sc, n_tx, n_data], aligned bits)."""
    rng = np.random.default_rng(seed)
    k = c.bits_per_symbol
    bits = rng.integers(0, 2, size=(spec.n_sc, spec.n_tx, spec.n_data * k))
    data = modulate_bits(bits.reshape(-1), c).reshape(spec.n_sc, spec.n_tx, spec.n_data)
    return data, bits


def child_seeds(seed, n: int) -> list:
    """The n children `SeedSequence.spawn(n)` would give of `seed`, without
    advancing its spawn counter, so a seed passed twice gives them twice."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.SeedSequence(ss.entropy, pool_size=ss.pool_size,
                                   spawn_key=ss.spawn_key + (ss.n_children_spawned + i,))
            for i in range(n)]


def generate_transmit_grid(spec: SubframeSpec, c: Constellation, seed) -> TransmitGrid:
    """Pilots plus random data for one subframe."""
    ss = child_seeds(seed, 2)
    pilots = generate_pilot_grid(spec, c, ss[0])
    data, bits = generate_data_grid(spec, c, ss[1])
    return TransmitGrid(pilots=pilots, data=data, data_bits=bits)
