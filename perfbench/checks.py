"""Property checks on `run_sweep` results.

Every check follows from what the methods are, not from a stored copy of an
earlier output, and each returns a list of failure messages (empty on a pass).
"""

import math
from collections import defaultdict

from celab import evaluation, signal_model

# The LS error is sigma^2 times a pilot-only factor; its realized mean over N
# complex coefficients has a relative spread of about 1.6/sqrt(N) (measured
# over 200 seeds).  12/sqrt(N) is ~7.5 of those spreads.
LS_RATIO_SPREAD = 12.0
# A rise of BER with SNR, or a method under PerfectCSI, is allowed up to
# this many binomial standard deviations of the bit count.
BER_SIGMAS = 4.0
# BER of a receiver with no channel knowledge is 0.5.
BER_CHANCE_LIMIT = 0.4
# StructNetCE starts from the LS estimate and may not end worse than this.
LEARNER_MARGIN = 0.10


class Tally:
    """Per-(method, SNR) sums over the rounds of one run."""

    def __init__(self, cfg):
        spec = cfg.spec
        const = signal_model.build_constellation(cfg.qam_order)
        self.methods = tuple(cfg.methods)
        self.snrs = tuple(float(s) for s in cfg.snr_db)
        self.sigma2 = {s: evaluation.snr_to_noise_var(s, const, spec.n_tx) for s in self.snrs}
        self.coefs_per_subframe = spec.n_sc * spec.n_rx * spec.n_tx
        self.bits_per_subframe = spec.n_sc * spec.n_tx * spec.n_data * const.bits_per_symbol
        self.mse_sum = defaultdict(float)
        self.ber_sum = defaultdict(float)
        self.subframes = defaultdict(int)
        self.nonfinite = set()
        self.cells = 0
        self.failed_cells = 0

    def add(self, rows, n_subframes: int) -> None:
        """Add one round's rows; a cell fails when any of its methods' rows is
        missing or not finite."""
        seen = set()
        bad_snrs = set()
        for r in rows:
            key = (r.method, float(r.snr_db))
            seen.add(key)
            if not (math.isfinite(r.mse) and math.isfinite(r.ber)):
                self.nonfinite.add(key)
                bad_snrs.add(key[1])
                continue
            self.mse_sum[key] += r.mse * r.subframes
            self.ber_sum[key] += r.ber * r.subframes
            self.subframes[key] += r.subframes
        for s in self.snrs:
            if any((m, s) not in seen for m in self.methods):
                bad_snrs.add(s)
        self.cells += n_subframes * len(self.snrs)
        self.failed_cells += n_subframes * len(bad_snrs)

    def mse(self, method, snr) -> float:
        return self.mse_sum[(method, snr)] / self.subframes[(method, snr)]

    def ber(self, method, snr) -> float:
        return self.ber_sum[(method, snr)] / self.subframes[(method, snr)]

    def ber_tolerance(self, method, snr) -> float:
        p = min(max(self.ber(method, snr), 1e-3), 0.5)
        bits = self.subframes[(method, snr)] * self.bits_per_subframe
        return BER_SIGMAS * math.sqrt(p * (1.0 - p) / bits)


def rows_present_and_finite(t: Tally):
    out = []
    for m in t.methods:
        for s in t.snrs:
            if (m, s) in t.nonfinite:
                out.append(f"{m} at {s:g} dB: non-finite MSE or BER")
            elif t.subframes[(m, s)] == 0:
                out.append(f"{m} at {s:g} dB: row missing")
    return out


def _complete(t: Tally, method) -> bool:
    return method in t.methods and all(t.subframes[(method, s)] for s in t.snrs)


def perfect_csi_exact(t: Tally):
    if not _complete(t, "PerfectCSI"):
        return []
    return [f"PerfectCSI at {s:g} dB: MSE {t.mse('PerfectCSI', s)!r}, not 0"
            for s in t.snrs if t.mse("PerfectCSI", s) != 0.0]


def ls_error_scales_with_noise(t: Tally):
    """LS MSE / sigma^2 is set by the pilots alone, which are paired across SNRs."""
    if not _complete(t, "LS") or len(t.snrs) < 2:
        return []
    ratios = {s: t.mse("LS", s) / t.sigma2[s] for s in t.snrs}
    n_coef = min(t.subframes[("LS", s)] for s in t.snrs) * t.coefs_per_subframe
    tol = LS_RATIO_SPREAD / math.sqrt(n_coef)
    lo, hi = min(ratios.values()), max(ratios.values())
    if hi / lo - 1.0 > tol:
        shown = ", ".join(f"{s:g} dB {r:.4f}" for s, r in ratios.items())
        return [f"LS MSE/sigma^2 differs across SNRs by {hi / lo - 1.0:.1%} "
                f"(allowed {tol:.1%} for {n_coef} coefficients): {shown}"]
    return []


def genie_beats_ls(t: Tally):
    if not (_complete(t, "GenieLMMSE") and _complete(t, "LS")):
        return []
    return [f"GenieLMMSE at {s:g} dB: MSE {t.mse('GenieLMMSE', s):.5g} not below "
            f"LS {t.mse('LS', s):.5g}"
            for s in t.snrs if not t.mse("GenieLMMSE", s) < t.mse("LS", s)]


def ber_falls_with_snr(t: Tally):
    out = []
    snrs = sorted(t.snrs)
    for m in t.methods:
        if not _complete(t, m):
            continue
        for lo, hi in zip(snrs, snrs[1:]):
            rise = t.ber(m, hi) - t.ber(m, lo)
            if rise > t.ber_tolerance(m, lo):
                out.append(f"{m}: BER rises from {t.ber(m, lo):.4f} at {lo:g} dB "
                           f"to {t.ber(m, hi):.4f} at {hi:g} dB")
    return out


def ber_not_below_perfect_csi(t: Tally):
    if not _complete(t, "PerfectCSI"):
        return []
    out = []
    for m in t.methods:
        if m == "PerfectCSI" or not _complete(t, m):
            continue
        for s in t.snrs:
            floor = t.ber("PerfectCSI", s)
            if t.ber(m, s) < floor - t.ber_tolerance("PerfectCSI", s):
                out.append(f"{m} at {s:g} dB: BER {t.ber(m, s):.4f} below "
                           f"PerfectCSI's {floor:.4f}")
    return out


def ber_better_than_chance(t: Tally):
    top = max(t.snrs)
    return [f"{m} at {top:g} dB: BER {t.ber(m, top):.4f} is no better than a "
            f"receiver without channel knowledge"
            for m in t.methods
            if _complete(t, m) and t.ber(m, top) > BER_CHANCE_LIMIT]


def learner_stays_near_ls(t: Tally):
    if not (_complete(t, "StructNetCE") and _complete(t, "LS")):
        return []
    return [f"StructNetCE at {s:g} dB: MSE {t.mse('StructNetCE', s):.5g} exceeds "
            f"LS {t.mse('LS', s):.5g} by more than {LEARNER_MARGIN:.0%}"
            for s in t.snrs
            if not t.mse("StructNetCE", s) <= (1.0 + LEARNER_MARGIN) * t.mse("LS", s)]


CHECKS = (
    rows_present_and_finite,
    perfect_csi_exact,
    ls_error_scales_with_noise,
    genie_beats_ls,
    ber_falls_with_snr,
    ber_not_below_perfect_csi,
    ber_better_than_chance,
    learner_stays_near_ls,
)


def run_checks(t: Tally):
    return [msg for check in CHECKS for msg in check(t)]
