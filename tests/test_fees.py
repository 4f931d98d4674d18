"""Implied fee rate, realized-LVR increment and martingale engine tests.

Analytic goldens from the unit-liquidity constant-product algebra:
lvr(q) = sigma**2/4 * sqrt(q), and the one-step realized increment with
py = 1 collapses to (sqrt(q1) - sqrt(q0))**2 / sqrt(q0).  The martingale
Monte Carlo must equal, bit for bit, a plain copy of its step loop that
draws the antithetic mates by concatenating -z, whatever the blocks in
which its worker thread draws the normals; no thread outlives a call.
"""

import math
import sys
import threading

import numpy as np
import pytest

from ammvol import (
    ConcentratedCpmm,
    Cpmm,
    DomainError,
    GbmParams,
    InvalidParams,
    RangeError,
    StableSwap,
    cpmm_unit_lvr_with_rate,
    concentrated_lvr_with_rate,
    dollar_pool_value,
    effective_variance,
    equivalent_cpmm_liquidity,
    implied_fee_rate_dollars,
    instantaneous_lvr,
    mc_fee_plus_terminal_value,
    realized_lvr_increment,
)
from ammvol.fees import _DRAW_BLOCK_BYTES, mc_mean_stderr

CPMM = Cpmm(1.0)
STABLE = StableSwap(100.0, 2.0)


def test_effective_variance_goldens():
    assert effective_variance(GbmParams(0.2)) == pytest.approx(0.04, rel=1e-15)
    assert effective_variance(GbmParams(2.0, 1.0, 0.5)) == pytest.approx(3.0, rel=1e-15)
    assert effective_variance(GbmParams(1.0, 1.0, 1.0)) == 0.0
    assert effective_variance(GbmParams(1.0, 1.0, -1.0)) == pytest.approx(4.0, rel=1e-15)


def test_effective_variance_of_vols_beyond_a_square_root_of_a_double():
    # no square overflows on the way: equal vols at rho = 1 give 0 at any size
    assert effective_variance(GbmParams(1e200, 1e200, 1.0)) == 0.0
    assert effective_variance(GbmParams(1e154, 1e154, 0.9)) == pytest.approx(2e307, rel=1e-14)
    for params in (GbmParams(1e200), GbmParams(1e200, 1e199, 0.5), GbmParams(1e154, 1e154, -1.0)):
        with pytest.raises(InvalidParams, match="beyond the float range"):
            effective_variance(params)
    with pytest.raises(InvalidParams, match="beyond the float range"):
        mc_fee_plus_terminal_value(CPMM, GbmParams(1e200, 1e200, 1.0), 1.0, 1.0, 0.1, 64, 10)


def test_gbm_params_validation():
    with pytest.raises(InvalidParams):
        GbmParams(-0.1)
    with pytest.raises(InvalidParams):
        GbmParams(0.1, rho=1.5)
    with pytest.raises(InvalidParams):
        GbmParams(0.1, sigma_y=-1.0)


def test_gbm_params_dict_round_trip():
    params = GbmParams(0.8, 0.3, 0.5, 0.03)
    assert GbmParams.from_dict(params.to_dict()) == params
    assert GbmParams.from_dict({"sigmaX": 0.4}) == GbmParams(0.4)
    with pytest.raises(InvalidParams):
        GbmParams.from_dict({"sigmaY": 0.4})
    with pytest.raises(InvalidParams):
        GbmParams.from_dict([0.4])


def test_instantaneous_lvr_cpmm_golden():
    # sigma**2/4 * sqrt(q): 0.04/4 at q=1
    assert instantaneous_lvr(CPMM, 1.0, GbmParams(0.2)) == pytest.approx(0.01, rel=1e-14)
    assert instantaneous_lvr(CPMM, 9.0, GbmParams(0.2)) == pytest.approx(0.03, rel=1e-14)


def test_instantaneous_lvr_two_forms_agree():
    # -q**2 x' and +q y' give the same rate on every curve by tangency
    params = GbmParams(0.7, 0.2, -0.4)
    var = effective_variance(params)
    for curve in (CPMM, ConcentratedCpmm(2.0, 0.25, 4.0), StableSwap(100.0, 2.0, 1.0)):
        for q in (0.5, 1.0, 1.9):
            _, yp = curve.first_derivs(q)
            alt = 0.5 * var * q * yp
            assert instantaneous_lvr(curve, q, params) == pytest.approx(alt, rel=1e-9)


# x' is beyond a double near the center of this pool; its liquidity density
# -q**2 x' is the center-1 pool's at q/c
TINY_CENTER = StableSwap(100.0, 2.0, 1e-190)


@pytest.mark.parametrize("q", [1e-190, 1e-150])
def test_a_fee_rate_beyond_a_double_is_a_domain_error(q):
    # the density sqrt(q) * L/2 is finite (5e204 at 1e-190), times
    # sigma**2/2 = 5e199 it is not
    with pytest.raises(DomainError, match="not a finite number"):
        instantaneous_lvr(Cpmm(1e300), q, GbmParams(1e100))


@pytest.mark.parametrize("center", [1e-190, 1e200])
def test_rate_strip_and_liquidity_far_from_center_1_are_the_center_1_values(center):
    # 0.125 * 100.5 at c = 1; the equivalent liquidity is 201 / sqrt(c),
    # since a Cpmm holding the pool's value at c has L = D / (2 sqrt(c))
    curve = StableSwap(100.0, 2.0, center)
    assert instantaneous_lvr(curve, center, GbmParams(0.5)) == pytest.approx(12.5625, rel=1e-12)
    assert equivalent_cpmm_liquidity(curve, center) == pytest.approx(201.0 / math.sqrt(center), rel=1e-12)
    for s in (0.05, 0.5, 3.0):
        leg = curve.floating_leg(1.3 * center, s)
        assert leg == pytest.approx(STABLE.floating_leg(1.3, s), rel=1e-12)
        assert all(math.isfinite(v) and v > 0.0 for v in leg)


def test_a_dollar_fee_rate_beyond_a_double_is_a_domain_error():
    # the rate in y, 2.5e199, is finite; times py = 1e300 it is not
    with pytest.raises(DomainError, match="not a finite number"):
        implied_fee_rate_dollars(CPMM, 1e300, 1e300, GbmParams(1e100))


def test_mc_paths_beyond_a_double_are_a_domain_error():
    # the Monte Carlo reads x', which is beyond a double on this pool
    with pytest.raises(DomainError, match="not a finite number"):
        mc_fee_plus_terminal_value(TINY_CENTER, GbmParams(0.5), 1e-190, 1.0, 0.1, 64, 10, seed=1)


def test_lvr_only_depends_on_effective_variance():
    flat = instantaneous_lvr(CPMM, 2.0, GbmParams(math.sqrt(3.0)))
    combined = instantaneous_lvr(CPMM, 2.0, GbmParams(2.0, 1.0, 0.5))
    assert combined == pytest.approx(flat, rel=1e-12)


def test_implied_fee_rate_dollars_golden():
    params = GbmParams(0.2)
    want = 3.0 * 0.01 * math.sqrt(2.0 / 3.0)
    assert implied_fee_rate_dollars(CPMM, 2.0, 3.0, params) == pytest.approx(want, rel=1e-13)


def test_implied_fee_rate_dollars_homogeneous():
    params = GbmParams(0.5, 0.1, 0.2)
    base = implied_fee_rate_dollars(CPMM, 1.3, 0.7, params)
    assert implied_fee_rate_dollars(CPMM, 2.6, 1.4, params) == pytest.approx(2 * base, rel=1e-12)


def test_cpmm_unit_lvr_with_rate_golden():
    assert cpmm_unit_lvr_with_rate(0.25, 0.1, 0.3) == pytest.approx(0.06125, rel=1e-14)
    # r = 0 reduces to the flat-numeraire rate at unit liquidity
    assert cpmm_unit_lvr_with_rate(4.0, 0.0, 0.2) == pytest.approx(
        instantaneous_lvr(CPMM, 4.0, GbmParams(0.2)), rel=1e-13
    )
    with pytest.raises(InvalidParams):
        cpmm_unit_lvr_with_rate(1.0, -0.1, 0.3)


def test_concentrated_lvr_with_rate_golden():
    got = concentrated_lvr_with_rate(1.0, 0.1, 0.3, 2.0, 0.25, 4.0)
    assert got == pytest.approx(2.0 * (0.1225 - 0.05), rel=1e-14)
    # closed interval: endpoints owe fees
    edge = concentrated_lvr_with_rate(0.25, 0.1, 0.3, 2.0, 0.25, 4.0)
    assert edge == pytest.approx(2.0 * (0.1225 * 0.5 - 0.05), rel=1e-14)
    assert concentrated_lvr_with_rate(0.2, 0.1, 0.3, 2.0, 0.25, 4.0) == 0.0
    assert concentrated_lvr_with_rate(5.0, 0.1, 0.3, 2.0, 0.25, 4.0) == 0.0


@pytest.mark.parametrize(
    "rate",
    [
        lambda: cpmm_unit_lvr_with_rate(1.0, 0.0, 1e200),  # sigma**2 is beyond a double
        lambda: cpmm_unit_lvr_with_rate(1e300, 1e300, 0.0),  # 1e300 * 1e150
        lambda: concentrated_lvr_with_rate(1.0, 0.0, 1e200, 1.0, 0.5, 2.0),
        lambda: concentrated_lvr_with_rate(1e300, 1e200, 0.0, 1.0, 1.0, 1e300),
    ],
    ids=["cpmm-sigma", "cpmm-r", "concentrated-sigma", "concentrated-r"],
)
def test_a_closed_form_rate_beyond_a_double_is_a_domain_error(rate):
    with pytest.raises(DomainError, match="not a finite number"):
        rate()


def test_concentrated_lvr_below_full_range_when_r_positive():
    # the range position never owes the idle money-market rate on the
    # p_lo boundary stock
    for q in (0.3, 1.0, 3.9):
        ranged = concentrated_lvr_with_rate(q, 0.05, 0.4, 3.0, 0.25, 4.0)
        full = 3.0 * cpmm_unit_lvr_with_rate(q, 0.05, 0.4)
        assert ranged < full
    # and matches it exactly when r = 0
    assert concentrated_lvr_with_rate(1.7, 0.0, 0.4, 3.0, 0.25, 4.0) == pytest.approx(
        3.0 * cpmm_unit_lvr_with_rate(1.7, 0.0, 0.4), rel=1e-13
    )


def test_concentrated_lvr_validation():
    with pytest.raises(RangeError):
        concentrated_lvr_with_rate(1.0, 0.1, 0.3, 1.0, 4.0, 0.25)
    with pytest.raises(InvalidParams):
        concentrated_lvr_with_rate(1.0, 0.1, -0.3, 1.0, 0.25, 4.0)


# ----- realized increments --------------------------------------------------------


def test_realized_increment_golden():
    inc = realized_lvr_increment(CPMM.holdings(1.0), 1.0, 1.01, 1.0, 1.0, CPMM)
    assert inc == pytest.approx((math.sqrt(1.01) - 1.0) ** 2, rel=1e-10)


def test_realized_increment_matches_definition_both_legs_moving():
    x, y = CPMM.holdings(1.0)
    inc = realized_lvr_increment(CPMM.holdings(1.0), 1.0, 1.02, 1.0, 0.99, CPMM)
    want = (x * 0.02 + y * -0.01) - (
        dollar_pool_value(CPMM, 1.02, 0.99) - dollar_pool_value(CPMM, 1.0, 1.0)
    )
    assert inc == pytest.approx(want, rel=1e-12)
    assert inc > 0.0


def test_realized_increment_nonnegative_property():
    rng = np.random.Generator(np.random.Philox(11))
    curves = [CPMM, ConcentratedCpmm(1.0, 0.25, 4.0), StableSwap(100.0, 2.0, 1.0)]
    for _ in range(200):
        curve = curves[rng.integers(len(curves))]
        q0 = float(np.exp(rng.uniform(-0.5, 0.5)))
        py0 = float(np.exp(rng.uniform(-0.3, 0.3)))
        px1 = q0 * py0 * float(np.exp(rng.uniform(-0.2, 0.2)))
        py1 = py0 * float(np.exp(rng.uniform(-0.2, 0.2)))
        inc = realized_lvr_increment(curve.holdings(q0), q0 * py0, px1, py0, py1, curve)
        assert inc >= -1e-12


def test_realized_increment_unbiased_one_step():
    # E[inc]/dt -> lvr(q0) as dt -> 0; with exact GBM sampling the residual
    # bias is O(dt), far below Monte Carlo noise here
    sigma, dt, n = 0.5, 1e-4, 200_000
    rng = np.random.Generator(np.random.Philox(17))
    z = rng.standard_normal(n)
    q1 = np.exp(-0.5 * sigma * sigma * dt + sigma * math.sqrt(dt) * z)
    inc = (np.sqrt(q1) - 1.0) ** 2  # unit cpmm, py = 1, q0 = 1
    rate = instantaneous_lvr(CPMM, 1.0, GbmParams(sigma))
    mean = float(inc.mean()) / dt
    se = float(inc.std(ddof=1)) / math.sqrt(n) / dt
    assert abs(mean - rate) <= 3.0 * se
    assert se < 0.01 * rate


def test_realized_increment_gap_shrinks_like_sqrt_dt():
    # The summed gap (realized minus accrued lvr over a fixed horizon) is a
    # mean-zero martingale with per-step variance O(dt**2), so its RMS
    # scales like sqrt(dt): quartering dt should halve it.
    sigma, horizon, n_rep = 0.5, 0.01, 512

    def rms_gap(n_steps, seed):
        dt = horizon / n_steps
        rng = np.random.Generator(np.random.Philox(seed))
        z = rng.standard_normal((n_rep, n_steps))
        logq = np.cumsum(-0.5 * sigma * sigma * dt + sigma * math.sqrt(dt) * z, axis=1)
        rq = np.exp(0.5 * np.hstack([np.zeros((n_rep, 1)), logq]))  # sqrt(q_k)
        incs = (rq[:, 1:] - rq[:, :-1]) ** 2 / rq[:, :-1]
        accrued = 0.25 * sigma * sigma * rq[:, :-1] * dt
        gap = (incs - accrued).sum(axis=1)
        return float(np.sqrt((gap**2).mean()))

    ratio = rms_gap(64, seed=23) / rms_gap(16, seed=29)
    assert 0.35 <= ratio <= 0.7


# ----- martingale engine -----------------------------------------------------------


def test_mc_fee_plus_terminal_value_cpmm():
    params = GbmParams(0.4, 0.2, 0.3, 0.05)
    mean, stderr = mc_fee_plus_terminal_value(
        CPMM, params, p0x=1.2, p0y=0.9, maturity=0.1, n_paths=4000, n_steps=200, seed=3
    )
    assert stderr > 0.0
    want = dollar_pool_value(CPMM, 1.2, 0.9)
    assert abs(mean - want) <= 3.0 * stderr


def test_mc_fee_plus_terminal_value_deterministic():
    params = GbmParams(0.4, 0.2, 0.3, 0.05)
    a = mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 0.1, 512, 16, seed=9)
    b = mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 0.1, 512, 16, seed=9)
    assert a == b
    c = mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 0.1, 512, 16, seed=10)
    assert c != a


def test_mc_validation_and_stablecoin_warning():
    params = GbmParams(0.4)
    with pytest.raises(InvalidParams):
        mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 0.0, 100, 10)
    with pytest.raises(InvalidParams):
        mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 1.0, 1, 10)
    # a count numpy cannot allocate is refused before it reaches numpy
    with pytest.raises(InvalidParams, match="at most"):
        mc_fee_plus_terminal_value(CPMM, params, 1.0, 1.0, 1.0, 10**20, 10)


def reference_fee_plus_terminal_value(curve, params, p0x, p0y, maturity, n_paths, n_steps, seed, antithetic):
    """The martingale Monte Carlo step loop in its plainest form."""
    rng = np.random.Generator(np.random.Philox(seed))
    half = n_paths // 2 if antithetic else n_paths
    n_eff = 2 * half if antithetic else n_paths
    dt = maturity / n_steps
    r = params.r
    sx = params.sigma_x * math.sqrt(dt)
    sy = params.sigma_y * math.sqrt(dt)
    drift_x = (r - 0.5 * params.sigma_x**2) * dt
    drift_y = (r - 0.5 * params.sigma_y**2) * dt
    rho = params.rho
    rho_c = math.sqrt(max(1.0 - rho * rho, 0.0))
    var = effective_variance(params)

    ln_px = np.full(n_eff, math.log(p0x))
    ln_py = np.full(n_eff, math.log(p0y))
    fees = np.zeros(n_eff)
    for k in range(n_steps):
        px = np.exp(ln_px)
        py = np.exp(ln_py)
        q = px / py
        xp = curve.xprime_grid(q)
        fees += xp * q * q * py * (-0.5 * var * math.exp(-r * k * dt) * dt)

        z = rng.standard_normal((2, half))
        if antithetic:
            z = np.concatenate([z, -z], axis=1)
        zx = z[0]
        zy = rho * z[0] + rho_c * z[1]
        ln_px += drift_x + sx * zx
        ln_py += drift_y + sy * zy

    px = np.exp(ln_px)
    py = np.exp(ln_py)
    totals = fees + math.exp(-r * maturity) * py * curve.pool_value_grid(px / py)
    return mc_mean_stderr(totals, antithetic)


# the "-False" suffix keeps the names these cases had beside a variant with a frozen py
@pytest.mark.parametrize("n_paths", [255, 256], ids=lambda n: f"{n}-False")
@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize(
    "curve", [CPMM, ConcentratedCpmm(1.0, 0.5, 2.0), StableSwap(100.0, 2.0, 1.0)], ids=lambda c: c.kind
)
def test_mc_fee_plus_terminal_value_equals_the_plain_loop(curve, antithetic, n_paths):
    params = GbmParams(0.8, 0.3, 0.5, 0.03)
    args = (curve, params, 1.2, 0.9, 0.25, n_paths, 50, 2024, antithetic)
    got = mc_fee_plus_terminal_value(*args)
    want = reference_fee_plus_terminal_value(*args)
    assert got == want


# (n_paths, n_steps, antithetic, the steps of each block the worker draws at
# once): 8 at 10,000 antithetic paths, fewer as the paths grow
BLOCK_CASES = [
    (10_000, 13, True, [8, 5]),  # n_steps not a multiple of the block
    (10_000, 5, True, [5]),  # n_steps below it
    (10_000, 1, True, [1]),
    (32_000, 5, True, [2, 2, 1]),  # the byte budget caps the block below 8
    (10_001, 7, False, [3, 3, 1]),  # odd n_paths, every path drawn
]


@pytest.mark.parametrize(
    "n_paths, n_steps, antithetic, blocks",
    BLOCK_CASES,
    ids=[f"{n_paths}x{n_steps}-{antithetic}" for n_paths, n_steps, antithetic, _ in BLOCK_CASES],
)
def test_mc_blocks_of_draws_equal_the_plain_loop(n_paths, n_steps, antithetic, blocks):
    half = n_paths // 2 if antithetic else n_paths
    block = max(1, min(n_steps, _DRAW_BLOCK_BYTES // (16 * half)))
    assert [min(block, n_steps - start) for start in range(0, n_steps, block)] == blocks
    params = GbmParams(0.8, 0.3, 0.5, 0.03)
    args = (StableSwap(100.0, 2.0, 1.0), params, 1.2, 0.9, 0.25, n_paths, n_steps, 7, antithetic)
    before = threading.active_count()
    got = mc_fee_plus_terminal_value(*args)
    assert threading.active_count() == before
    assert got == reference_fee_plus_terminal_value(*args)


def test_mc_under_thread_stress_equals_the_plain_loop():
    # four runs at once, more threads than cores, switching as often as the
    # interpreter can: a buffer handed back early or filled out of order
    # would change a result
    params = GbmParams(0.8, 0.3, 0.5, 0.03)
    args = (CPMM, params, 1.2, 0.9, 0.25, 10_000, 40, 11, True)
    want = reference_fee_plus_terminal_value(*args)
    results = []
    runs = [threading.Thread(target=lambda: results.append(mc_fee_plus_terminal_value(*args))) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(run.is_alive() for run in runs)
    assert results == [want] * 4


class _FailsMidRun:
    """Cpmm for the martingale Monte Carlo until its x' call ``fail_at``,
    which raises: a curve leaving its domain partway through a run."""

    def __init__(self, fail_at):
        self.calls = 0
        self.fail_at = fail_at

    def xprime_grid(self, qs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise DomainError("price left the domain")
        return CPMM.xprime_grid(qs)

    def pool_value_grid(self, qs):
        return CPMM.pool_value_grid(qs)


def test_mc_error_mid_run_reaches_the_caller_and_joins_the_worker():
    # call 12 is inside the second block of 8 steps, with the third block
    # drawn or being drawn
    curve = _FailsMidRun(fail_at=12)
    before = threading.active_count()
    with pytest.raises(DomainError, match="left the domain"):
        mc_fee_plus_terminal_value(curve, GbmParams(0.4), 1.0, 1.0, 0.1, 10_000, 40, seed=5)
    assert curve.calls == 12
    assert threading.active_count() == before


class _BrokenGenerator:
    """A generator whose draws succeed ``good_draws`` times, then fail."""

    def __init__(self, good_draws=0):
        self.rng = np.random.Generator(np.random.Philox(0))
        self.draws = 0
        self.good_draws = good_draws

    def standard_normal(self, out):
        self.draws += 1
        if self.draws > self.good_draws:
            raise MemoryError("no room for normals")
        return self.rng.standard_normal(out=out)


def _run_with_generator(monkeypatch, generator, curve=CPMM):
    monkeypatch.setattr(np.random, "Generator", lambda bit_generator: generator)
    return mc_fee_plus_terminal_value(curve, GbmParams(0.4), 1.0, 1.0, 0.1, 10_000, 20, seed=5)


def test_a_failed_draw_is_raised_on_the_caller_thread(monkeypatch):
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room"):
        _run_with_generator(monkeypatch, _BrokenGenerator())
    assert threading.active_count() == before


def test_a_draw_failing_on_the_second_block_is_raised_at_its_first_step(monkeypatch):
    # the second block's draw fails while the first block's 8 steps run; the
    # caller meets the failure when it takes that block, after those steps
    generator = _BrokenGenerator(good_draws=1)
    curve = _FailsMidRun(fail_at=None)  # counts its x' calls, never fails
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room"):
        _run_with_generator(monkeypatch, generator, curve)
    assert (generator.draws, curve.calls) == (2, 8)
    assert threading.active_count() == before
