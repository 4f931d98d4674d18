"""The StableSwap price->holdings solve against an independent oracle.

Property tests draw random pools (A in [1e-2, 1e5], D in [1e-3, 1e6],
c in [0.1, 10]) and prices uniform in log q over the whole domain, both
endpoints included, and check the array solve against a bisection in
60-digit decimal arithmetic on the original implicit price formula.  The
solve runs on the unit pool, so at every D from 1e-300 to 1e300 the
holdings, value and density are D times the unit pool's, and a D is
refused only where they overflow.  A digest
pins the bytes of the four kernels on six pools.  Other tests pin the
solve's failure modes: an exhausted iteration budget, or a table that
cannot seed within rounding, raises NoConvergence (exit code 6 on the CLI)
instead of returning an unconverged holding, and the package imports
without scipy.  The last ones hold the dense seed table to its purpose: the
solve returns its nodes, and the table is shared across pool scales and
centers.  It builds itself from its two end nodes within three evaluations
of the price map per node, the check of its cell midpoints included, and
seeds every price within _SOLVE_XTOL of its root for A up to 1e9.  The
holdings, value and x' read the table without evaluating the price map at
all, and a fresh pool's first floating-leg strip solves only its three
placement prices beyond the strip's nodes.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ammvol.curves
from ammvol import DomainError, InvalidParams, NoConvergence, StableSwap
from ammvol.cli import main

ROOT = Path(__file__).resolve().parent.parent


def stable_x_y_oracle(curve, q):
    """Holdings at price q by bisection on u in 60-digit decimals.

    v is the positive root of the invariant's quadratic in v and the price
    is c*N1/N2 with N1 = 4A + k/(u**2 v), N2 = 4A + k/(u v**2), k = D**3/4,
    strictly decreasing in u.  The bracket spans every holding above a
    1e-13 fraction of D, wider than the curve's own domain.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        A = Decimal(curve.amplification)
        D = Decimal(curve.invariant_scale)
        c = Decimal(curve.price_center)
        k = D**3 / 4

        def v_and_price(u):
            a = 16 * A * u
            b = 4 * u * (4 * A * (u - D) + D)
            v = (-b + (b * b + 4 * a * D**3).sqrt()) / (2 * a)
            return v, c * (4 * A + k / (u * u * v)) / (4 * A + k / (u * v * v))

        target = Decimal(q)
        lo = Decimal("1e-13") * D * min(c, Decimal(1))
        hi = Decimal("1e8") * D
        while hi / lo - 1 > Decimal("1e-30"):
            mid = (lo * hi).sqrt()
            if v_and_price(mid)[1] > target:
                lo = mid
            else:
                hi = mid
        u = (lo * hi).sqrt()
        return float(u / c), float(v_and_price(u)[0])


def log_decade(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


pools = st.builds(StableSwap, log_decade(-2.0, 5.0), log_decade(-3.0, 6.0), log_decade(-1.0, 1.0))
fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)


def domain_prices(curve, fracs):
    """Prices uniform in log q at the given fractions, plus both endpoints."""
    lo, hi = curve.q_bounds
    inner = np.exp(math.log(lo) + np.asarray(fracs) * (math.log(hi) - math.log(lo)))
    return np.sort(np.concatenate([[lo, hi], np.clip(inner, lo, hi)]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pools, fractions)
# the flat center of a strongly amplified pool, where q barely moves with u,
# and the steep side where v << u and v barely constrains the price
@example(StableSwap(1e5, 1.0, 3.0), [0.5, 0.5 + 1e-7, 0.5 - 1e-6, 0.501])
@example(StableSwap(2.19e4, 1.36e5, 0.157), [0.456392, 0.3])
# D = 1e100, whose cube overflows a double, and D = 1e-100
@example(StableSwap(100.0, 1e100, 3.0), [0.2, 0.5, 0.9])
@example(StableSwap(3e3, 1e-100, 0.3), [0.1, 0.5, 0.7])
def test_holdings_grid_matches_decimal_oracle(curve, fracs):
    qs = domain_prices(curve, fracs)
    x, y = curve.holdings_grid(qs)
    for i, q in enumerate(qs):
        x_ref, y_ref = stable_x_y_oracle(curve, float(q))
        assert x[i] == pytest.approx(x_ref, rel=1e-11), (curve, q)
        assert y[i] == pytest.approx(y_ref, rel=1e-11), (curve, q)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pools, fractions)
def test_scalar_holdings_equal_array_elements_and_x_falls(curve, fracs):
    qs = domain_prices(curve, fracs)
    x, y = curve.holdings_grid(qs)
    for i, q in enumerate(qs):
        assert tuple(curve.holdings(float(q))) == (x[i], y[i])
    assert np.all(np.diff(x) <= 0.0)
    assert np.all(np.diff(y) >= 0.0)


def assert_within_one_ulp(got, want):
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), np.max(np.abs(got / want - 1.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_decade(-2.0, 5.0), log_decade(-300.0, 300.0), log_decade(-1.0, 1.0), fractions)
@example(1e-2, 1e300, 0.1, [0.5])
@example(1e5, 1e-300, 10.0, [0.5])
def test_every_scale_is_d_times_the_unit_pool(amplification, scale, center, fracs):
    unit = StableSwap(amplification, 1.0, center)
    lo, hi = unit.q_bounds
    qs = np.concatenate([domain_prices(unit, fracs), [0.5 * lo, 2.0 * hi]])
    curve = StableSwap(amplification, scale, center)
    x1, y1 = unit.holdings_grid(qs)
    x, y = curve.holdings_grid(qs)
    assert_within_one_ulp(x, scale * x1)
    assert_within_one_ulp(y, scale * y1)
    assert_within_one_ulp(curve.pool_value_grid(qs), scale * unit.pool_value_grid(qs))
    assert_within_one_ulp(curve.liquidity_grid(qs), scale * unit.liquidity_grid(qs))


@pytest.mark.parametrize("amplification, center", [(1e-2, 0.1), (100.0, 1.0), (1e5, 10.0)])
def test_only_a_scale_whose_holdings_or_value_overflow_is_refused(amplification, center):
    # the largest holding, x at the lower end of the domain or y at the
    # upper, and the value there are D times the unit pool's
    unit = StableSwap(amplification, 1.0, center)
    ends = np.array(unit.q_bounds)
    x, y = unit.holdings_grid(ends)
    largest = max(*x, *y, *unit.pool_value_grid(ends))
    fits = sys.float_info.max / largest
    StableSwap(amplification, 0.999 * fits, center).holdings_grid(ends)
    with pytest.raises(InvalidParams, match="holdings or value"):
        StableSwap(amplification, 1.001 * fits, center)


def exhaust_solve_budget(monkeypatch):
    # one iteration, and only an exact root may freeze: the dense seed
    # table would otherwise freeze nearly every price at its first one
    monkeypatch.setattr(ammvol.curves, "_SOLVE_MAX_ITER", 1)
    monkeypatch.setattr(ammvol.curves, "_SOLVE_XTOL", 0.0)
    monkeypatch.setattr(ammvol.curves, "_SOLVE_RTOL", 0.0)
    # a cached table answers xprime_grid without a solve, so drop it: the
    # first kernel call then builds its table under the exhausted budget
    ammvol.curves._seed_table.cache_clear()


def test_exhausted_iteration_budget_raises(monkeypatch):
    curve = StableSwap(100.0, 2.0, 1.0)
    exhaust_solve_budget(monkeypatch)
    with pytest.raises(NoConvergence):
        curve.holdings_grid(np.array([1.3]))
    with pytest.raises(NoConvergence):
        curve.xprime_grid(np.array([0.7, 1.3]))


def assert_price_swap_exits_no_convergence(capsys, amplification):
    request = {"curve": {"kind": "stableswap", "A": amplification, "D": 2.0}, "T": 1.0, "p0x": 1.0, "sigma": 0.3}
    code = main(["price-swap", json.dumps(request)])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "no_convergence"


def test_cli_maps_exhausted_solve_to_no_convergence(monkeypatch, capsys):
    exhaust_solve_budget(monkeypatch)
    assert_price_swap_exits_no_convergence(capsys, 100.0)


@pytest.mark.parametrize(
    "setting, value, amplification, message",
    [
        # no seed lies within 0 of its root, so the level solves never freeze
        ("_SOLVE_XTOL", 0.0, 100.0, "unconverged"),
        # the 16,384-node table seeds A = 1e6 midpoints 7e-13 from their roots
        ("_SEED_HALVINGS", 0, 1e6, "cell midpoint"),
    ],
)
def test_a_table_that_cannot_seed_within_xtol_is_no_convergence(monkeypatch, capsys, setting, value,
                                                                amplification, message):
    monkeypatch.setattr(ammvol.curves, setting, value)
    ammvol.curves._seed_table.cache_clear()  # a cached table would skip the build
    with pytest.raises(NoConvergence, match=message):
        StableSwap(amplification, 1.0).holdings_grid(np.array([1.3]))
    assert_price_swap_exits_no_convergence(capsys, amplification)


# sha256 of the float64 bytes of the four kernels: a change to any bit of any
# value shows here.  numpy evaluates float64 exp and log with its own AVX-512
# code where the CPU has it and with the C library's otherwise, which differ
# in the last bit of some values, so each path has its digest.
KERNEL_DIGESTS = {
    "AVX-512 exp/log": "56be5be351f81bf491a14226973ab1589a75f5f691982f57bc88633118a9669b",
    "libm exp/log": "bfee479a9cef09fe7ec7d44d9895f799df9b539427fa783d216aa8093bdb20a3",
}


def test_kernel_outputs_are_pinned_by_digest():
    digest = hashlib.sha256()
    for amplification in (1.0, 100.0, 1e4):
        for center in (1.0, 123.4):
            curve = StableSwap(amplification, 2.0, center)
            lo, hi = curve.q_bounds
            # 999 prices log-uniform inside the domain, and its two ends
            qs = np.concatenate([[lo], np.exp(np.linspace(math.log(lo), math.log(hi), 1001)[1:-1]), [hi]])
            s = np.where(np.arange(qs.size) % 2 == 0, 0.05, 0.8)  # both sides of _BAND_SPLIT
            kernels = (
                *curve.holdings_grid(qs),
                curve.pool_value_grid(qs),
                curve.liquidity_grid(qs),
                *curve.floating_leg_grid(qs[::10], s[::10]),
            )
            for values in kernels:
                digest.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    assert digest.hexdigest() in KERNEL_DIGESTS.values()


def test_nan_price_grid_is_a_domain_error():
    with pytest.raises(DomainError):
        StableSwap(100.0, 2.0, 1.0).holdings_grid(np.array([1.0, math.nan]))


def test_package_imports_without_scipy():
    # scipy.optimize and scipy.special were most of the CLI's import footprint
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, ammvol, ammvol.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ----- the dense seed table -------------------------------------------------------


@contextmanager
def counted_evaluations():
    """Count the log u points StableSwap._grid_eval is called on."""
    points = [0]
    original = StableSwap._grid_eval

    def counted(self, log_u):
        points[0] += np.size(log_u)
        return original(self, log_u)

    StableSwap._grid_eval = counted
    try:
        yield points
    finally:
        StableSwap._grid_eval = original


def seed_of(curve):
    return ammvol.curves._seed_table(curve.amplification)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(pools)
def test_solve_at_every_seed_node_returns_the_node(curve):
    seed = seed_of(curve)
    t = np.minimum(seed.tau * np.expm1(np.arange(seed.w.size) * seed.h), seed.t_max)
    # the solve runs on the unit pool, whatever the pool's own D
    small = curve._newton(t, *ammvol.curves._dense_seed(seed, t))[0]
    assert np.max(np.abs(np.log(small) - seed.w)) <= ammvol.curves._SOLVE_XTOL, curve


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(log_decade(-2.0, 5.0), log_decade(-3.0, 6.0), log_decade(-3.0, 6.0), log_decade(-1.0, 1.0))
def test_pools_differing_only_in_scale_share_one_seed_table(amplification, d1, d2, center):
    first = StableSwap(amplification, d1, center)
    first.holdings_grid(np.array([center]))
    before = ammvol.curves._seed_table.cache_info()
    second = StableSwap(amplification, d2, center)
    second.holdings_grid(np.array([center * 1.01]))
    first.scaled_to_value(3.0, center).holdings_grid(np.array([center / 1.01]))
    after = ammvol.curves._seed_table.cache_info()
    assert after.misses == before.misses
    assert seed_of(second) is seed_of(first)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(log_decade(-2.0, 5.0), log_decade(-200.0, 200.0), log_decade(-200.0, 200.0))
def test_pools_differing_only_in_center_share_one_seed_table(amplification, c1, c2):
    first = StableSwap(amplification, 2.0, c1)
    first.holdings_grid(np.array([c1]))
    before = ammvol.curves._seed_table.cache_info()
    second = StableSwap(amplification, 2.0, c2)
    second.holdings_grid(np.array([c2 * 1.01]))
    second.liquidity_grid(np.array([c2 / 1.01]))
    after = ammvol.curves._seed_table.cache_info()
    assert after.misses == before.misses
    assert seed_of(second) is seed_of(first)


def test_stragglers_written_back_equal_their_solve_alone():
    # at A = 1e5 the 16,384-node table left a few far-tail seeds beyond
    # _SOLVE_XTOL, which a second evaluation wrote back; the halved table
    # seeds every price within it, and each element must not depend on its
    # neighbours
    curve = StableSwap(1e5, 2.0, 3.0)
    lo, hi = curve.q_bounds
    qs = np.exp(np.random.default_rng(1).uniform(math.log(lo), math.log(hi), 400))
    x, y = curve.holdings_grid(qs)
    xp = curve.xprime_grid(qs)
    for i, q in enumerate(qs):
        alone = qs[i : i + 1]
        assert tuple(a[0] for a in curve.holdings_grid(alone)) == (x[i], y[i]), q
        assert curve.xprime_grid(alone)[0] == xp[i], q
        x_ref, y_ref = stable_x_y_oracle(curve, float(q))
        assert x[i] == pytest.approx(x_ref, rel=1e-11), q
        assert y[i] == pytest.approx(y_ref, rel=1e-11), q
    _, t = curve._distance(qs)
    start, w_lo, w_hi = ammvol.curves._dense_seed(seed_of(curve), t)
    root = curve._newton(t, start.copy(), w_lo, w_hi)[4]
    assert np.max(np.abs(root - start)) <= ammvol.curves._SOLVE_XTOL


@pytest.mark.parametrize("amplification", [3e4, 1e6, 1e9])
def test_holdings_of_a_halved_table_match_decimal_oracle(amplification):
    # these amplifications take a finer table than _SEED_NODES nodes
    curve = StableSwap(amplification, 2.0, 0.7)
    assert seed_of(curve).w.size > ammvol.curves._SEED_NODES
    qs = domain_prices(curve, np.random.default_rng(3).uniform(0.0, 1.0, 30))
    x, y = curve.holdings_grid(qs)
    for i, q in enumerate(qs):
        x_ref, y_ref = stable_x_y_oracle(curve, float(q))
        assert x[i] == pytest.approx(x_ref, rel=1e-11), (curve, q)
        assert y[i] == pytest.approx(y_ref, rel=1e-11), (curve, q)


def test_cold_seed_table_build_takes_at_most_three_evaluations_per_node():
    # about two per node for the levels, and one per cell midpoint for the
    # check; a halving solves the old midpoints as its new nodes
    per_node = {}
    for amplification in (1e-2, 1.0, 100.0, 1e4, 1e5, 1e9):
        with counted_evaluations() as points:
            seed = ammvol.curves._seed_table.__wrapped__(amplification)  # bypasses the cache
        per_node[amplification] = points[0] / seed.w.size
    assert max(per_node.values()) <= 3.0, per_node


@pytest.mark.parametrize(
    "center, kernel, amplification",
    [(c, k, a) for c in (0.6, 1.0, 3.0) for k in ("xprime_grid", "holdings_grid", "pool_value_grid")
     for a in (1e-2, 1e4, 1e6, 1e9)],
)
def test_xprime_grid_reads_the_table_without_evaluating_the_price_map(center, kernel, amplification):
    # and so do the holdings and the pool value
    curve = StableSwap(amplification, 2.0, center)
    lo, hi = curve.q_bounds
    qs = np.exp(np.random.default_rng(5).uniform(math.log(lo), math.log(hi), 10_000))
    qs[:100] = center  # a Monte Carlo run starts every path at the center
    with counted_evaluations() as points:
        getattr(curve, kernel)(qs)
    assert points[0] == 0


def test_first_strip_on_a_fresh_copy_evaluates_little_beyond_its_nodes():
    # scaling evaluates the pool value, which builds the shared seed table
    fresh = StableSwap(100.0, 2.0, 1.0).scaled_to_value(100.0, 1.0)
    with counted_evaluations() as points:
        fresh.floating_leg(1.0, 0.05)
    # the spot splits the strip in two, each with an end node of its own
    assert points[0] <= ammvol.curves._STRIP_INTERVALS + 2 + 8
