"""The StableSwap price->holdings solve against an independent oracle.

Property tests draw random pools (A in [1e-2, 1e5], D in [1e-3, 1e6],
c in [0.1, 10]) and prices uniform in log q over the whole domain, both
endpoints included, and check the array solve against a bisection in
60-digit decimal arithmetic on the original implicit price formula.  Other
tests pin the solve's failure modes: an exhausted iteration budget raises
NoConvergence (exit code 6 on the CLI) instead of returning an unconverged
holding, and the package imports without scipy.  The last ones hold the
dense seed table to its purpose: the solve returns its nodes, takes one
evaluation of the price map per price, and is shared across pool scales;
and where a far-tail price still takes a second evaluation, its result is
the one it gets alone.  The table builds itself from its two end nodes
within two evaluations per node, x' reads the table without evaluating the
price map at all, and a fresh pool's first floating-leg strip solves only
its three placement prices beyond the strip's nodes.
"""

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
from ammvol import DomainError, NoConvergence, StableSwap
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


def test_cli_maps_exhausted_solve_to_no_convergence(monkeypatch, capsys):
    exhaust_solve_budget(monkeypatch)
    request = {"curve": {"kind": "stableswap", "A": 100.0, "D": 2.0}, "T": 1.0, "p0x": 1.0, "sigma": 0.3}
    code = main(["price-swap", json.dumps(request)])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "no_convergence"


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
    small = curve._solve_targets(t)[0]
    w = seed.w + math.log(curve.invariant_scale)
    assert np.max(np.abs(np.log(small) - w)) <= ammvol.curves._SOLVE_XTOL, curve


def assert_one_evaluation_per_price(curve, qs):
    lo, hi = curve.q_bounds
    curve.holdings_grid(np.array([curve.price_center]))  # the table build is not per price
    with counted_evaluations() as points:
        x, y = curve.holdings_grid(qs)
    assert points[0] <= 1.01 * qs.size, (curve, points[0] / qs.size)
    for i in range(0, qs.size, 1000):
        assert tuple(curve.holdings(float(np.clip(qs[i], lo, hi)))) == (x[i], y[i])


# log(px/py) of the martingale check: sigma_x 0.8, sigma_y 0.3, rho 0.5, T 0.25
MC_LOG_SPREAD = math.sqrt((0.8**2 + 0.3**2 - 2.0 * 0.5 * 0.8 * 0.3) * 0.25)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(pools, st.integers(0, 2**32 - 1))
def test_seeded_solve_takes_one_evaluation_per_price_of_the_martingale_spread(curve, draw):
    rng = np.random.default_rng(draw)
    c = curve.price_center
    qs = c * np.exp(rng.standard_normal(10_000) * MC_LOG_SPREAD * np.sqrt(rng.uniform(0.0, 1.0, 10_000)))
    qs[:100] = c  # every path starts at the center
    assert_one_evaluation_per_price(curve, qs)


# the seed table reaches rounding in the far tail for A up to 1e4 (see
# _SEED_NODES); beyond that a few percent of these prices take two evaluations
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.builds(StableSwap, log_decade(-2.0, 4.0), log_decade(-3.0, 6.0), log_decade(-1.0, 1.0)),
       st.integers(0, 2**32 - 1))
def test_seeded_solve_takes_one_evaluation_per_price_uniform_in_log_q(curve, draw):
    lo, hi = curve.q_bounds
    qs = np.exp(np.random.default_rng(draw).uniform(math.log(lo), math.log(hi), 10_000))
    assert_one_evaluation_per_price(curve, qs)


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
    # at A = 1e5 a few far-tail prices miss rounding from the seed and
    # iterate again; each element must not depend on its neighbours
    curve = StableSwap(1e5, 2.0, 3.0)
    lo, hi = curve.q_bounds
    qs = np.exp(np.random.default_rng(1).uniform(math.log(lo), math.log(hi), 400))
    curve.holdings_grid(np.array([curve.price_center]))  # the table build is not per price
    with counted_evaluations() as points:
        x, y = curve.holdings_grid(qs)
    assert qs.size < points[0] < 2 * qs.size  # first-evaluation freezes and stragglers
    xp = curve.xprime_grid(qs)
    stragglers = []
    for i, q in enumerate(qs):
        alone = qs[i : i + 1]
        with counted_evaluations() as points:
            assert tuple(a[0] for a in curve.holdings_grid(alone)) == (x[i], y[i]), q
        if points[0] > 1:
            stragglers.append(i)
        assert curve.xprime_grid(alone)[0] == xp[i], q
        x_ref, y_ref = stable_x_y_oracle(curve, float(q))
        assert x[i] == pytest.approx(x_ref, rel=1e-11), q
        assert y[i] == pytest.approx(y_ref, rel=1e-11), q
    # their outputs are the converged iterate's, whose Newton step is
    # rounding, not the first evaluation's, which moved more than _SOLVE_XTOL
    _, small, _, _, _, step = curve._grid_solve(qs[stragglers])
    assert np.all(np.abs(step - np.log(small)) <= 0.1 * ammvol.curves._SOLVE_XTOL)


def test_cold_seed_table_build_takes_at_most_two_evaluations_per_node():
    builds = {}
    for amplification in (1e-2, 1.0, 100.0, 1e4, 1e5):
        with counted_evaluations() as points:
            ammvol.curves._seed_table.__wrapped__(amplification)  # bypasses the cache
        builds[amplification] = points[0]
    assert max(builds.values()) <= 2 * ammvol.curves._SEED_NODES, builds


@pytest.mark.parametrize("center", [0.6, 1.0, 3.0])
def test_xprime_grid_reads_the_table_without_evaluating_the_price_map(center):
    curve = StableSwap(1e4, 2.0, center)
    lo, hi = curve.q_bounds
    qs = np.exp(np.random.default_rng(5).uniform(math.log(lo), math.log(hi), 10_000))
    curve.holdings_grid(np.array([center]))  # the table build is not per price
    with counted_evaluations() as points:
        curve.xprime_grid(qs)
    assert points[0] == 0


def test_first_strip_on_a_fresh_copy_evaluates_little_beyond_its_nodes():
    # scaling evaluates the pool value, which builds the shared seed table
    fresh = StableSwap(100.0, 2.0, 1.0).scaled_to_value(100.0, 1.0)
    with counted_evaluations() as points:
        fresh.floating_leg(1.0, 0.05)
    # the spot splits the strip in two, each with an end node of its own
    assert points[0] <= ammvol.curves._STRIP_INTERVALS + 2 + 8
