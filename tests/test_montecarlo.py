import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc
from scipy.special import gamma as gamma_fn

from sbmpot import bernstein, harnack, montecarlo as mc, rng
from sbmpot.errors import ConstructionError, EvaluationDomainError, NumericAccuracyError


def _cfg(paths=4000, seed=11, **kw):
    kw.setdefault("horizon", 50.0)
    kw.setdefault("step", 1e-3)
    return mc.PathConfig(paths=paths, seed=seed, **kw)


def _exact_ball_mean_tau(d, alpha, r, x):
    num = math.gamma(d / 2.0)
    den = 2.0**alpha * math.gamma(1.0 + alpha / 2.0) * math.gamma((d + alpha) / 2.0)
    return num / den * (r**2 - x**2) ** (alpha / 2.0)


def test_config_validation():
    with pytest.raises(ConstructionError):
        mc.PathConfig(paths=0, seed=1, horizon=1.0, step=1e-3)
    with pytest.raises(ConstructionError):
        mc.PathConfig(paths=10, seed=1, horizon=1.0, step=2.0)
    for step, horizon in ((math.nan, 1.0), (1e-3, math.nan), (1e-3, math.inf)):
        with pytest.raises(ConstructionError):
            mc.PathConfig(paths=10, seed=1, horizon=horizon, step=step)
    with pytest.raises(ConstructionError):
        mc.PathConfig(paths=10, seed=1, horizon=1.0, step=1e-3, epsilon=1.5)
    # the seed is the 64-bit Philox key and the step index a 32-bit counter
    # word: an out-of-range seed or step would alias another address
    for seed in (-1, 2**64, 1.7):
        with pytest.raises(ConstructionError, match="seed"):
            mc.PathConfig(paths=10, seed=seed, horizon=1.0, step=1e-3)
    with pytest.raises(ConstructionError, match="2\\*\\*32"):
        mc.PathConfig(paths=10, seed=1, horizon=2.0**32 + 1.0, step=1.0)
    mc.PathConfig(paths=10, seed=2**64 - 1, horizon=2.0**32, step=1.0)
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConstructionError):
            mc.Ball(center=(0.0,), radius=radius)
    for lo, hi in ((-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (1.0, 0.0)):
        with pytest.raises(ConstructionError):
            mc.Interval(lo, hi)


@pytest.mark.parametrize("domain, point", [
    (mc.Ball(center=(0.0, 0.0), radius=5.0), (3.0, -4.0)),
    (mc.Interval(-1.0, 2.0), (-1.0,)),
    (mc.Interval(-1.0, 2.0), (2.0,)),
    # on the enclosing boundary, and on the boundary of the (closed) target
    (mc._Punctured(mc.Ball(center=(0.0,), radius=4.0), mc.Interval(1.0, 2.0)), (4.0,)),
    (mc._Punctured(mc.Ball(center=(0.0,), radius=4.0), mc.Interval(1.0, 2.0)), (1.0,)),
], ids=["ball", "interval-lo", "interval-hi", "punctured-outer", "punctured-target"])
def test_boundary_point_has_gap_zero(domain, point):
    # on the boundary: outside (gap <= 0), but not strictly (gap < 0)
    gap = domain.gap(np.array([point]))
    assert gap[0] == 0.0 and not gap[0] < 0.0


def test_boundary_start_exits_immediately():
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    sample = mc.simulate_exits(phi, ball, [1.0], _cfg(paths=50))
    assert np.all(sample.tau == 0.0)


def test_outside_start_rejected():
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    with pytest.raises(EvaluationDomainError):
        mc.simulate_exits(phi, ball, [1.5], _cfg(paths=10))


def test_start_of_wrong_shape_rejected():
    # a start is one point of the domain's dimension: a 2-D point in a 1-D
    # ball, a 1-D point in a 2-D one and two points are refused, never
    # reshaped into a start from their first coordinates
    phi = bernstein.stable(1.0)
    one, two = mc.Ball(center=(0.0,), radius=1.0), mc.Ball(center=(0.0, 0.0), radius=1.0)
    for ball, x0, match in ((one, [0.9, 0.0], "shape"), (two, [0.1], "shape"),
                            (one, [[0.1], [0.2]], "one point"), (one, 0.5, "shape")):
        with pytest.raises(EvaluationDomainError, match=match):
            mc.simulate_exits(phi, ball, x0, _cfg(paths=10))
        with pytest.raises(EvaluationDomainError, match=match):
            mc.exit_distribution_histogram(phi, ball, x0, [1.0, 2.0], _cfg(paths=10))
    # (d,) and (1, d) are the same start
    a = mc.simulate_exits(phi, two, [0.1, 0.2], _cfg(paths=20, step=1e-2))
    b = mc.simulate_exits(phi, two, [[0.1, 0.2]], _cfg(paths=20, step=1e-2))
    assert _sample_digest(a) == _sample_digest(b)


def test_zero_increment():
    phi = bernstein.stable(1.0)
    inc = mc.sample_subordinator_increment(phi, 0.0, _cfg(paths=32))
    assert np.all(inc == 0.0)


def test_increment_negative_dt_rejected():
    phi = bernstein.stable(1.0)
    with pytest.raises(EvaluationDomainError):
        mc.sample_subordinator_increment(phi, -0.5, _cfg(paths=8))


def test_exact_exit_time_oracle_d1():
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    sample = mc.simulate_exits(phi, ball, [0.0], _cfg(paths=20000))
    est = sample.mean_tau()
    exact = _exact_ball_mean_tau(1, 1.0, 1.0, 0.0)
    assert abs(est.mean - exact) < 4.0 * est.std_error + 0.01 * exact
    assert sample.censored == 0


def test_compound_matches_exact_route(monkeypatch):
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    a = mc.simulate_exits(phi, ball, [0.0], _cfg(paths=12000))
    monkeypatch.setattr(mc, "_exact_increments", lambda phi: False)
    b = mc.simulate_exits(phi, ball, [0.0], _cfg(paths=12000))
    ea, eb = a.mean_tau(), b.mean_tau()
    assert abs(ea.mean - eb.mean) < 4.0 * math.hypot(ea.std_error, eb.std_error)


def test_determinism_across_batches(monkeypatch):
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    base = mc.simulate_exits(phi, ball, [0.0], _cfg(paths=3000))
    monkeypatch.setattr(mc, "_BATCH_SIZE", 700)
    alt = mc.simulate_exits(phi, ball, [0.0], _cfg(paths=3000))
    assert np.array_equal(base.tau, alt.tau)
    assert np.array_equal(base.exit_position, alt.exit_position)


def test_compound_determinism_across_batches(monkeypatch):
    phi = bernstein.sum_of_stables(1.0, 0.5)
    ball = mc.Ball(center=(0.0,) * 3, radius=1.0)
    base = mc.simulate_exits(phi, ball, [0.0] * 3, _cfg(paths=1500, step=2e-3))
    monkeypatch.setattr(mc, "_BATCH_SIZE", 700)
    alt = mc.simulate_exits(phi, ball, [0.0] * 3, _cfg(paths=1500, step=2e-3))
    assert np.array_equal(base.tau, alt.tau)
    assert np.array_equal(base.exit_position, alt.exit_position)
    assert np.array_equal(base.exited_by_jump, alt.exited_by_jump)
    assert 0.0 < base.exited_by_jump.mean() < 1.0


def _sample_digest(sample):
    h = hashlib.sha256()
    for a in (sample.tau, sample.exit_position, sample.exited_by_jump):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_exact_march_bits_pinned():
    sample = mc.simulate_exits(bernstein.stable(1.0), mc.Ball(center=(0.0,), radius=1.0),
                               [0.3], _cfg(paths=400, seed=23))
    assert _sample_digest(sample) == (
        "6c3d6fcd237a534ca14cfc9f85451fd0dca98c78f292024ae1aabb32d862e5fa")


@pytest.mark.parametrize("alpha, x0, paths, seed, digest", [
    (0.5, (0.1, 0.0, -0.2), 2500, 31,
     "067e72d71100406faf79e4ec4ca494332eb7294e2d8c6e386aa1b636b87e8a27"),
    (1.5, (0.0, 0.4), 2000, 37,
     "4b866c6a7d89e2300c5842867209ce11be908e22498709fd2dea2964b8f98260"),
])
def test_exact_chunked_march_bits_pinned(alpha, x0, paths, seed, digest):
    # thousands of paths in one batch, so the chunk length grows several
    # times as they exit; captured while the march drew one step per call
    d = len(x0)
    sample = mc.simulate_exits(bernstein.stable(alpha), mc.Ball(center=(0.0,) * d, radius=1.0),
                               list(x0), _cfg(paths=paths, seed=seed, step=1e-2))
    assert _sample_digest(sample) == digest


def test_exact_chunk_length_is_invisible(monkeypatch):
    # a batch of 1 path draws one step per Philox call, batches of 7 draw 1
    # to 7 steps, and one batch of 40 paths draws up to _MAX_CHUNK_STEPS
    ball = mc.Ball(center=(0.0,), radius=1.0)
    for batch_size in (1, 7, 16384):
        monkeypatch.setattr(mc, "_BATCH_SIZE", batch_size)
        sample = mc.simulate_exits(bernstein.stable(1.0), ball, [0.3],
                                   _cfg(paths=40, seed=47, step=1e-2))
        assert _sample_digest(sample) == (
            "7014be469de500580164e26c034c0573b6d2be820b96af05b4ae83c6dd4956d7"), batch_size


@pytest.mark.parametrize("make_phi, x0, paths, seed, step, digest", [
    # at d = 3 a jump slot takes three channels, its size and two direction
    # pairs (rng.jump_channel), so no slot reads another's draws. The drift
    # of the sum kind is a real-axis integral, 2e-16 off its closed form (4e-12 by Talbot)
    (lambda: bernstein.sum_of_stables(1.0, 0.5), (0.2, -0.1, 0.0), 300, 29, 2e-3,
     "ab6a7f51172759fbfde64dd4fd59850e20a6e5711edd9b20076d115fec95fff2"),
    # rate*dt about 3.6 and 3.7: steps carry ten jumps and more, so the
    # first chunks of a few hundred paths hold only three to six steps
    (lambda: bernstein.relativistic_stable(1.0, 1.0), (0.1, -0.3), 300, 41, 0.065,
     "a9f186f416e282f7dbca1875c81bbba0a135332d98014eaee3ac5ace27056d84"),
    (lambda: bernstein.log_perturbed_up(1.0, 0.5), (0.25,), 400, 43, 0.04,
     "b96ebb33c0cd111de44e3c684e13ee6a73baf75fe6417070f4287977bf8e6228"),
], ids=["sum-d3", "relativistic-d2", "log_up-d1"])
def test_compound_march_bits_pinned(make_phi, x0, paths, seed, step, digest):
    d = len(x0)
    sample = mc.simulate_exits(make_phi(), mc.Ball(center=(0.0,) * d, radius=1.0), list(x0),
                               _cfg(paths=paths, seed=seed, step=step))
    assert 0.0 < sample.exited_by_jump.mean() < 1.0
    assert _sample_digest(sample) == digest


def test_compound_chunk_length_is_invisible(monkeypatch):
    # batches of 1 path march one step per chunk, batches of 7 one to three,
    # one batch of 40 paths dozens up to _MAX_CHUNK_STEPS; paths exit on
    # jumps and on the continuous move
    ball = mc.Ball(center=(0.0,), radius=1.0)
    for batch_size in (1, 7, 16384):
        monkeypatch.setattr(mc, "_BATCH_SIZE", batch_size)
        sample = mc.simulate_exits(bernstein.relativistic_stable(1.0, 1.0), ball, [0.9],
                                   _cfg(paths=40, seed=53, step=0.05))
        assert 0.0 < sample.exited_by_jump.mean() < 1.0
        assert _sample_digest(sample) == (
            "b2dace3ab037b24102b838380478adeff5d822044d0800f4e86fe76c3dcf5633"), batch_size


def test_first_compound_count_draw_is_sized_by_rate(monkeypatch):
    # one batch of 400 paths, budget 16384 // 400 = 40 sub-moves per path;
    # at rate*dt = 2.77 the first count draw holds 40 // 3.77 = 10 steps,
    # where one sub-move per step drew 40
    drawn = []
    pair = rng.PhiloxStream.uniform_pair

    def counting(self, channel, step, path_ids, **kw):
        u, w = pair(self, channel, step, path_ids, **kw)
        if channel == rng.CH_SUB:
            drawn.append(u.size)
        return u, w

    monkeypatch.setattr(rng.PhiloxStream, "uniform_pair", counting)
    phi, cfg = bernstein.relativistic_stable(1.0, 1.0), _cfg(paths=400, seed=53, step=0.05)
    assert mc._Increments(phi, cfg, cfg.step).mean_jumps == pytest.approx(2.77, abs=0.01)
    drawn.clear()
    mc.simulate_exits(phi, mc.Ball(center=(0.0,), radius=1.0), [0.0], cfg)
    assert drawn[0] == 10 * 400
    assert sum(drawn) == 22396


@pytest.mark.parametrize("batch_size, n, steps", [
    # 350 rows: the draw's budget, 1024 // 50 = 20 steps of 50 ids, is under
    # the path array's cap, 4 * 16384 // 350 = 187
    (1024, 50, 20),
    # 700 rows: the cap, 4 * 16384 // 700 = 93 steps, is under the draw's
    # 16384 // 100 = 163; sizing by rows drew 16384 // 700 = 23
    (16384, 100, 93),
])
def test_shared_id_chunk_is_sized_by_its_distinct_ids(monkeypatch, batch_size, n, steps):
    # a family of 7 starts sharing the ids 0..n-1, as _family_values marches it
    drawn = []
    pair = rng.PhiloxStream.uniform_pair

    def recording(self, channel, step, path_ids, **kw):
        if channel == rng.CH_SUB:
            drawn.append(np.asarray(path_ids).shape)
        return pair(self, channel, step, path_ids, **kw)

    monkeypatch.setattr(rng.PhiloxStream, "uniform_pair", recording)
    monkeypatch.setattr(mc, "_BATCH_SIZE", batch_size)
    assert mc._PATH_CAP == 4 * 16384
    starts = np.zeros((7, 2))
    starts[:, 0] = np.linspace(-0.6, 0.6, 7)
    mc._run_batches(bernstein.stable(1.5), mc.Ball(center=(0.0, 0.0), radius=1.0),
                    np.repeat(starts, n, axis=0), _cfg(paths=n, seed=29, step=1e-2),
                    ids_all=np.tile(np.arange(n, dtype=np.uint64), 7))
    assert drawn[0] == (steps, n)


@pytest.mark.parametrize("d", range(1, 10))
def test_row_norm_is_numpy_s_bit_for_bit(d):
    # rows mix wide magnitudes with signed zeros, subnormals, values near
    # 1e+-200 (whose squares overflow to inf or underflow) and NaN
    g = np.random.default_rng(d)
    special = [0.0, -0.0, 5e-324, -2.5e-320, 1e-200, -3e-201, 1e200, -2e200, np.nan, -1.5]
    x = np.concatenate([g.standard_normal((20000, d)) * np.exp(g.uniform(-40.0, 40.0, (20000, d))),
                        g.choice(special, (4000, d))])
    with np.errstate(over="ignore"):
        want, got = np.linalg.norm(x, axis=1), mc._row_norm(x)
        column_order = np.sqrt(sum(x[:, j] * x[:, j] for j in range(d)))
    assert got.tobytes() == want.tobytes()
    # numpy adds up to 7 columns in column order and 8 or more pairwise
    assert (column_order.tobytes() == want.tobytes()) == (d < 8)


def _jump_sizes(inc, u, v):
    # eps + E/S from a size channel's pairs: S from the mixture by u, E = -log v
    return inc.epsilon - np.log(v) / inc.rates[np.searchsorted(inc.mixture_cdf, u)]


@pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
def test_fused_jump_matches_per_slot_draws(d):
    # one call over mixed slots, steps and ids gives each jump the bits of
    # its slot's own size channel pair and direction pairs
    inc = mc._Increments(bernstein.relativistic_stable(1.0, 1.0), _cfg(seed=61), 0.05)
    slots = np.array([0, 3, 1, 0, 7, 2, 3, 40])
    steps = np.array([0, 4, 4, 2**32 + 1, 9, 0, 4, 2], dtype=np.uint64)
    ids = np.array([5, 5, 0, 2**40, 3, 2**64 - 1, 1, 8], dtype=np.uint64)
    sizes, z = inc.jump(slots, steps, ids, d)
    assert sizes.shape == (slots.size,) and z.shape == (slots.size, d)
    for i, j in enumerate(slots.tolist()):
        channel, at = rng.jump_channel(j, d), ids[i : i + 1]
        u, v = inc.stream.uniform_pair(channel, steps[i], at)
        assert sizes[i] == _jump_sizes(inc, u, v)[0]
        assert np.array_equal(z[i], inc.stream.normals(steps[i], at, d, base_channel=channel + 1)[0])


def test_each_drawn_counter_is_one_element(monkeypatch):
    # a wrapper with the benchmark tracer's signature counts np.size(path_ids)
    # per call: that is the number of counters the call draws, and no counter
    # past the count channel is drawn twice (truncated chunks redraw counts)
    pair = rng.PhiloxStream.uniform_pair
    seen = []

    def recording(self, channel, step, path_ids, **kw):
        u, w = pair(self, channel, step, path_ids, **kw)
        word = channel + np.asarray(kw.get("offset", 0), dtype=np.uint64)
        counters = np.broadcast_arrays(word, np.asarray(step, dtype=np.uint64),
                                       np.atleast_1d(path_ids))
        assert np.size(path_ids) == u.size == counters[0].size
        seen.append(np.stack([c.ravel() for c in counters], axis=1))
        return u, w

    monkeypatch.setattr(rng.PhiloxStream, "uniform_pair", recording)
    mc.simulate_exits(bernstein.sum_of_stables(1.0, 0.5), mc.Ball(center=(0.0,) * 3, radius=1.0),
                      [0.2, 0.0, 0.0], _cfg(paths=60, seed=67, step=2e-3))
    drawn = np.concatenate(seen)
    drawn = drawn[drawn[:, 0] != rng.CH_SUB]
    assert np.count_nonzero(drawn[:, 0] >= rng.jump_channel(0, 3)) > 1000
    assert np.unique(drawn, axis=0).shape == drawn.shape


def test_increment_jumps_match_per_slot_draws(monkeypatch):
    # about 16 000 jumps over 3000 paths, drawn in one call or in pieces that
    # end at a path's last jump, add up in slot order as one call per slot did
    phi, cfg, dt = bernstein.relativistic_stable(1.0, 1.0), _cfg(paths=3000, seed=71), 0.1
    inc = mc._Increments(phi, cfg, dt)
    ids = np.arange(cfg.paths, dtype=np.uint64)
    counts = inc.jump_counts(5, ids)
    want = np.full(cfg.paths, inc.drift)
    for slot in range(int(counts.max())):
        has = counts > slot
        u, v = inc.stream.uniform_pair(rng.jump_channel(slot, 0), 5, ids[has])
        want[has] += _jump_sizes(inc, u, v)
    assert counts.sum() > 15000
    for batch_size in (16384, 1000, 7):
        monkeypatch.setattr(mc, "_BATCH_SIZE", batch_size)
        got = mc.sample_subordinator_increment(phi, dt, cfg, step=5)
        assert np.array_equal(got, want), batch_size


def test_poisson_table_refuses_truncation():
    cdf = mc._poisson_cdf(250.0)
    assert cdf.size == 385 and cdf[-1] >= 1.0 - 1e-15
    with pytest.raises(ConstructionError, match="rate\\*dt"):
        mc._poisson_cdf(600.0)


def test_seed_changes_sample():
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    a = mc.simulate_exits(phi, ball, [0.0], _cfg(paths=500, seed=1))
    b = mc.simulate_exits(phi, ball, [0.0], _cfg(paths=500, seed=2))
    assert not np.array_equal(a.tau, b.tau)


def test_domain_monotonicity_matched_seeds():
    # same driving noise: exits from the smaller ball come no later
    phi = bernstein.stable(1.0)
    small = mc.Ball(center=(0.0,), radius=0.5)
    big = mc.Ball(center=(0.0,), radius=1.0)
    cfg = _cfg(paths=2000)
    a = mc.simulate_exits(phi, small, [0.0], cfg)
    b = mc.simulate_exits(phi, big, [0.0], cfg)
    assert a.censored == 0 and b.censored == 0
    assert np.all(a.tau <= b.tau + 1e-12)


def test_kind_picks_the_increments():
    # the stable kind marches on exact Kanter increments, every other kind
    # of the catalog on compound ones; a killed exponent is refused
    cfg = _cfg(paths=10)
    for phi in bernstein.default_catalog():
        if phi.killing > 0.0:
            with pytest.raises(ConstructionError, match="unkilled"):
                mc._Increments(phi, cfg, cfg.step)
        else:
            assert mc._Increments(phi, cfg, cfg.step).compound == (phi.kind != "stable"), phi.label()
    with pytest.raises(ConstructionError, match="unkilled"):
        mc._Increments(bernstein.killed_shift(bernstein.stable(1.0), 0.5), cfg, cfg.step)


def test_killed_phi_rejected():
    phi = bernstein.killed_shift(bernstein.stable(1.0), 0.5)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    with pytest.raises(ConstructionError):
        mc.simulate_exits(phi, ball, [0.0], _cfg(paths=10))


def test_relativistic_increment_mean():
    # E S_dt = phi'(0+) dt = dt/2 for the relativistic kind with alpha=m=1
    phi = bernstein.relativistic_stable(1.0, 1.0)
    inc = mc.sample_subordinator_increment(phi, 0.5, _cfg(paths=60000, seed=3))
    se = inc.std(ddof=1) / math.sqrt(inc.size)
    assert abs(inc.mean() - 0.25) < 4.0 * se


def test_stable_increment_median():
    phi = bernstein.stable(1.0)
    inc = mc.sample_subordinator_increment(phi, 1.0, _cfg(paths=60000, seed=5))
    median = float(np.median(inc))
    # closed-form median of the alpha=1/2 positive stable law
    expected = 1.0990546691588954
    assert abs(median - expected) / expected < 0.03


def test_exceedance_ratio_bounded():
    phi = bernstein.stable(1.0)
    cfg = _cfg(paths=4000)
    ratios = []
    for t in (0.05, 0.1, 0.2, 0.4):
        rep = mc.exceedance_probability(phi, 1, 1.0, t, cfg)
        ratios.append(rep.ratio)
    assert mc.exceedance_probability(phi, 1, 1.0, 0.0, cfg).ratio == 0.0
    for r in (math.nan, 0.0, -1.0, math.inf):
        for t in (0.0, 0.1):
            with pytest.raises(ConstructionError):
                mc.exceedance_probability(phi, 1, r, t, cfg)
    ratios = np.array(ratios)
    assert np.all(ratios > 0.05) and np.all(ratios < 20.0)
    assert ratios.max() / ratios.min() < 4.0


def test_exit_time_bounds_check_renewal():
    phi = bernstein.stable(1.0)
    rep = mc.exit_time_bounds_check(phi, 1, [0.5, 1.0], 4000, 11)
    assert rep.window_positive
    assert np.all(rep.bound_ok), rep.offset_means
    assert rep.passed
    # the verdict needs both: a positive window and every bound
    assert not replace(rep, bound_ok=np.array([[True, True, False], [True, True, True]])).passed
    assert not replace(rep, window=(0.0, rep.window[1])).passed
    assert not replace(rep, window=(rep.window[0], math.inf)).passed
    v2v1 = 8.0 * math.sqrt(2.0) / math.pi
    assert rep.renewal_bounds[1][0] == pytest.approx(v2v1, rel=1e-9)


def test_exit_histogram_symmetry_and_decay():
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    edges = np.array([1.0, 1.5, 2.0, 3.0, 5.0])
    hist = mc.exit_distribution_histogram(phi, ball, [0.0], edges, _cfg(paths=30000))
    # symmetric start: the two boundary sides carry equal mass up to noise
    assert hist.mass_left == pytest.approx(hist.mass_right, abs=4.0 / math.sqrt(30000))
    assert hist.mass_left + hist.mass_right == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(hist.density) < 0.0)
    assert hist.prob.sum() < 1.0


def test_hitting_before_exit_monotone():
    phi = bernstein.stable(1.0)
    enclosing = mc.Ball(center=(0.0,), radius=4.0)
    small = mc.Ball(center=(2.0,), radius=0.25)
    big = mc.Ball(center=(2.0,), radius=0.75)
    cfg = _cfg(paths=3000)
    p_small = mc.hitting_before_exit(phi, small, [0.0], enclosing, cfg)
    p_big = mc.hitting_before_exit(phi, big, [0.0], enclosing, cfg)
    assert 0.0 < p_small.mean <= p_big.mean <= 1.0


def test_hitting_before_exit_bits_pinned():
    # a hit is an exit into the target; captured while the march drew one
    # step per call and a hit was any marched position inside the target
    est = mc.hitting_before_exit(bernstein.stable(1.0), mc.Ball(center=(2.0,), radius=0.5),
                                 [0.0], mc.Ball(center=(0.0,), radius=4.0),
                                 _cfg(paths=1500, seed=41, step=1e-2))
    assert (est.mean.hex(), est.std_error.hex()) == ("0x1.a9fbe76c8b439p-2", "0x1.a128d9586e38dp-7")


@pytest.mark.parametrize("target, enclosing, mean, se, n", [
    (mc.Ball(center=(1.0,), radius=0.4), mc.Ball(center=(0.0,), radius=2.0),
     "0x1.c5bf9de4683d5p-1", "0x1.93ca9a3de40cfp-6", 167),
    # the target straddles the enclosing boundary
    (mc.Interval(0.8, 1.5), mc.Interval(-1.0, 1.0),
     "0x1.2ca6b29aca6b3p-1", "0x1.346d7a5f8efa6p-5", 172),
], ids=["ball", "interval-straddling"])
def test_compound_hitting_bits_pinned(target, enclosing, mean, se, n):
    # compound mode with most paths censored: a path counts once it hits the
    # target or leaves the enclosing domain; captured while hits were
    # tracked along the whole path to its exit from the enclosing domain
    cfg = mc.PathConfig(paths=400, seed=5, horizon=1.0, step=1e-2)
    est = mc.hitting_before_exit(bernstein.relativistic_stable(1.0, 1.0), target, [0.0],
                                 enclosing, cfg)
    assert (est.mean.hex(), est.std_error.hex(), est.n) == (mean, se, n)


def test_hitting_trivial_cases():
    phi = bernstein.stable(1.0)
    enclosing = mc.Ball(center=(0.0,), radius=4.0)
    cfg = _cfg(paths=200)
    none = mc.hitting_before_exit(phi, None, [0.0], enclosing, cfg)
    assert none.mean == 0.0 and none.std_error == 0.0
    inside = mc.hitting_before_exit(
        phi, mc.Ball(center=(0.1,), radius=0.5), [0.0], enclosing, cfg)
    assert inside.mean == 1.0 and inside.std_error == 0.0
    with pytest.raises(EvaluationDomainError, match="finite"):
        mc.hitting_before_exit(phi, mc.Ball(center=(2.0,), radius=0.5), [math.nan], enclosing, cfg)
    # the target is closed: a start on its boundary has already hit it
    for target in (mc.Ball(center=(1.0,), radius=1.0), mc.Interval(0.0, 1.0)):
        on_edge = mc.hitting_before_exit(phi, target, [0.0], enclosing, cfg)
        assert on_edge.mean == 1.0 and on_edge.std_error == 0.0


def test_hitting_refuses_start_outside_the_enclosing_domain():
    # refused as simulate_exits refuses it, before the empty-target and
    # in-target shortcuts
    phi, enclosing = bernstein.stable(1.0), mc.Ball(center=(0.0,), radius=4.0)
    cfg = mc.PathConfig(paths=50, seed=1, horizon=1.0, step=1e-2)
    for target in (mc.Ball(center=(2.0,), radius=0.5), None, mc.Ball(center=(9.0,), radius=1.0)):
        with pytest.raises(EvaluationDomainError, match="outside"):
            mc.hitting_before_exit(phi, target, [9.0], enclosing, cfg)


def test_ball_center_must_be_a_finite_point():
    # an empty or non-finite center is refused on construction, so the
    # estimators that build a ball of dimension d refuse d = 0
    phi, cfg = bernstein.stable(1.0), _cfg(paths=10, step=1e-2)
    for center in ((), (math.nan,), (0.0, math.inf)):
        with pytest.raises(ConstructionError, match="center"):
            mc.Ball(center=center, radius=1.0)
    with pytest.raises(ConstructionError, match="center"):
        mc.simulate_exits(phi, mc.Ball(center=(math.nan,), radius=1.0), [0.0], cfg)
    with pytest.raises(ConstructionError, match="center"):
        mc.exceedance_probability(phi, 0, 1.0, 0.1, cfg)
    with pytest.raises(ConstructionError, match="center"):
        mc.exit_time_bounds_check(phi, 0, [1.0], cfg.paths, cfg.seed)


def test_hitting_refuses_target_of_another_dimension():
    # a 2-D ball target in a 1-D ball, and an interval target (a slab, read
    # on the first coordinate) in a 2-D ball, are refused, as is a start of
    # the wrong dimension
    phi = bernstein.stable(1.0)
    cfg = _cfg(paths=28)
    line, plane = mc.Ball(center=(0.0,), radius=4.0), mc.Ball(center=(0.0, 0.0), radius=4.0)
    for target, enclosing, start in ((mc.Ball(center=(2.0, 0.0), radius=0.5), line, [0.0]),
                                     (mc.Interval(1.0, 2.0), plane, [0.0, 0.0])):
        with pytest.raises(EvaluationDomainError, match="dimension"):
            mc.hitting_before_exit(phi, target, start, enclosing, cfg)
    with pytest.raises(EvaluationDomainError, match="shape"):
        mc.hitting_before_exit(phi, mc.Ball(center=(2.0,), radius=0.5), [0.0, 0.0], line, cfg)


def test_epsilon_refinement(monkeypatch):
    # the compound sampler on the stable kind, whose exact increments have
    # no epsilon
    monkeypatch.setattr(mc, "_exact_increments", lambda phi: False)
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    out = mc.epsilon_refinement_check(phi, ball, [0.0], _cfg(paths=6000, epsilon=2e-4))
    assert out["passed"], out
    assert out["delta"] <= 3.0 * out["combined_se"] + 1e-12


def test_epsilon_refinement_refuses_exact_increments():
    # stable increments are exact and read no epsilon: both runs would be one march
    ball = mc.Ball(center=(0.0,), radius=1.0)
    with pytest.raises(ConstructionError, match="exact increments"):
        mc.epsilon_refinement_check(bernstein.stable(1.0), ball, [0.0], _cfg(paths=10, epsilon=2e-4))


def test_scaled_config_censoring_small():
    phi = bernstein.sum_of_stables(1.0, 0.5)
    cfg = mc.scaled_config(phi, 1.0, 4000, 17)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    sample = mc.simulate_exits(phi, ball, [0.0], cfg)
    assert sample.censored / cfg.paths < 0.01


def test_exit_by_jump_flag_two_sided():
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    sample = mc.simulate_exits(phi, ball, [0.0], _cfg(paths=2000))
    frac = sample.exited_by_jump.mean()
    assert 0.9 < frac <= 1.0


def test_d2_ball_oracle():
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0, 0.0), radius=1.0)
    sample = mc.simulate_exits(phi, ball, [0.0, 0.0], _cfg(paths=12000))
    est = sample.mean_tau()
    exact = _exact_ball_mean_tau(2, 1.0, 1.0, 0.0)
    assert abs(est.mean - exact) < 4.0 * est.std_error + 0.01 * exact


# ---------------------------------------------------------------------------
# walk-on-spheres


def _wos(alpha, starts, paths, seed=5, ids=None, **kw):
    """Exit positions and stopped mask of ``paths`` walks from each start."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    d = starts.shape[1]
    cfg = _cfg(paths=paths, seed=seed, **kw)
    rows = np.repeat(starts, paths, axis=0)
    return mc._exit_positions(bernstein.stable(alpha), mc.Ball(center=(0.0,) * d, radius=1.0),
                              rows, cfg, ids, walk=True)


def _hemisphere_kernel(d, a, s):
    """Integrals of |x - s w|^-d over the unit directions w with w . x >= 0
    and w . x < 0, for |x| = a < s."""
    if d == 1:
        near = 1.0 / (s - a)
        return near, 1.0 / (s + a)
    if d == 2:
        near = 4.0 * math.atan((s + a) / (s - a)) / (s * s - a * a)
        return near, 2.0 * math.pi / (s * s - a * a) - near
    near = 2.0 * math.pi / (s * a) * (1.0 / (s - a) - 1.0 / math.hypot(s, a))
    return near, 4.0 * math.pi / (s * (s * s - a * a)) - near


def _poisson_bin(d, alpha, a, lo, hi, near):
    """Mass of the unit ball's Poisson kernel from x, |x| = a, on
    lo <= |y| < hi, on x's side (near) or the other, by quadrature of
    c ((1 - a^2)/(|y|^2 - 1))^(alpha/2) |x - y|^-d in polar coordinates."""
    c = math.gamma(d / 2.0) * math.pi ** (-d / 2.0 - 1.0) * math.sin(math.pi * alpha / 2.0)
    side = 0 if near else 1

    def f(s):
        return (c * ((1.0 - a * a) / (s * s - 1.0)) ** (alpha / 2.0) * s ** (d - 1)
                * _hemisphere_kernel(d, a, s)[side])

    return quad(f, lo, hi, limit=200)[0]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_wos_exit_law_matches_off_centre_poisson_kernel(d, alpha):
    # radial bins on the start's side of the ball and on the other side,
    # each within 4 sigma of the kernel's mass; the bins sum to one
    a, paths = 0.5, 40_000
    x0 = np.zeros(d)
    x0[0] = a
    pos, stopped = _wos(alpha, x0, paths, seed=61 + d)
    assert stopped.all()
    dist = np.linalg.norm(pos, axis=1)
    edges = [1.0, 1.1, 1.3, 1.6, 2.2, 4.0, math.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for near in (True, False):
            p = _poisson_bin(d, alpha, a, lo, hi, near)
            total += p
            hit = (dist >= lo) & (dist < hi) & ((pos[:, 0] >= 0.0) == near)
            sigma = math.sqrt(p * (1.0 - p) / paths)
            assert abs(hit.mean() - p) < 4.0 * sigma, (lo, hi, near, hit.mean(), p)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_wos_radial_law_from_centre_is_beta(d, alpha):
    # from the centre one sphere reaches the boundary, and 1/|Y|^2 is
    # Beta(alpha/2, 1 - alpha/2): ten bins of equal mass within 4 sigma
    paths = 20_000
    pos, stopped = _wos(alpha, np.zeros(d), paths, seed=71)
    assert stopped.all()
    cdf = betainc(alpha / 2.0, 1.0 - alpha / 2.0, 1.0 / np.sum(pos**2, axis=1))
    counts = np.histogram(cdf, bins=np.linspace(0.0, 1.0, 11))[0] / paths
    assert np.all(np.abs(counts - 0.1) < 4.0 * math.sqrt(0.09 / paths)), counts


def test_wos_records_ignore_batching_and_extend_by_prefix(monkeypatch):
    # three starts sharing ids 0..n-1, as _family_values runs them: batch
    # size changes no bit, and the first 50 ids of each start reproduce a
    # 50-path run
    starts = [[0.1, 0.0], [0.6, -0.3], [-0.2, 0.9]]
    ids = np.tile(np.arange(200, dtype=np.uint64), 3)
    base = _wos(1.5, starts, 200, seed=9, ids=ids)
    for batch_size in (1, 7, 333):
        monkeypatch.setattr(mc, "_BATCH_SIZE", batch_size)
        alt = _wos(1.5, starts, 200, seed=9, ids=ids)
        assert all(np.array_equal(u, v) for u, v in zip(base, alt)), batch_size
    monkeypatch.undo()
    small = _wos(1.5, starts, 50, seed=9, ids=np.tile(np.arange(50, dtype=np.uint64), 3))
    for i in range(3):
        rows = slice(200 * i, 200 * i + 50)
        assert np.array_equal(base[0][rows], small[0][50 * i: 50 * (i + 1)])
        assert np.array_equal(base[1][rows], small[1][50 * i: 50 * (i + 1)])


def _partly_shared_ids(n, spread, seed=3):
    """Ids of three starts: each takes n distinct ids in shuffled order from
    a pool of 2n ids past 2**40, ``spread`` apart, so the starts share about
    half."""
    g = np.random.default_rng(seed)
    pool = 2**40 + 3 + spread * np.arange(2 * n, dtype=np.uint64)
    return [g.choice(pool, size=n, replace=False) for _ in range(3)]


@pytest.mark.parametrize("spread", [1, 2**20])
@pytest.mark.parametrize("batch_size", [16384, 70])
@pytest.mark.parametrize("how", ["exact", "compound", "walk"])
def test_shared_ids_give_the_records_of_separate_runs(monkeypatch, how, batch_size, spread):
    # a family of starts that share path ids, as _family_values runs it,
    # gives every row the bits of a run of its start alone; the last start
    # lies on the boundary, and batches of 70 rows split the family inside
    # its second start.  Dense ids draw once per id, sparse ones once per row
    phi, d, step = {"exact": (bernstein.stable(1.5), 2, 1e-2),
                    "compound": (bernstein.sum_of_stables(1.0, 0.5), 3, 2e-3),
                    "walk": (bernstein.stable(1.5), 2, 1e-2)}[how]
    domain = mc.Ball(center=(0.0,) * d, radius=1.0)
    n, cfg = 40, _cfg(paths=40, seed=19, step=step)
    starts = np.zeros((3, d))
    starts[0, 0], starts[1, -1], starts[2, 0] = 0.3, -0.6, 1.0
    ids = _partly_shared_ids(n, spread)
    assert 0 < len(set(ids[0]) & set(ids[1])) < n
    assert not np.array_equal(np.sort(ids[0]), ids[0])
    assert (mc._id_columns(np.concatenate(ids)) is None) == (spread > 1)
    monkeypatch.setattr(mc, "_BATCH_SIZE", batch_size)

    def records(rows, row_ids):
        if how == "walk":
            return mc._walk_on_spheres(phi, domain, rows, cfg, row_ids)
        return tuple(map(np.concatenate, zip(*mc._run_batches(phi, domain, rows, cfg, row_ids))))

    family = records(np.repeat(starts, n, axis=0), np.concatenate(ids))
    alone = [records(np.tile(x0, (n, 1)), row_ids) for x0, row_ids in zip(starts, ids)]
    for field, parts in zip(family, zip(*alone)):
        assert field.tobytes() == np.concatenate(parts).tobytes()
    if how == "walk":
        assert np.all(family[1][2 * n:]) and np.all(family[0][2 * n:] == starts[2])
    else:
        assert np.all(family[0][2 * n:] == 0.0) and not np.any(np.isnan(family[0]))


def test_wos_boundary_start_exits_at_start():
    for start in ([1.0], [-1.0]):
        pos, stopped = _wos(1.0, start, 20)
        assert stopped.all() and np.all(pos == start[0])
    pos, stopped = _wos(1.0, [0.6, 0.8], 20)
    assert stopped.all() and np.array_equal(pos, np.tile([0.6, 0.8], (20, 1)))


def test_wos_censors_after_the_sphere_budget():
    # one sphere allowed: from off-centre starts some walks are still inside
    pos, stopped = _wos(1.0, [0.5], 400, horizon=1.0, step=1.0)
    assert 0 < np.count_nonzero(~stopped) < 400
    hist = mc.exit_distribution_histogram(
        bernstein.stable(1.0), mc.Ball(center=(0.0,), radius=1.0), [0.5], [1.0, 2.0],
        _cfg(paths=400, seed=5, horizon=1.0, step=1.0))
    assert hist.censored == np.count_nonzero(~stopped) and hist.n == 400 - hist.censored


def test_other_kinds_march_where_stable_walks():
    # asked to walk, a kind other than stable marches: its records are the
    # march's bits, while the stable kind's differ from its march
    ball = mc.Ball(center=(0.0,), radius=1.0)
    starts = np.repeat([[0.0], [0.5]], 60, axis=0)
    ids = np.tile(np.arange(60, dtype=np.uint64), 2)
    cfg = _cfg(paths=60, seed=13, horizon=5.0, step=1e-2)
    for phi in (bernstein.relativistic_stable(1.0, 1.0), bernstein.sum_of_stables(1.0, 0.5)):
        walked = mc._exit_positions(phi, ball, starts, cfg, ids, walk=True)
        marched = mc._exit_positions(phi, ball, starts, cfg, ids)
        assert np.array_equal(walked[0], marched[0], equal_nan=True), phi.label()
        assert np.array_equal(walked[1], marched[1]), phi.label()
        grid, datas = np.array([[-0.3], [0.2]]), harnack.shell_probes_1d(1.0)
        assert np.array_equal(harnack._family_values(phi, ball, grid, datas, cfg, walk=True)[0],
                              harnack._family_values(phi, ball, grid, datas, cfg)[0],
                              equal_nan=True), phi.label()
    phi = bernstein.stable(1.0)
    walked = mc._exit_positions(phi, ball, starts, cfg, ids, walk=True)
    marched = mc._exit_positions(phi, ball, starts, cfg, ids)
    assert not np.array_equal(walked[0], marched[0])


def test_histogram_walks_and_hitting_marches(monkeypatch):
    # the stable histogram walks on spheres, so neither the step nor the
    # march's increments change a bit; the hitting probability marches, and
    # a walk on the same punctured domain agrees with it
    phi = bernstein.stable(1.0)
    ball = mc.Ball(center=(0.0,), radius=1.0)
    edges = [1.0, 1.5, 3.0]
    auto = mc.exit_distribution_histogram(phi, ball, [0.2], edges, _cfg(paths=300))
    pos, stopped = _wos(1.0, [0.2], 300, seed=11)
    assert stopped.all()
    assert np.array_equal(auto.prob, np.histogram(np.abs(pos[:, 0]), bins=edges)[0] / 300)
    with monkeypatch.context() as m:
        for exact in (True, False):
            m.setattr(mc, "_exact_increments", lambda phi, exact=exact: exact)
            other = mc.exit_distribution_histogram(phi, ball, [0.2], edges,
                                                   _cfg(paths=300, step=1e-2))
            assert np.array_equal(auto.prob, other.prob) and auto.mass_left == other.mass_left
    with pytest.raises(EvaluationDomainError, match="outside"):
        mc.exit_distribution_histogram(phi, ball, [1.5], edges, _cfg(paths=10))
    target, enclosing = mc.Ball(center=(2.0,), radius=0.5), mc.Ball(center=(0.0,), radius=4.0)
    cfg = _cfg(paths=2000, step=1e-2)
    march = mc.hitting_before_exit(phi, target, [0.0], enclosing, cfg)
    pos, stopped = mc._exit_positions(phi, mc._Punctured(enclosing, target),
                                      np.zeros((2000, 1)), cfg, walk=True)
    hit = mc.McEstimate.from_values(target.gap(pos[stopped]) >= 0.0)
    assert abs(hit.mean - march.mean) < 4.0 * math.hypot(hit.std_error, march.std_error)


def _mixture_tail(tables, eps, x):
    # P(J > x | J > eps) of the sampled law: the mixture's sum of P(E/S > x - eps) = e^(-(x - eps) S)
    cdf, rates = tables[2:]
    return np.exp(-np.multiply.outer(x - eps, rates)) @ np.diff(cdf, prepend=0.0)


def test_stable_jump_law_is_the_closed_tail():
    # the stable kind's compound tables (which test_compound_matches_exact_route
    # marches): rate mu(eps, inf) bit for bit, the small-jump drift to 1e-10,
    # and a mixture tail of (x/eps)^(-alpha/2) to 1e-9, past the check grid too
    for alpha in (0.5, 1.0, 1.5):
        e = alpha / 2.0
        for eps in (5e-5, 1e-4, 2e-4):
            tables = mc._compound_tables(bernstein.stable(alpha), eps)
            rate, drift = tables[:2]
            assert rate == eps**-e / gamma_fn(1.0 - e), (alpha, eps)
            assert drift == pytest.approx(
                e / gamma_fn(1.0 - e) * eps ** (1.0 - e) / (1.0 - e), rel=1e-10)
            x = eps * np.geomspace(1.0, 1e14, 81)
            np.testing.assert_allclose(_mixture_tail(tables, eps, x), (x / eps) ** -e, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("phi", [
    bernstein.sum_of_stables(1.0, 0.5), bernstein.log_perturbed_up(1.0, 0.5),
    bernstein.log_perturbed_down(1.0, 0.5), bernstein.relativistic_stable(1.0, 1.0),
    bernstein.relativistic_stable(1.5, 1.0)], ids=lambda phi: phi.label())
def test_jump_law_is_the_certified_tail(phi):
    # off the check grid the mixture tail still meets mu(x, inf)/mu(eps, inf)
    # to 1e-9 (absolute under the smallest normal float); the relativistic
    # density vanishes like (s - b)^(1/2) at its branch point b, which
    # level 1 of the rule resolves only to 3e-3 in the far tail
    eps = 1e-4
    x = eps * np.geomspace(1.3, 7e11, 53)
    tail = bernstein.levy_tail(phi, np.append(eps, x))
    np.testing.assert_allclose(_mixture_tail(mc._compound_tables(phi, eps), eps, x), tail[1:] / tail[0],
                               rtol=1e-9, atol=np.finfo(float).tiny)


def test_atom_only_jump_law_is_the_atom_sum():
    # conjugate(geometric_like(1, 64)) is unkilled and its Levy measure is the
    # atoms w = 2^n at z = 4^n of 1/phi: S is drawn from them alone, weighted
    # w e^(-eps z), and no node of the cut is evaluated
    phi, eps = bernstein.conjugate(bernstein.geometric_like(1.0, 64)), 1e-4
    n = np.arange(1, 65, dtype=float)
    w, z = 2.0**n, 4.0**n
    tables = mc._compound_tables(phi, eps)
    assert set(tables[3]) <= set(z) and tables[3].size == np.count_nonzero(w * np.exp(-eps * z))
    x = eps * np.geomspace(1.0, 1e12, 61)
    exact = np.exp(-np.multiply.outer(x, z)) @ w / (np.exp(-eps * z) @ w)
    np.testing.assert_allclose(_mixture_tail(tables, eps, x), exact, rtol=1e-12, atol=np.finfo(float).tiny)
    assert tables[0] == pytest.approx(np.exp(-eps * z) @ w, rel=1e-12)


def test_uncertified_jump_law_is_refused():
    # sum(1, 0.1) puts 1.7e-7 of the tail at 1e12 eps on s under the rule's
    # first node, jumps past e^331 that no node holds: no level certifies it
    with pytest.raises(NumericAccuracyError, match="not certified"):
        mc._compound_tables(bernstein.sum_of_stables(1.0, 0.1), 1e-4)
    # a tail of 0 at eps has no jump to draw, and the march moves by the drift
    phi = bernstein.relativistic_stable(0.5, 100.0)
    assert mc._compound_tables(phi, 1e-4)[0] == 0.0
    sample = mc.simulate_exits(phi, mc.Ball(center=(0.0,), radius=1.0), [0.0], _cfg(paths=10, horizon=1e8, step=1e5))
    assert sample.censored == 0 and not sample.exited_by_jump.any()


@pytest.mark.parametrize("phi", [
    bernstein.relativistic_stable(1.0, 1.0), bernstein.log_perturbed_up(1.0, 0.5),
    bernstein.conjugate(bernstein.geometric_like(1.0, 64))], ids=lambda phi: phi.label())
def test_sampled_jumps_follow_the_levy_tail(phi):
    # 200 000 size draws of slot 0: the share over x at six x within 4 sigma
    # of mu(x, inf)/mu(eps, inf)
    cfg = _cfg(paths=200000, seed=73)
    inc, ids = mc._Increments(phi, cfg, 1e-3), np.arange(cfg.paths, dtype=np.uint64)
    sizes, _ = inc.jump(np.zeros(cfg.paths, dtype=np.int64), 0, ids, 0)
    assert sizes.min() > cfg.epsilon
    x = cfg.epsilon * np.array([1.2, 2.0, 5.0, 30.0, 300.0, 3000.0])
    tail = bernstein.levy_tail(phi, np.append(cfg.epsilon, x))
    p = tail[1:] / tail[0]
    share = (sizes[:, None] > x).mean(axis=0)
    assert np.all(np.abs(share - p) <= 4.0 * np.sqrt(p * (1.0 - p) / cfg.paths)), (share, p)


@pytest.mark.parametrize("phi", [
    bernstein.relativistic_stable(1.0, 1.0), bernstein.log_perturbed_up(1.0, 0.5),
    bernstein.conjugate(bernstein.geometric_like(1.0, 64))], ids=lambda phi: phi.label())
def test_increment_laplace_transform_is_exp_of_phi(phi):
    # E e^(-lam S_dt) = exp(-dt phi_eps(lam)), where phi_eps restores the jumps
    # under eps by their mean: 0 <= phi_eps - phi <= lam^2 eps drift/2, which
    # bounds the bias
    dt, cfg = 0.05, _cfg(paths=40000, seed=79)
    inc = mc.sample_subordinator_increment(phi, dt, cfg)
    drift = mc._compound_tables(phi, cfg.epsilon)[1]
    for lam in (0.3, 3.0, 30.0):
        vals, want = np.exp(-lam * inc), math.exp(-dt * phi(lam))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        bias = want * dt * lam**2 * cfg.epsilon * drift / 2.0
        assert abs(vals.mean() - want) <= 4.0 * se + bias, (lam, vals.mean(), want, se)
