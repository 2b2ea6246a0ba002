import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from sbmpot import bernstein, harnack, montecarlo as mc
from sbmpot.errors import ConstructionError, EvaluationDomainError


def _cfg(paths, seed=11, **kw):
    kw.setdefault("horizon", 1.0)
    kw.setdefault("step", 1e-3)
    return mc.PathConfig(paths=paths, seed=seed, **kw)


def test_probe_families_vanish_inside():
    R = 1.0
    inside = np.linspace(-0.999, 0.999, 41)[:, None]
    for data in harnack.shell_probes_1d(R):
        assert np.all(data(inside) == 0.0)
    rad = np.linspace(0.0, 0.999, 21)
    pts = np.stack([rad, np.zeros_like(rad)], axis=1)
    for data in harnack.sector_probes_2d(R):
        assert np.all(data(pts) == 0.0)


def test_probe_families_cover_annulus():
    R = 1.0
    ys = np.concatenate([np.linspace(-15.9, -1.0, 200), np.linspace(1.0, 15.9, 200)])
    total = sum(data(ys[:, None]) for data in harnack.shell_probes_1d(R))
    assert np.all(total == 1.0)
    ang = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 400)
    pts = 1.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    total = sum(data(pts) for data in harnack.sector_probes_2d(R))
    assert np.all(total == 1.0)


def test_constant_data_is_exactly_one():
    phi = bernstein.stable(1.0)
    dom = mc.Ball(center=(0.0,), radius=1.0)
    ests = harnack.mc_harmonic(phi, lambda x: np.ones(x.shape[0]), dom,
                               np.array([[-0.4], [0.0], [0.3]]), _cfg(300))
    for est in ests:
        assert est.mean == 1.0 and est.std_error == 0.0


def test_mc_harmonic_linearity_on_shared_paths():
    phi = bernstein.stable(1.0)
    dom = mc.Ball(center=(0.0,), radius=1.0)
    grid = np.array([[0.0], [0.2]])

    def base(x):
        return (x[:, 0] >= 1.0).astype(float)

    cfg = _cfg(400)
    u = harnack.mc_harmonic(phi, base, dom, grid, cfg)
    three = harnack.mc_harmonic(phi, lambda x: 3.0 * base(x), dom, grid, cfg)
    for a, b in zip(u, three):
        assert b.mean == pytest.approx(3.0 * a.mean, rel=1e-14)


def test_mc_harmonic_dimension_mismatch():
    # the probe domain gives the dimension: a grid of 1-D points in a 2-D
    # ball, or 2-D points in a 1-D one, is refused, never reshaped
    phi = bernstein.stable(1.0)
    one = lambda x: np.ones(x.shape[0])
    for dom, grid in ((mc.Ball(center=(0.0, 0.0), radius=1.0), np.array([[0.1], [0.2]])),
                      (mc.Ball(center=(0.0, 0.0), radius=1.0), np.array([0.1, 0.2, 0.3])),
                      (mc.Ball(center=(0.0,), radius=1.0), np.array([[0.1, 0.2]])),
                      (mc.Ball(center=(0.0,), radius=1.0), np.array([0.1, 0.2]))):
        with pytest.raises(EvaluationDomainError, match="shape"):
            harnack.mc_harmonic(phi, one, dom, grid, _cfg(10))
    one_point = harnack.mc_harmonic(
        phi, one, mc.Ball(center=(0.0, 0.0), radius=1.0), [0.1, 0.2], _cfg(10))
    assert len(one_point) == 1 and one_point[0].mean == 1.0


def test_family_values_bits_pinned():
    # all starts march in one run with path ids repeated per start; captured
    # before the exact march drew its steps in chunks
    vals, censored = harnack._family_values(
        bernstein.stable(1.5), mc.Ball(center=(0.0, 0.0), radius=1.0),
        np.array([[-0.5, 0.0], [0.0, 0.0], [0.3, 0.2]]), harnack.sector_probes_2d(1.0),
        _cfg(300, seed=43, horizon=50.0, step=1e-2))
    assert censored == 0
    assert hashlib.sha256(vals.tobytes()).hexdigest() == (
        "fa0c9bccb8aa6566508d68248f4e71563faf1d066fca6f20f34e3612478bc729")


def test_family_values_wos_bits_pinned():
    # the pinned march family above, walked on spheres
    vals, censored = harnack._family_values(
        bernstein.stable(1.5), mc.Ball(center=(0.0, 0.0), radius=1.0),
        np.array([[-0.5, 0.0], [0.0, 0.0], [0.3, 0.2]]), harnack.sector_probes_2d(1.0),
        _cfg(300, seed=43, horizon=50.0, step=1e-2), walk=True)
    assert censored == 0
    assert hashlib.sha256(vals.tobytes()).hexdigest() == (
        "72aee189a5f94837d60c8324735c33182003d03a9f1c04e547753080364e8686")


@pytest.mark.parametrize("walk", [False, True])
def test_repeated_start_is_run_once(monkeypatch, walk):
    # a start that repeats an earlier one bit for bit is run once and its
    # values copied: 0.2 repeats, 0.0 and -0.0 are distinct bits; every row
    # keeps the bits of a run of its start alone, censored paths included
    phi, dom = bernstein.stable(1.0), mc.Ball(center=(0.0,), radius=1.0)
    grid = np.array([[0.2], [0.5], [0.2], [0.0], [-0.0], [0.5]])
    datas, cfg = harnack.shell_probes_1d(1.0), _cfg(40, seed=3, horizon=2e-2, step=1e-2)
    rows = []
    run = harnack._exit_positions

    def recording(phi, domain, starts, *args, **kw):
        rows.append(starts.shape[0])
        return run(phi, domain, starts, *args, **kw)

    monkeypatch.setattr(harnack, "_exit_positions", recording)
    vals, censored = harnack._family_values(phi, dom, grid, datas, cfg, walk=walk)
    assert rows == [4 * 40] and vals.shape == (6, 40, len(datas))
    alone = [harnack._family_values(phi, dom, x0, datas, cfg, walk=walk) for x0 in grid]
    assert vals.tobytes() == np.concatenate([v for v, _ in alone]).tobytes()
    assert censored == sum(c for _, c in alone) > 0


def _report_digest(rep) -> str:
    """sha256 of every field of a report as float.hex, arrays flattened."""
    h = hashlib.sha256()
    for field in dataclasses.fields(rep):
        for x in np.ravel(np.asarray(getattr(rep, field.name), dtype=float)):
            h.update(float(x).hex().encode())
        h.update(b";")
    return h.hexdigest()


@pytest.mark.parametrize("check, digest", [
    (lambda: harnack.harnack_ratio(bernstein.stable(1.0), 2, 0.05, 60, 3),
     "635543d52503850d79b431c4c5e5bd8d3147e78f68700e31bd7e27a3e469db0c"),
    # re-pinned when the relativistic kind moved to exact increments: the
    # report went from ratio inf (a probe with no hit) to 1.5
    (lambda: harnack.harnack_ratio(bernstein.relativistic_stable(1.0, 0.01), 1, 0.05, 60, 5),
     "9da0f68e1527c08b56ce30490fe4b8c0d8e7bc629cb143668445a5ae7f080e7c"),
    (lambda: harnack.bhp_ratio_check(bernstein.stable(1.0), 0.05, 90, 7),
     "9d238aed190a1a50cd3f6e9f5f49266afbc239021e6f5e6a94b69e72a09ed314"),
    (lambda: harnack.bhp_ratio_check(bernstein.stable(1.0), 0.05, 90, 7, domain="halfdisk"),
     "6b0818c7447f2304f54451f4628697c6db1b33ba5906913eee9a1ce95a337c5e"),
    (lambda: harnack.carleson_check(bernstein.stable(1.0), mc.Interval(0.0, 1.0), 0.0, 0.05,
                                    90, 9),
     "0fed27e6e97f7a7842b94a7b4ceeeec1dee98732e6546ede2699f4adc02f8995"),
    (lambda: mc.exit_time_bounds_check(bernstein.stable(1.0), 1, [0.5], 60, 13),
     "217dc68cae591626b570ede2645514a1bfadc8b424c9fdb2e56791ed08611df5"),
    # its renewal bounds read V, whose chi comes from the log lattice: re-pinned when that replaced
    # the DE sweep, which moved them by 2e-15 relative and no other field; its
    # means re-pinned when the relativistic kind moved to exact increments
    (lambda: mc.exit_time_bounds_check(bernstein.relativistic_stable(1.0, 1.0), 1, [0.5],
                                       60, 13),
     "a322fcca39df72f0e5301cbfdaeed12ac2479c17f8f8888c4eb08bce05fccd75"),
], ids=["harnack-stable-d2-walked", "harnack-relativistic-d1-marched", "bhp-interval",
        "bhp-halfdisk", "carleson-q0", "exit-bounds-stable", "exit-bounds-relativistic"])
def test_scaled_check_report_bits_pinned(check, digest):
    # every field of the whole report, for the four checks that size their
    # own skeleton with scaled_config
    assert _report_digest(check()) == digest


def test_family_means_few_paths_without_warnings():
    # starts with no, one, two and many uncensored paths: McEstimate's rule
    # (mean NaN and se NaN for none, se inf for one) and no warning; starts
    # with two or more keep the bits of nanmean/nanstd over the whole family
    rng = np.random.default_rng(3)
    vals = rng.uniform(size=(4, 9, 3))
    vals[0] = np.nan
    vals[1, 1:] = np.nan
    vals[2, 2:] = np.nan
    vals[3, [2, 5]] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means, ses = harnack._family_means(vals, 9)
    assert np.all(np.isnan(means[0])) and np.all(np.isnan(ses[0]))
    assert np.array_equal(means[1], vals[1, 0]) and np.all(ses[1] == math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref_means = np.nanmean(vals, axis=1)
        ref_ses = np.nanstd(vals, axis=1, ddof=1) / np.sqrt([[1.0], [1.0], [2.0], [7.0]])
    assert np.array_equal(means[2:], ref_means[2:]) and np.array_equal(ses[2:], ref_ses[2:])
    many = rng.uniform(size=(5, 40, 2))
    many[:, ::3] = np.nan
    for n_use in (10, 40):
        means, ses = harnack._family_means(many, n_use)
        sub = many[:, :n_use]
        assert np.array_equal(means, np.nanmean(sub, axis=1))
        assert np.array_equal(ses, np.nanstd(sub, axis=1, ddof=1)
                              / np.sqrt(np.sum(~np.isnan(sub[:, :, 0]), axis=1))[:, None])


def test_harnack_ratio_stable_passes():
    phi = bernstein.stable(1.0)
    rep = harnack.harnack_ratio(phi, 1, 0.05, 600, 11)
    assert rep.passed
    assert 1.0 <= rep.ratio < 5.0
    assert rep.delta_paths < 0.2 and rep.delta_grid < 0.2


def test_harnack_ratio_d2_sectors():
    phi = bernstein.stable(1.0)
    rep = harnack.harnack_ratio(phi, 2, 0.05, 400, 7)
    assert rep.passed
    assert math.isfinite(rep.ratio)


def test_carleson_conclusive_and_passing():
    phi = bernstein.stable(1.0)
    rep = harnack.carleson_check(phi, mc.Interval(0.0, 1.0), 0.0, 0.05, 1500, 11)
    assert not rep.inconclusive
    assert rep.passed
    assert rep.floor > 0.0
    assert rep.corkscrew_value == pytest.approx(0.025)


def test_carleson_mirrored_endpoint():
    phi = bernstein.stable(1.0)
    rep = harnack.carleson_check(phi, mc.Interval(0.0, 1.0), 1.0, 0.05, 1500, 11)
    assert not rep.inconclusive
    assert rep.passed
    assert rep.corkscrew_value == pytest.approx(0.975)


def test_carleson_tiny_r_inconclusive_not_failed():
    phi = bernstein.stable(1.0)
    rep = harnack.carleson_check(phi, mc.Interval(0.0, 1.0), 0.0, 1e-5, 40, 11)
    assert rep.inconclusive
    assert not rep.passed


def test_carleson_interior_q_rejected():
    phi = bernstein.stable(1.0)
    with pytest.raises(EvaluationDomainError):
        harnack.carleson_check(phi, mc.Interval(0.0, 1.0), 0.5, 0.05, 10, 11)


def test_bhp_trivial_and_symmetry():
    # columns u and v of family means at six points and the corkscrew point:
    # identical probes give spread exactly one and no refinement change, and
    # swapping the probes inverts every ratio but keeps the spread
    means = np.random.default_rng(7).uniform(0.05, 1.0, size=(7, 2))
    same = harnack._bhp_from_means(means[:, [0, 0]])
    assert same == 1.0 and harnack._refinement(same, same) == ([0.0], True)
    spread = harnack._bhp_from_means(means)
    assert spread > 1.0
    assert harnack._bhp_from_means(means[:, ::-1]) == pytest.approx(spread, rel=1e-12)


def test_bhp_interval_passes():
    phi = bernstein.stable(1.0)
    rep = harnack.bhp_ratio_check(phi, 0.05, 2400, 11)
    assert rep.passed
    assert rep.spread < 10.0


def test_bhp_halfdisk_passes():
    phi = bernstein.stable(1.0)
    rep = harnack.bhp_ratio_check(phi, 0.05, 1200, 7, domain="halfdisk")
    assert rep.passed
    assert rep.spread < 10.0


def test_bhp_bad_domain_rejected():
    phi = bernstein.stable(1.0)
    for domain in ("ball", "Interval", ""):
        with pytest.raises(EvaluationDomainError, match="interval"):
            harnack.bhp_ratio_check(phi, 0.05, 10, 11, domain=domain)


def test_harnack_ratio_refuses_dimension_below_one():
    with pytest.raises(EvaluationDomainError, match="dimension"):
        harnack.harnack_ratio(bernstein.stable(1.0), 0, 0.05, 10, 11)


def test_halfdisk_geometry():
    hd = mc.HalfDisk(radius=1.0)
    pts = np.array([[0.0, 0.5], [0.0, -0.5], [2.0, 0.5], [0.0, 0.0]])
    gap = hd.gap(pts)
    np.testing.assert_allclose(gap, [0.5, -0.5, 1.0 - math.sqrt(4.25), 0.0], rtol=1e-15)
    np.testing.assert_array_equal(gap > 0.0, [True, False, False, False])
    np.testing.assert_array_equal(gap < 0.0, [False, True, True, False])
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConstructionError):
            mc.HalfDisk(radius)
