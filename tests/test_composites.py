"""Independent oracles for the composite kinds: closed forms and double pole sums.

The geometric kind's 1/phi = g = sum w/(lam + b) is a finite sum of atoms, and so are the measures of
its conjugate and killed shifts.  Here their roots are found by scipy's brentq on the defining equation
in x, not by the package's bisection in log offsets, and the sums are written out term by term.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc, erfcx

from sbmpot import bernstein, densities, kernels, ladder
from sbmpot.errors import NumericAccuracyError

GEO = bernstein.geometric_like(1.0)
W, B = 2.0 ** np.arange(1, GEO.n_terms + 1), 4.0 ** np.arange(1, GEO.n_terms + 1)  # alpha = 1: b = 2^(2n)
T = np.array([0.1, 1.0, 10.0])


def _roots(h, ends):
    # one root of h in each open interval between consecutive ends, where h runs from -inf (or below 0) to inf
    return np.array([brentq(h, lo * (1.0 + 1e-15) + 1e-300, hi * (1.0 - 1e-15), rtol=1e-15, maxiter=500)
                     for lo, hi in zip(ends[:-1], ends[1:])])


def _phi_over_lam_atoms():
    # phi/lam = 1/(lam g): the zeros -z of g between consecutive poles, residue 1/(z sum w/(b - z)^2)
    z = _roots(lambda x: -np.sum(W / (B - x)), B)
    return 1.0 / (z * np.sum(W / (B - z[:, None]) ** 2, axis=1)), z


def _killed_conjugate_atoms(a):
    # psi = lam g = sum w - sum w b/(lam + b), so psi(-x) = -a at x g(-x) = a: one root in (0, b_1) and
    # one between consecutive poles, residue 1/psi'(-x) = 1/sum w b/(b - x)^2
    x = _roots(lambda x: x * np.sum(W / (B - x)) - a, np.concatenate([[0.0], B]))
    return 1.0 / np.sum(W * B / (B - x[:, None]) ** 2, axis=1), x


@pytest.mark.parametrize("a", [0.5, 0.9, 1.5])
def test_killed_relativistic_u_is_its_erfc_form(a):
    # 1/(sqrt(lam + 1) - c), c = 1 - a, inverts to e^(-t) (1/sqrt(pi t) + c e^(c^2 t) erfc(-c sqrt t)); for
    # a < 1 its pole at -(1 - c^2) is an atom off the cut (the cut alone was 43% to 99.8% off at a = 0.5)
    phi, c = bernstein.killed_shift(bernstein.relativistic_stable(1.0, 1.0), a), 1.0 - a
    t = np.geomspace(0.1, 10.0, 13)
    exact = np.exp(-t) * (1.0 / np.sqrt(np.pi * t) + c * erfcx(-c * np.sqrt(t)))  # e^(x^2) erfc(x) = erfcx(x)
    np.testing.assert_allclose(densities.potential_density_u(phi, t), exact, rtol=1e-9, atol=0.0)
    assert (phi.stieltjes(0).w.size == 1) == (a < 1.0)


def test_killed_relativistic_green_matches_the_mpmath_quadrature():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "killed_relativistic_mpmath.json")
    with open(path) as fh:
        rows = json.load(fh)
    for row in rows:
        phi = bernstein.killed_shift(bernstein.relativistic_stable(1.0, 1.0), row["a"])
        assert kernels.green_function(phi, 3, row["r"]) == pytest.approx(row["G"], rel=1e-9)


def test_killed_relativistic_near_the_branch_point_is_refused():
    # the atom z = 1 - (1 - a)^2 within 1e-6 of b = 1: the density's resolution at b is lost (1.2e-7 at a = m)
    for a in (1.0, 1.0 - 1e-4, 1.0 + 1e-4):
        phi = bernstein.killed_shift(bernstein.relativistic_stable(1.0, 1.0), a)
        with pytest.raises(NumericAccuracyError, match="branch point"):
            densities.potential_density_u(phi, 1.0)
        assert bernstein.eval_levy_density(phi, 1.0) > 0.0  # phi/lam keeps its measure
    assert densities.potential_density_u(bernstein.killed_shift(bernstein.relativistic_stable(1.0, 1.0), 0.99), 1.0)


def test_conjugate_of_the_shift_onto_the_branch_point_is_built():
    # psi = lam/(phi + 1) = lam/sqrt(lam + 1) is exact, and so is its u, the inverse transform of
    # sqrt(lam + 1)/lam: 1 + e^(-t)/sqrt(pi t) - erfc(sqrt t); its mu, a sum of 1/(phi + 1)'s measure, is refused
    psi = bernstein.conjugate(bernstein.killed_shift(bernstein.relativistic_stable(1.0, 1.0), 1.0))
    assert psi.killing == 0.0 and psi.drift == 0.0 and psi(3.0) == pytest.approx(1.5, rel=1e-15)
    t = np.geomspace(0.1, 10.0, 7)
    exact = 1.0 + np.exp(-t) / np.sqrt(np.pi * t) - erfc(np.sqrt(t))
    np.testing.assert_allclose(densities.potential_density_u(psi, t), exact, rtol=1e-9, atol=0.0)
    with pytest.raises(NumericAccuracyError, match="branch point"):
        bernstein.eval_levy_density(psi, 1.0)


def test_ladder_of_a_swapped_and_shifted_stable_is_its_cut_integral():
    # psi = lam/(sqrt(lam) + 1/2) keeps the stable kind's closed sums on its measures, but v and V are functions of
    # chi, not sums: by the cut, v = 1/sqrt(2) + (1/pi) int_0^inf e^(-ts) chi(s) (-Im 1/psi(-s^2 + i0)) ds with
    # -Im 1/psi(-s^2 + i0) = 1/s, and V the same with (1 - e^(-ts))/s, taken here by scipy's quad on chi alone
    psi = bernstein.conjugate(bernstein.killed_shift(bernstein.conjugate(bernstein.stable(1.0)), 0.5))
    assert psi.closed_form("ladder_density", 1.0) is None and psi.closed_form("renewal_function", 1.0) is None

    def cut(f):
        return sum(quad(lambda s: f(s) * ladder.ladder_exponent_chi(psi, s) / s, lo, hi, epsabs=0.0, epsrel=1e-12,
                        limit=200)[0] for lo, hi in ((0.0, 1.0), (1.0, np.inf))) / math.pi

    for t in T:
        v = 1.0 / math.sqrt(2.0) + cut(lambda s: math.exp(-t * s))
        V = t / math.sqrt(2.0) + cut(lambda s: -math.expm1(-t * s) / s)
        assert ladder.ladder_density_v(psi, t) == pytest.approx(v, rel=1e-9)
        assert ladder.renewal_function_V(psi, t) == pytest.approx(V, rel=1e-9)


def test_conjugate_geometric_green_is_its_pole_sum():
    # u of psi = lam/phi is the killing plus the tail sum c e^(-z t), so in d = 3
    # G(r) = (killing + sum c e^(-sqrt(z) r))/(4 pi r)
    psi, (c, z) = bernstein.conjugate(GEO), _phi_over_lam_atoms()
    for r in (0.01, 0.5, 2.0):
        exact = (GEO.killing + np.sum(c * np.exp(-np.sqrt(z) * r))) / (4.0 * math.pi * r)
        assert kernels.green_function(psi, 3, r) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("x, y", [(1.0, 2.0), (0.3, 0.31), (2.0, 0.5)])
def test_conjugate_geometric_ladder_is_its_double_pole_sum(x, y):
    # 1/chi has the constant sqrt(killing) and an atom c chi(sqrt z)/(2 sqrt z) at each atom z of phi/lam = 1/psi,
    # so v = a + sum k e^(-r t), r = sqrt z, and the half-line convolution is a closed double sum
    psi, (c, z) = bernstein.conjugate(GEO), _phi_over_lam_atoms()
    r = np.sqrt(z)
    k, a = c * ladder.ladder_exponent_chi(psi, r) / (2.0 * r), math.sqrt(GEO.killing)
    np.testing.assert_allclose(ladder.ladder_density_v(psi, T), a + np.exp(-np.outer(T, r)) @ k, rtol=1e-9)
    lo, gap = min(x, y), abs(y - x)
    head, rs = -np.expm1(-lo * r) / r, r[:, None] + r[None, :]
    exact = (a * a * lo + a * (k * head * (1.0 + np.exp(-gap * r))).sum()
             + (k[:, None] * k[None, :] * np.exp(-gap * r)[None, :] * -np.expm1(-lo * rs) / rs).sum())
    assert ladder.halfline_green(psi, x, y) == pytest.approx(exact, rel=1e-9)


def test_killed_conjugate_geometric_densities_are_double_pole_sums():
    # u of psi + a, psi = lam/phi, and mu of its conjugate lam/(psi + a): sum_k e^(-x_k t)/sum_n w b/(b - x_k)^2
    # and the same with x_k e^(-x_k t)
    psi = bernstein.conjugate(GEO)
    w, x = _killed_conjugate_atoms(0.5)
    killed = bernstein.killed_shift(psi, 0.5)
    np.testing.assert_allclose(densities.potential_density_u(killed, T), np.exp(-np.outer(T, x)) @ w, rtol=1e-9)
    np.testing.assert_allclose(bernstein.eval_levy_density(bernstein.conjugate(killed), T),
                               np.exp(-np.outer(T, x)) @ (w * x), rtol=1e-9)
