"""Path simulation for subordinate Brownian motions and exit-time checks.

The process is X_t = B_{S_t}: run the subordinator S on a deterministic time
skeleton and move the Brownian scaffold by N(0, 2 dS) per increment.  The
kind picks a march's increments (_exact_increments):

* exact, for the stable kind: Kanter's representation of the positive
  stable law (one uniform pair per step); for the sum kind, the sum of two
  such draws; for the relativistic kind with m*dt <= 1, a stable draw
  tilted by e^(-m^(2/alpha) S) by rejection (Devroye, ACM TOMACS 19(4),
  2009), which accepts with probability e^(-m dt);
* compound, for every other kind, the relativistic kind with m*dt > 1
  and any step whose Kanter draw would leave the float range (an index
  under about 0.103 at dt <= 1): jumps above the truncation level epsilon
  arrive at rate mu(eps, inf), of sizes eps + E/S (E ~ Exp(1), S from the
  Levy measure's exponential mixture), and the mean of the discarded small
  jumps is restored as a deterministic drift int_0^eps s mu(s) ds per unit
  time; a step's increment is the drift plus its jumps.  The neglected
  small-jump variance is the documented bias, checked by
  epsilon-refinement.

Every random draw is addressed by (seed, channel, step, path id) through a
counter-based generator, so estimates are bit-identical for a given seed and
config no matter how paths are batched.  Estimators reduce over arrays
assembled in path order.

Paths march in chunks, one loop and one monitoring rule for both samplers:
a skeleton step is one move, sqrt(2 S) Z, S the step's subordinator
increment and Z a standard normal vector, and a path exits at the end of
its first step outside, at a skeleton epoch.  One Philox call per channel
draws m skeleton steps of every live path id, and one call draws every jump
of the chunk; rows that share a path id (the start points of a probe
family) copy its draws instead of repeating them.  Draws past a path's
exit within its chunk are discarded, so m follows the exit rate the march
has just measured: it starts at 1, and after a chunk in which some ids
left, it balances the draws the next chunk expects to waste against a
chunk's fixed cost, _CHUNK_DRAWS (see _simulate_batch).  m times the draws
per step (one, or on average the count and rate*dt jumps of a compound
step) is at most about _BATCH_SIZE over the distinct live ids, which sizes
the draw, and _PATH_CAP over the live rows, which bounds the path array
however many rows share an id.  Running sums of the live positions and the
moves give every skeleton position bit for bit as repeated += would, so no
record depends on m.

Every domain answers one geometric question, its signed gap to the
boundary: gap(x) > 0 strictly inside, <= 0 on the closed complement and < 0
strictly outside (the sign of an IEEE difference is exact).  A path exits at
its first skeleton position with gap <= 0.

Hitting probabilities are exit problems too: P_x(T_A < tau_D) marches to the
first exit from D minus the closed target A and asks whether the exit
position lies in A.

For the stable kind, exit_distribution_histogram and harnack_ratio walk on
spheres instead (Kyprianou, Osojnik & Shardlow, IMA J. Numer. Anal. 38,
2018); every other estimator, and every other kind, marches.  From x, with
rho = gap(x), the walk lands at Y = x + rho B^(-1/2) theta,
B ~ Beta(alpha/2, 1 - alpha/2) by inversion and theta a normalised Gaussian
vector: the exact exit law of the ball B(x, rho) from its centre.  It stops
at the first Y with gap <= 0, after a few spheres and with no skeleton bias,
but it gives no exit times and reads no increments.  Sphere k of a path
draws from (seed, rng.CH_WOS and the channels after it, k, path id), and a
path still inside after ceil(horizon/step) spheres is censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import betaincinv, gammainc

from . import laplace, rng
from .bernstein import CompleteBernsteinFunction, levy_tail
from .errors import ConstructionError, EvaluationDomainError, NumericAccuracyError
from .ladder import renewal_function_V

__all__ = [
    "PathConfig",
    "McEstimate",
    "ExitSample",
    "Interval",
    "Ball",
    "HalfDisk",
    "scaled_config",
    "sample_subordinator_increment",
    "simulate_exits",
    "exceedance_probability",
    "ExceedanceReport",
    "exit_time_bounds_check",
    "ExitTimeBoundsReport",
    "exit_distribution_histogram",
    "ExitHistogram",
    "hitting_before_exit",
    "epsilon_refinement_check",
]

# skeleton steps, or walk spheres, a path may take: the Philox counter keeps
# 32 bits of the step index, and step 2**32 would reuse the draws of step 0
_MAX_STEPS = 2**32


@dataclass(frozen=True)
class PathConfig:
    """Simulation parameters; validated on construction.  The seed is the
    64-bit Philox key, so it is an integer in [0, 2**64)."""

    paths: int
    seed: int
    horizon: float
    step: float
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.paths <= 0:
            raise ConstructionError("paths must be positive")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= int(self.seed) < 2**64):
            raise ConstructionError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (0.0 < self.step < math.inf and 0.0 < self.horizon < math.inf):
            raise ConstructionError("step and horizon must be positive and finite")
        if self.step > self.horizon:
            raise ConstructionError("step must not exceed horizon")
        if self.horizon / self.step > _MAX_STEPS:  # ceil(horizon/step) steps
            raise ConstructionError(f"horizon/step must not exceed 2**32 steps, got "
                                    f"{self.horizon:g}/{self.step:g}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConstructionError("epsilon must lie in (0, 1)")


_HORIZON_MULT = 50.0


def _check_radius(radius: float) -> None:
    if not 0.0 < radius < math.inf:
        raise ConstructionError(f"radius must lie in (0, inf), got {radius:g}")


def scaled_config(
    phi: CompleteBernsteinFunction,
    r: float,
    paths: int,
    seed: int,
    step_frac: float = 1e-3,
    epsilon: float = 1e-4,
) -> PathConfig:
    """Config with step and horizon tied to the exit-time scale 1/phi(r^-2).

    The skeleton step is step_frac of the target tau scale and the horizon
    _HORIZON_MULT times it, keeping the censoring rate far below 1%;
    epsilon is the compound sampler's truncation level.  A radius whose r^-2 or scale is not a positive
    finite float is refused: r^2 must be a normal float, as :func:`sbmpot.laplace.squares` has it for the kernels.
    """
    laplace.squares(r, "the radius of an exit-time scale")
    scale = 1.0 / rate if (rate := float(phi(r**-2))) > 0.0 else math.inf
    if not scale < math.inf:
        raise EvaluationDomainError(f"the exit-time scale 1/phi(r^-2) at radius {r:g} leaves the float range")
    return PathConfig(paths=paths, seed=seed, horizon=_HORIZON_MULT * scale,
                      step=step_frac * scale, epsilon=epsilon)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int

    @staticmethod
    def from_values(vals: np.ndarray) -> "McEstimate":
        vals = np.asarray(vals, dtype=float)
        n = vals.size
        if n == 0:
            return McEstimate(math.nan, math.nan, 0)
        se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
        return McEstimate(float(vals.mean()), se, n)


@dataclass(frozen=True)
class ExitSample:
    """Batch of first-exit samples (arrays indexed by surviving path).

    ``exited_by_jump`` marks a strict overshoot past the closed boundary:
    a step moves once, by its whole increment, so no sampler splits an exit
    into jump and drift parts and the flag is read from the exit position.
    Censored paths (no exit before the horizon) are excluded from the
    arrays and only counted.
    """

    tau: np.ndarray
    exit_position: np.ndarray
    exited_by_jump: np.ndarray
    censored: int

    def mean_tau(self) -> McEstimate:
        return McEstimate.from_values(self.tau)


def _row_norm(x: np.ndarray) -> np.ndarray:
    """|x| of each row of an (n, d) array, bit for bit as np.linalg.norm(x,
    axis=1) and a few times faster for small d: numpy's reduce adds up to 7
    squared columns in column order, as here, and 8 or more pairwise, so
    those keep its norm."""
    d = x.shape[1]
    if not 0 < d < 8:
        return np.linalg.norm(x, axis=1)
    sq = x[:, 0] * x[:, 0]
    for j in range(1, d):
        sq += x[:, j] * x[:, j]
    return np.sqrt(sq, out=sq)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ConstructionError("interval endpoints must be finite and ordered")

    @property
    def d(self) -> int:
        return 1

    def gap(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(x[:, 0] - self.lo, self.hi - x[:, 0])


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        if len(self.center) == 0 or not all(math.isfinite(c) for c in self.center):
            raise ConstructionError(f"ball center must be a finite point, got {self.center}")
        _check_radius(self.radius)

    @property
    def d(self) -> int:
        return len(self.center)

    def gap(self, x: np.ndarray) -> np.ndarray:
        return self.radius - _row_norm(x - np.asarray(self.center)[None, :])


@dataclass(frozen=True)
class HalfDisk:
    """Upper half-disk {|x| < radius, x_2 > 0}; boundary point of interest 0."""

    radius: float

    def __post_init__(self):
        _check_radius(self.radius)

    @property
    def d(self) -> int:
        return 2

    def gap(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(self.radius - _row_norm(x), x[:, 1])


def _as_points(x, d: int) -> np.ndarray:
    """x as an (n, d) array of finite points: a point has shape (d,), a grid
    shape (n, d); any other shape is refused, never reshaped."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (d,) and (arr.ndim != 2 or arr.shape[1] != d):
        raise EvaluationDomainError(
            f"points in dimension {d} need shape ({d},) or (n, {d}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise EvaluationDomainError("points must be finite")
    return arr.reshape(-1, d)


def _start_point(x0, domain) -> np.ndarray:
    """The start x0 as one finite point of the closed domain."""
    pts = _as_points(x0, domain.d)
    if pts.shape[0] != 1:
        raise EvaluationDomainError(f"a start is one point, got {pts.shape[0]}")
    if domain.gap(pts)[0] < 0.0:
        raise EvaluationDomainError("start point lies outside the domain")
    return pts[0]


# ---------------------------------------------------------------------------
# increment samplers


def _kanter(rho: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Positive rho-stable variate with E[exp(-lam S)] = exp(-lam^rho)."""
    th = math.pi * u
    a = (np.sin(rho * th) ** rho * np.sin((1.0 - rho) * th) ** (1.0 - rho) / np.sin(th)) ** (
        1.0 / (1.0 - rho)
    )
    return (a / e) ** ((1.0 - rho) / rho)


@lru_cache(maxsize=64)
def _compound_tables(phi: CompleteBernsteinFunction, epsilon: float):
    """Rate, small-jump drift, and the CDF and rates of S in a jump J = eps + E/S, E ~ Exp(1), for one (phi, eps).

    mu(x, inf) is sum w e^(-zx) over the atoms of phi/lam plus (1/pi) int e^(-xs) Im phi(-s + i0)/s ds, so given
    J > eps, S is an atom z, weighted w e^(-eps z), or a node s of the real-axis rule on the cut, weighted by its weight
    times Im phi(-s + i0) e^(-eps s)/(pi s).  The level is the rule's first whose mixture tail meets the certified
    mu(x, inf)/mu(eps, inf) to the rule's own target over x in [eps, 1e12 eps]; none does: NumericAccuracyError.
    """
    eps = float(epsilon)
    # drift: int_0^eps x mu = (eps/pi) int_0^inf P(2, eps*s)/(eps*s) Im phi(-s + i0)/s ds, the sum of phi/lam;
    # P(2, z)/z is z/2 under z = 1e-17 and 1/z past 746
    kernel = laplace.Kernel(lambda z: gammainc(2.0, z) / z, 1e-17, 746.0)
    drift = eps * float(phi.sums([(1, 0)], [eps], [kernel])[0])
    x = eps * np.geomspace(1.0, 1e12, 97)
    tail = np.asarray(levy_tail(phi, x), dtype=float)
    if not (rate := float(tail[0])):  # no jump above eps (a relativistic branch point past 746/eps): none is drawn
        return rate, drift, np.empty(0), np.empty(0)
    m = phi.stieltjes(1)
    for level in range(1, laplace._AXIS_LEVELS + 1):
        rates, weights = m.z, m.w * np.exp(-eps * m.z)  # an atom past the float range weighs 0
        if m.cut:
            s, h, _ = laplace._axis_nodes(level, phi.branch_point)
            s, h = s[h > 0.0], h[h > 0.0]
            rho = h * np.imag(phi(-s + 0j)) / s  # Im phi(-s + i0)/s times the node's weight
            rates, weights = np.append(rates, s), np.append(weights, rho * np.exp(-eps * s) / math.pi)
        rates, weights = rates[weights > 0.0], weights[weights > 0.0]
        cdf = np.cumsum(weights)
        mix = np.exp(-np.multiply.outer(x - eps, rates)) @ weights / cdf[-1]
        if np.all(np.abs(mix - tail / rate) <= np.maximum(laplace._AXIS_EPSREL * tail / rate, np.finfo(float).tiny)):
            break
    else:
        raise NumericAccuracyError(f"the jump law of {phi.label()} above {eps:g} is not certified to "
                                   f"{laplace._AXIS_EPSREL:g} by {laplace._AXIS_LEVELS} levels of the real-axis rule")
    return rate, drift, cdf / cdf[-1], rates


def _poisson_cdf(rate: float) -> np.ndarray:
    """CDF of the Poisson(rate) jump count, never truncated: past a truncated
    table every draw would get the largest count.  Terms are added until the
    count is past the rate and the newest term no longer changes the float
    sum.  The recurrence starts at e^(-rate), refused where that is not a
    normal float (rate over about 708): from a subnormal start the table
    ends far under 1."""
    terms, total = [math.exp(-rate)], 0.0
    if terms[0] < np.finfo(float).tiny:
        raise ConstructionError(
            f"{rate:g} expected jumps per step (rate*dt) exceed the Poisson "
            f"table, whose first term e^-{rate:g} is not a normal float; use a "
            "smaller --step or a larger --eps"
        )
    while len(terms) <= rate + 1.0 or total + terms[-1] != total:
        total += terms[-1]
        terms.append(terms[-1] * rate / len(terms))
    return np.cumsum(terms)


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _exact_increments(phi: CompleteBernsteinFunction, dt: float) -> bool:
    """Whether steps of length dt draw exact increments or compound ones; a
    killed exponent is refused.  Exact: the stable and sum kinds, and the
    relativistic kind while m*dt <= 1, where its rejection accepts a
    candidate with probability e^(-m dt) >= 1/e.  Compound: every other
    kind, the relativistic kind past that tilt, and any step whose exact
    draw would leave the float range with a chance over 2^-53: a Kanter
    variate K_rho passes the largest float M with chance M^(-rho)/Gamma(1 -
    rho), and dt^(1/rho) K_rho with dt times that where dt > 1 (rho the
    smallest index/2 of the draw)."""
    if phi.killing > 0.0:
        raise ConstructionError("path sampling needs an unkilled exponent")
    if phi.kind not in ("stable", "sum", "relativistic") or phi.kind == "relativistic" and phi.m * dt > 1.0:
        return False
    rho = (phi.beta if phi.kind == "sum" else phi.alpha_param) / 2.0
    return math.log(max(dt, 1.0)) - rho * _LOG_FLOAT_MAX - math.lgamma(1.0 - rho) <= -53.0 * math.log(2.0)


class _Increments:
    """Subordinator draws for skeleton steps of length dt, by path id.

    The only reader of the subordinator channels, through ``increments``,
    which draws the increment S of step k of a path.  The step takes its
    first Kanter pair (exact) or its Poisson jump count (compound) from
    rng.CH_SUB, and its other draws from rng.exact_channel(i, d):

    * stable: dt^(2/alpha) K_(alpha/2), K a Kanter variate;
    * sum: that plus dt^(2/beta) K_(beta/2), whose pair is channel i = 0;
    * relativistic: the stable draw tilted by e^(-theta S), theta =
      m^(2/alpha), by rejection.  Round r accepts its candidate where the
      first uniform of channel i = 2r is under e^(-theta S); a rejected
      counter draws round r + 1's candidate from channel i = 2r + 1;
    * compound: the drift plus the step's jumps, added in slot order; the
      jump in slot j takes its size pair from channel i = j, which ``jump``
      draws for any set of jumps in one call.
    """

    def __init__(self, phi: CompleteBernsteinFunction, cfg: PathConfig, dt: float):
        self.compound = not _exact_increments(phi, dt)
        self.stream = rng.PhiloxStream(cfg.seed)
        if not self.compound:
            self.kind = phi.kind
            self.rho = phi.alpha_param / 2.0
            self.dt_pow = dt ** (1.0 / self.rho)
            if self.kind == "sum":
                self.rho_second = phi.beta / 2.0
                self.dt_pow_second = dt ** (1.0 / self.rho_second)
            elif self.kind == "relativistic":
                self.theta = phi.branch_point
        else:
            rate, drift, self.mixture_cdf, self.rates = _compound_tables(phi, cfg.epsilon)
            self.epsilon = cfg.epsilon
            self.mean_jumps = rate * dt  # rate*dt, jumps per step
            self.cdf = _poisson_cdf(self.mean_jumps)
            self.drift = drift * dt  # mean of the discarded small jumps

    def increments(self, step, ids: np.ndarray, d: int) -> np.ndarray:
        """Increments of the counters (step, ids) of a march in dimension d;
        step may be an array, as in rng.PhiloxStream.uniform_pair, here and
        in exact, jump_counts and jump."""
        if not self.compound:
            return self.exact(step, ids, d)
        counts = self.jump_counts(step, ids)
        out = np.full(counts.shape, self.drift)
        steps = np.broadcast_to(np.asarray(step, dtype=np.uint64), counts.shape).ravel()
        ids = np.broadcast_to(ids, counts.shape).ravel()
        for owner, slots in _jump_slots(counts):
            # add.at adds a counter's jumps one after another, in slot order
            np.add.at(out.reshape(-1), owner, self.jump(slots, steps[owner], ids[owner], d))
        return out

    def exact(self, step, ids: np.ndarray, d: int) -> np.ndarray:
        u, w = self.stream.uniform_pair(rng.CH_SUB, step, ids)
        out = self.dt_pow * _kanter(self.rho, u, -np.log(w))
        if self.kind == "sum":
            u, w = self.stream.uniform_pair(rng.exact_channel(0, d), step, ids)
            out += self.dt_pow_second * _kanter(self.rho_second, u, -np.log(w))
        elif self.kind == "relativistic":
            # the rejected counters, as flat indices with their steps and ids
            steps = np.broadcast_to(np.asarray(step, dtype=np.uint64), out.shape).ravel()
            ids, flat = np.broadcast_to(ids, out.shape).ravel(), out.reshape(-1)
            channel = rng.exact_channel(0, d)
            accept, _ = self.stream.uniform_pair(channel, steps, ids)
            todo = np.flatnonzero(accept >= np.exp(-self.theta * flat))
            while todo.size:
                # one call draws the next candidate and its acceptance uniform
                u, w = self.stream.uniform_pair(channel + 1, steps[todo, None],
                                                np.broadcast_to(ids[todo, None], (todo.size, 2)),
                                                offset=np.arange(2, dtype=np.uint64))
                flat[todo] = self.dt_pow * _kanter(self.rho, u[:, 0], -np.log(w[:, 0]))
                todo = todo[u[:, 1] >= np.exp(-self.theta * flat[todo])]
                channel += 2
        return out

    def jump_counts(self, step, ids: np.ndarray) -> np.ndarray:
        u0, _ = self.stream.uniform_pair(rng.CH_SUB, step, ids)
        return np.searchsorted(self.cdf, u0)

    def jump(self, slots: np.ndarray, step, ids: np.ndarray, d: int) -> np.ndarray:
        """Sizes eps + E/S of the jumps in slots ``slots`` at (step, ids), one
        jump per element (S from the mixture by u, E = -log v, of the size
        pair).  One Philox call draws the size channel
        rng.exact_channel(slot, d) of every jump, bit for bit as one call
        per slot would."""
        u, v = self.stream.uniform_pair(rng.exact_channel(0, d), step, ids,
                                        offset=np.asarray(slots, dtype=np.uint64))
        return self.epsilon - np.log(v) / self.rates[np.searchsorted(self.mixture_cdf, u)]


def _jump_slots(counts: np.ndarray):
    """Every jump that ``counts`` holds, as the flat index of its counter and
    its slot, in counter order and by slot within a counter.

    Yields pieces of at most _BATCH_SIZE jumps plus one counter's, each
    ending with a counter's last jump, so that the temporaries of the draw
    of a piece stay bounded however many jumps a chunk holds; no mask over
    slots times counters is built."""
    c = counts.ravel()
    ends = np.cumsum(c)
    first = ends - c  # the index of each counter's first jump
    cuts = np.searchsorted(ends, np.arange(_BATCH_SIZE, ends[-1], _BATCH_SIZE), "right")
    for lo, hi in zip([0, *cuts], [*cuts, c.size]):
        owner = np.repeat(np.arange(lo, hi), c[lo:hi])
        if owner.size:
            yield owner, first[lo] + np.arange(owner.size) - first[owner]


def sample_subordinator_increment(
    phi: CompleteBernsteinFunction, dt: float, cfg: PathConfig, step: int = 0
) -> np.ndarray:
    """cfg.paths independent samples of S_{t+dt} - S_t.

    ``step`` addresses the RNG stream, so successive skeleton increments of
    the same path come from calls with consecutive step indices.
    """
    if dt < 0.0:
        raise EvaluationDomainError("dt must be nonnegative")
    if dt == 0.0:
        _exact_increments(phi, dt)
        return np.zeros(cfg.paths)
    return _Increments(phi, cfg, dt).increments(step, np.arange(cfg.paths, dtype=np.uint64), 0)


# ---------------------------------------------------------------------------
# exit simulation engine


# Paths a batch marches or walks at once, and draws (steps, and a compound
# step's jumps) a chunk makes; records do not depend on it
_BATCH_SIZE = 16384

# Most moves a chunk's path array holds over all its live rows, however many
# rows share a drawn id
_PATH_CAP = 4 * _BATCH_SIZE

# A chunk's fixed cost, its Philox calls and array set-up (about 150-300 us
# on a 2-core x86 box), in drawn steps of one path (about 150-250 ns each):
# the draws a chunk may expect to waste after its paths' exits.  Records do
# not depend on it
_CHUNK_DRAWS = 1000

# Row length (live paths times d) from which adding a chunk's rows one by one
# beats np.cumsum, whose axis-0 accumulate loops over the columns
_ROW_ADD_MIN = 384


def _id_columns(ids: np.ndarray):
    """How the rows of a batch share path ids: the smallest id, each row's
    offset from it and the span of the offsets.  None means that every row
    draws for its own id, as it does when no two rows share one and when
    the ids spread over at least twice as many values as there are rows (no
    caller shares ids that sparsely; drawing per row gives the same bits).
    A table over the span, not a sort, finds the distinct ids."""
    lo = ids.min()
    if ids.max() - lo >= 2 * ids.size:
        return None
    offset = (ids - lo).astype(np.intp)
    span = int(offset.max()) + 1
    present = np.zeros(span, dtype=bool)
    present[offset] = True
    return None if np.count_nonzero(present) == ids.size else (lo, offset, span)


def _live_draws(ids: np.ndarray, columns, live: np.ndarray):
    """The path ids that the batch rows ``live`` draw for, each once, and
    the column of those draws that each live row copies; the columns are
    None, and every row draws for its own id, when ``columns`` (from
    _id_columns) is None."""
    if columns is None:
        return ids[live], None
    lo, offset, span = columns
    off = offset[live]
    present = np.zeros(span, dtype=bool)
    present[off] = True
    return np.flatnonzero(present).astype(np.uint64) + lo, (np.cumsum(present) - 1)[off]


def _simulate_batch(inc: _Increments, domain, starts, ids, cfg):
    """March one batch of paths to exit; returns per-path records.

    ``starts`` has one row per path.  Returns (tau, exit position, exited by
    jump), with tau NaN for paths still inside at the horizon.  A step is
    one move, and a path exits at the end of its first step outside.  Each
    chunk draws the moves of every live path id once and copies them to
    every live row that carries the id.

    A batch starts with a chunk of one step.  Where ``left`` ids exited over
    a chunk of m steps, about left/m exit per step, and the next chunk of m'
    steps wastes the draws of about left/m * m'^2/2 steps after their exits.
    That waste plus the chunk's fixed cost, F = _CHUNK_DRAWS draws, per step
    marched is least at m' = sqrt(2 F m / (left * draws per step)); the next
    chunk takes that, at most 2m, and 2m where no id left.  Its draw is
    also capped by the distinct ids, about _BATCH_SIZE draws over all of
    them, its path array by the live rows, at most _PATH_CAP moves over all
    of them, and the horizon.  The lengths follow from the records, which
    do not depend on them.
    """
    d = domain.d
    starts = np.asarray(starts, dtype=float)
    n = ids.size
    columns = _id_columns(ids)
    tau = np.full(n, np.nan)
    pos = np.full((n, d), np.nan)
    byj = np.zeros(n, dtype=bool)
    inside = domain.gap(starts) > 0.0
    tau[~inside] = 0.0
    pos[~inside] = starts[~inside]
    live = np.flatnonzero(inside)  # the rows still inside, and where they are
    x = starts[live]
    n_steps = int(math.ceil(cfg.horizon / cfg.step))
    # draws per step: one, or the count and rate*dt jumps on average
    per_step = 1.0 + inc.mean_jumps if inc.compound else 1.0
    k, m, drawn = 0, 1, 0
    while k < n_steps and live.size:
        draw_ids, cols = _live_draws(ids, columns, live)
        if k:  # sized by the ids that left over the last chunk's m steps
            left = drawn - draw_ids.size
            best = math.sqrt(2.0 * _CHUNK_DRAWS * m / (left * per_step)) if left else 2 * m
            m = max(min(2 * m, int(best)), 1)
        drawn = draw_ids.size
        # draws per path: the draw's budget over its ids, the path array's over its rows
        budget = max(min(_BATCH_SIZE // draw_ids.size, _PATH_CAP // live.size), 1)
        m = min(m, max(int(budget / per_step), 1), n_steps - k)
        steps = np.arange(k, k + m, dtype=np.uint64)[:, None]
        grid = np.broadcast_to(draw_ids, (m, draw_ids.size))
        scale = np.sqrt(2.0 * inc.increments(steps, grid, d))[..., None]
        z = inc.stream.normals(steps, grid, d)
        path = np.empty((m + 1, live.size, d))
        path[0] = x
        moves = path[1:]
        # one column of moves per drawn id, copied to its rows
        if cols is None:
            np.multiply(scale, z, out=moves)
        else:
            np.take(scale * z, cols, axis=1, out=moves, mode="clip")
        if live.size * d < _ROW_ADD_MIN:
            np.cumsum(path, axis=0, out=path)
        else:  # the same sums, in order
            for i in range(1, m + 1):
                path[i] += path[i - 1]
        gap = domain.gap(moves.reshape(-1, d)).reshape(m, live.size)
        out = gap <= 0.0
        first = np.where(out.any(axis=0), out.argmax(axis=0), m)
        col = np.flatnonzero(first < m)
        hit, step_out = live[col], first[col]
        tau[hit] = (k + step_out + 1) * cfg.step
        pos[hit] = moves[step_out, col]
        # a step's increment is one move, so a strict overshoot past the
        # closed boundary marks a jump
        byj[hit] = gap[step_out, col] < 0.0
        stay = first == m
        live, x = live[stay], moves[m - 1, stay]
        k += m
    return tau, pos, byj


def _run_batches(phi, domain, starts_all, cfg, ids_all=None):
    """March every row of ``starts_all`` to exit, _BATCH_SIZE rows at a time.

    Row i draws its noise from path id ``ids_all[i]`` (default i); a path's
    record depends only on its start and its id, never on the batching.
    Rows that share an id share every draw, and a chunk makes each draw
    once, for the id, not once per row.  Returns one _simulate_batch record
    per batch.
    """
    inc = _Increments(phi, cfg, cfg.step)
    n = starts_all.shape[0]
    if ids_all is None:
        ids_all = np.arange(n, dtype=np.uint64)
    results = []
    for lo in range(0, n, _BATCH_SIZE):
        ids, starts = ids_all[lo : lo + _BATCH_SIZE], starts_all[lo : lo + _BATCH_SIZE]
        results.append(_simulate_batch(inc, domain, starts, ids, cfg))
    return results


def _walk_on_spheres(phi, domain, starts_all, cfg, ids_all=None):
    """Walk every row of ``starts_all`` on spheres to its exit position,
    _BATCH_SIZE rows at a time; ids as in _run_batches, so rows that share
    an id share every sphere's draws, and each sphere's radius multiple and
    direction are drawn once per id.

    Returns (positions, stopped); a row not stopped was censored after
    ceil(cfg.horizon/cfg.step) spheres.
    """
    a = phi.alpha_param / 2.0
    stream = rng.PhiloxStream(cfg.seed)
    x = np.array(starts_all, dtype=float, copy=True)
    n = x.shape[0]
    if ids_all is None:
        ids_all = np.arange(n, dtype=np.uint64)
    gap = domain.gap(x)
    stopped = gap <= 0.0
    n_spheres = int(math.ceil(cfg.horizon / cfg.step))
    for lo in range(0, n, _BATCH_SIZE):
        ids = ids_all[lo : lo + _BATCH_SIZE]
        columns = _id_columns(ids)
        live = np.arange(lo, lo + ids.size)
        live = live[~stopped[live]]
        for k in range(n_spheres):
            if live.size == 0:
                break
            draw_ids, cols = _live_draws(ids, columns, live - lo)
            u, _ = stream.uniform_pair(rng.CH_WOS, k, draw_ids)
            z = stream.normals(k, draw_ids, domain.d, base_channel=rng.CH_WOS + 1)
            root = np.sqrt(betaincinv(a, 1.0 - a, u))
            if cols is not None:
                root, z = root[cols], z[cols]
            reach = gap[live] / root
            x[live] += (reach / _row_norm(z))[:, None] * z
            gap[live] = domain.gap(x[live])
            stopped[live] = gap[live] <= 0.0
            live = live[~stopped[live]]
    return x, stopped


def _exit_positions(phi, domain, starts_all, cfg, ids_all=None, march=None, walk=False):
    """Exit positions of every row of ``starts_all`` and the mask of rows
    that stopped (the others were censored), for estimators that read no
    exit time.  With ``walk`` set by the estimator, the stable kind walks on
    spheres; otherwise, and for every other kind, it marches with ``march``
    (default _run_batches), which the caller may pass as the name it
    imported."""
    if walk and phi.kind == "stable":
        return _walk_on_spheres(phi, domain, starts_all, cfg, ids_all)
    parts = (march or _run_batches)(phi, domain, starts_all, cfg, ids_all=ids_all)
    tau, pos, _ = map(np.concatenate, zip(*parts))
    return pos, ~np.isnan(tau)


def simulate_exits(phi, domain, x0, cfg: PathConfig) -> ExitSample:
    """Exit samples for cfg.paths paths all started at x0."""
    starts = np.tile(_start_point(x0, domain), (cfg.paths, 1))
    tau, pos, byj = map(np.concatenate, zip(*_run_batches(phi, domain, starts, cfg)))
    ok = ~np.isnan(tau)
    return ExitSample(
        tau=tau[ok],
        exit_position=pos[ok],
        exited_by_jump=byj[ok],
        censored=int((~ok).sum()),
    )


# ---------------------------------------------------------------------------
# checks built on the sampler


@dataclass(frozen=True)
class ExceedanceReport:
    estimate: McEstimate
    ratio: float
    t: float
    r: float


def exceedance_probability(phi, d: int, r: float, t: float, cfg: PathConfig) -> ExceedanceReport:
    """P(sup_{s <= t} |X_s - X_0| > r) with the check ratio estimate/(phi(r^-2) t).

    The supremum is evaluated on the skeleton epochs, a documented
    underestimate of the true running supremum.
    """
    _check_radius(r)
    _exact_increments(phi, cfg.step)
    if t < 0.0:
        raise EvaluationDomainError("t must be nonnegative")
    if t == 0.0:
        return ExceedanceReport(McEstimate(0.0, 0.0, cfg.paths), 0.0, t, r)
    domain = Ball(center=(0.0,) * d, radius=r)
    run_cfg = replace(cfg, horizon=t, step=min(cfg.step, t))
    parts = _run_batches(phi, domain, np.zeros((cfg.paths, d)), run_cfg)
    tau = np.concatenate([p[0] for p in parts])
    exceed = (~np.isnan(tau)) & (tau <= t)
    est = McEstimate.from_values(exceed.astype(float))
    ratio = est.mean / (float(phi(r**-2)) * t)
    return ExceedanceReport(est, float(ratio), t, r)


@dataclass(frozen=True)
class ExitTimeBoundsReport:
    r_grid: np.ndarray
    products: np.ndarray
    window: tuple
    offsets: np.ndarray
    offset_means: np.ndarray
    offset_ses: np.ndarray
    renewal_bounds: np.ndarray
    bound_ok: np.ndarray
    censored: int

    @property
    def window_positive(self) -> bool:
        return math.isfinite(self.window[1]) and self.window[0] > 0.0

    @property
    def passed(self) -> bool:
        """The product window is positive and every start's mean is under its renewal bound."""
        return self.window_positive and bool(np.all(self.bound_ok))


# starting offsets beta of exit_time_bounds_check, as fractions of r; 0 gives
# the centred mean behind the product window
_BOUND_OFFSETS = (0.0, 0.5, 0.9)


def exit_time_bounds_check(phi, d: int, r_grid, paths: int, seed: int,
                           epsilon: float = 1e-4) -> ExitTimeBoundsReport:
    """Exit-time comparisons on centered balls B(0, r).

    For each r the product E_0[tau_B(0,r)] * phi(r^-2) must land in a
    positive window.  At starting offsets x = beta*r the mean must stay
    under the renewal-function bound 2 V(2r) V(r - |x|) plus three standard
    errors (the explicit factor 2 makes this an assertable inequality; the
    window constants are existence-only and therefore only reported).  Each
    start runs ``paths`` paths on scaled_config's skeleton for its radius,
    with seed and the compound sampler's truncation level epsilon.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    offsets = np.array(_BOUND_OFFSETS)
    products = np.empty(r_grid.size)
    off_means = np.empty((r_grid.size, offsets.size))
    off_ses = np.empty_like(off_means)
    censored = 0
    # V(2r) and V(r - |x|) of every start, in one call
    gaps = r_grid[:, None] - np.abs(offsets * r_grid[:, None])
    renewal = np.atleast_1d(renewal_function_V(phi, np.concatenate([2.0 * r_grid, gaps.ravel()])))
    bounds = 2.0 * renewal[:r_grid.size, None] * renewal[r_grid.size:].reshape(gaps.shape)
    for i, r in enumerate(r_grid):
        run_cfg = scaled_config(phi, r, paths, seed, epsilon=epsilon)
        domain = Ball(center=(0.0,) * d, radius=float(r))
        for j, beta in enumerate(offsets):
            x0 = np.zeros(d)
            x0[0] = beta * r
            sample = simulate_exits(phi, domain, x0, run_cfg)
            censored += sample.censored
            est = sample.mean_tau()
            off_means[i, j] = est.mean
            off_ses[i, j] = est.std_error
            if beta == 0.0:
                products[i] = est.mean * float(phi(r**-2.0))
    ok = off_means <= bounds + 3.0 * off_ses
    return ExitTimeBoundsReport(
        r_grid=r_grid,
        products=products,
        window=(float(np.min(products)), float(np.max(products))),
        offsets=offsets,
        offset_means=off_means,
        offset_ses=off_ses,
        renewal_bounds=bounds,
        bound_ok=ok,
        censored=censored,
    )


@dataclass(frozen=True)
class ExitHistogram:
    edges: np.ndarray
    prob: np.ndarray
    density: np.ndarray
    n: int
    censored: int
    mass_left: float
    mass_right: float


def exit_distribution_histogram(phi, ball: Ball, x0, edges, cfg: PathConfig) -> ExitHistogram:
    """Empirical exit-position histogram over radial bins |y - center|.

    ``prob`` is the per-bin exit probability, ``density`` divides by the bin
    width, giving the quantity comparable to a radial Poisson-kernel profile
    (for d = 1 the two boundary sides are folded together; their separate
    masses are reported for symmetry checks).  The stable kind walks on
    spheres; every other kind marches on the increments its kind picks.
    """
    starts = np.tile(_start_point(x0, ball), (cfg.paths, 1))
    pos, stopped = _exit_positions(phi, ball, starts, cfg, walk=True)
    pos = pos[stopped]
    edges = np.asarray(edges, dtype=float)
    dist = _row_norm(pos - np.asarray(ball.center)[None, :])
    counts, _ = np.histogram(dist, bins=edges)
    n = pos.shape[0]
    prob = counts / max(n, 1)
    width = np.diff(edges)
    side = pos[:, 0] - ball.center[0]
    return ExitHistogram(
        edges=edges,
        prob=prob,
        density=prob / width,
        n=n,
        censored=cfg.paths - n,
        mass_left=float(np.mean(side < 0.0)) if n else math.nan,
        mass_right=float(np.mean(side > 0.0)) if n else math.nan,
    )


@dataclass(frozen=True)
class _Punctured:
    """The enclosing domain minus the closed target, which may poke out of it."""

    enclosing: object
    target: object

    @property
    def d(self) -> int:
        return self.enclosing.d

    def gap(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(self.enclosing.gap(x), -self.target.gap(x))


def hitting_before_exit(phi, target, start, enclosing, cfg: PathConfig) -> McEstimate:
    """P_start(T_target < tau_enclosing), target checked at every epoch.

    ``start`` is one point of the closed enclosing domain.  ``target`` is
    an Interval/Ball of the enclosing domain's dimension, or None for the empty set (probability exactly zero).  The target is
    closed: a start in it gives probability exactly one, and a path hits
    when its first exit from enclosing minus target lands in it; censored
    paths count for neither.  Monotone in the target on matched seeds: each
    path id follows one trajectory, so nested targets give nested hitting
    events.  Every kind marches.
    """
    start_pt = _start_point(start, enclosing)
    if target is None:
        return McEstimate(0.0, 0.0, cfg.paths)
    if target.d != enclosing.d:
        raise EvaluationDomainError(
            f"target of dimension {target.d} in an enclosing domain of dimension {enclosing.d}")
    if target.gap(start_pt[None, :])[0] >= 0.0:
        return McEstimate(1.0, 0.0, cfg.paths)
    starts = np.tile(start_pt, (cfg.paths, 1))
    pos, stopped = _exit_positions(phi, _Punctured(enclosing, target), starts, cfg)
    return McEstimate.from_values(target.gap(pos[stopped]) >= 0.0)


def epsilon_refinement_check(phi, domain, x0, cfg: PathConfig) -> dict:
    """Mean exit time at epsilon and epsilon/2; delta must be < 3 combined SE.

    Exact increments read no epsilon, so both runs would be one march and
    pass with delta 0: a kind that marches cfg.step on them (stable, sum,
    and relativistic with m*step <= 1) raises ConstructionError."""
    if _exact_increments(phi, cfg.step):
        raise ConstructionError(f"{phi.label()} has exact increments, which read no epsilon")
    a = simulate_exits(phi, domain, x0, cfg)
    b = simulate_exits(phi, domain, x0, replace(cfg, epsilon=cfg.epsilon / 2.0))
    ea, eb = a.mean_tau(), b.mean_tau()
    combined = math.hypot(ea.std_error, eb.std_error)
    return {
        "mean": ea.mean,
        "mean_refined": eb.mean,
        "combined_se": combined,
        "delta": abs(ea.mean - eb.mean),
        "passed": abs(ea.mean - eb.mean) < 3.0 * combined,
    }
