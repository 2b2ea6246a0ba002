"""Spans around sbmpot's layer entry points, recorded from outside the package.

``install`` replaces each entry point at the name its caller looks up at
call time (a module attribute, or a name a module imported), so no file of
sbmpot changes.  Spans stay in memory as tuples
``(span_id, name, start, end, parent_id, op_id)`` and are written out when
the pass ends.  The Philox call is the one hot leaf: it is aggregated per
parent span instead of stored, which keeps memory flat on runs that make
hundreds of thousands of calls.

A span's name is ``<layer>.<entry point>``; its layer is the module.  Self
time is a span's duration minus its child spans and aggregated leaf calls.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.leaf_calls: Counter = Counter()
        self.leaf_busy: defaultdict = defaultdict(float)
        self.leaf_under: defaultdict = defaultdict(float)  # parent span id -> leaf seconds
        self.op_id = None
        self._stack: list = []
        self._next_id = 0
        self._patched: list = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op_id))
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn, on_call):
        stack, counts = self._stack, self.counts
        calls, busy, under = self.leaf_calls, self.leaf_busy, self.leaf_under

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - start
            calls[name] += 1
            busy[name] += dt
            under[stack[-1] if stack else None] += dt
            on_call(counts, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counting_quad(self, quad, key: str):
        """scipy quad whose integrand callbacks are counted under ``key``."""
        counts = self.counts

        def traced_quad(f, *args, **kwargs):
            def integrand(x, *fargs):
                counts[key] += 1
                return f(x, *fargs)

            return quad(integrand, *args, **kwargs)

        return traced_quad

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "leaf_s": self.leaf_under.get(sid, 0.0)}) + "\n")


# ---------------------------------------------------------------------------
# counts taken at the layer boundaries


def _rng_count(counts, args):
    # uniform_pair(self, channel, step, path_ids)
    n = int(np.size(args[3]))
    counts["rng.elements"] += n
    if args[1] == 0:  # rng.CH_SUB: one subordinator draw per path-step
        counts["rng.sub_elements"] += n


def _march_counts(counts, args, kwargs, result):
    """Path-steps, march steps and stragglers from the exit times of each batch.

    A path that exits at time tau was drawn on ceil(tau/step) skeleton steps;
    a censored one on every step to the horizon.  A batch marches until its
    last path stops, and a march step is a straggler step when fewer than 1%
    of the batch is still alive.
    """
    cfg = args[3]
    horizon_steps = int(math.ceil(cfg.horizon / cfg.step))
    for part in result:
        tau = part[0][0] if isinstance(part[0], tuple) else part[0]
        done = ~np.isnan(tau)
        steps = np.full(tau.size, horizon_steps, dtype=np.int64)
        steps[done] = np.ceil(tau[done] / cfg.step - 1e-9).astype(np.int64)
        march = int(steps.max()) if steps.size else 0
        alive = tau.size - np.searchsorted(np.sort(steps), np.arange(march), side="right")
        counts["montecarlo.path_steps"] += int(steps.sum())
        counts["montecarlo.march_steps"] += march
        counts["montecarlo.straggler_steps"] += int(np.count_nonzero(alive < 0.01 * tau.size))
        counts["montecarlo.censored"] += int(np.count_nonzero(~done))


def _harnack_march_counts(counts, args, kwargs, result):
    counts["harnack.mc_calls"] += 1
    _march_counts(counts, args, kwargs, result)


def _evals(key: str, default: int):
    # talbot_inversion(transform, t, nodes) / gaver_stehfest(transform, t, terms)
    def on_result(counts, args, kwargs, result):
        per_point = args[2] if len(args) > 2 else next(iter(kwargs.values()), default)
        counts[key] += int(np.size(args[1])) * int(per_point)

    return on_result


def _lambdas(counts, args, kwargs, result):
    counts["ladder.chi.lambdas"] += int(np.size(args[1]))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point at the names its callers look up."""
    from sbmpot import bernstein, cli, densities, harnack, kernels, ladder, laplace, montecarlo, rng

    t = tracer
    t.patch(rng.PhiloxStream, "uniform_pair",
            t.leaf("rng.uniform_pair", rng.PhiloxStream.uniform_pair, _rng_count))

    run_batches = montecarlo._run_batches
    t.patch(montecarlo, "_run_batches", t.span("montecarlo.run_batches", run_batches, _march_counts))
    t.patch(harnack, "_run_batches",
            t.span("montecarlo.run_batches", run_batches, _harnack_march_counts))
    t.patch(cli, "simulate_exits", t.span("montecarlo.simulate_exits", cli.simulate_exits))

    for name in ("harnack_ratio", "bhp_ratio_check"):
        t.patch(cli, name, t.span(f"harnack.{name}", getattr(cli, name)))

    levy_tail = t.span("bernstein.levy_tail", bernstein.levy_tail)
    for module in (bernstein, densities, montecarlo):
        t.patch(module, "levy_tail", levy_tail)
    cbf = bernstein.CompleteBernsteinFunction
    t.patch(cbf, "__call__", t.span("bernstein.phi", cbf.__call__))

    t.patch(laplace, "talbot_inversion",
            t.span("laplace.talbot", laplace.talbot_inversion, _evals("laplace.talbot.transform_evals", 32)))
    t.patch(laplace, "gaver_stehfest",
            t.span("laplace.stehfest", laplace.gaver_stehfest, _evals("laplace.stehfest.transform_evals", 14)))

    for name in ("density_table", "zahle_upper_check", "u_asymptotic_ratio", "mu_asymptotic_ratio"):
        t.patch(cli, name, t.span(f"densities.{name}", getattr(cli, name)))
    for name in ("spline_potential_evaluator", "spline_levy_evaluator"):
        t.patch(kernels, name, t.span(f"densities.{name}", getattr(kernels, name)))

    t.patch(kernels, "subordination_integral",
            t.span("kernels.subordination_integral", kernels.subordination_integral))
    t.patch(kernels, "quad", t.span("kernels.quad", t.counting_quad(kernels.quad, "kernels.quad_evals")))
    for name in ("green_function", "jump_kernel", "build_kernel_table", "g_asymptotic_ratio",
                 "j_asymptotic_ratio", "j_doubling_and_shift"):
        t.patch(cli, name, t.span(f"kernels.{name}", getattr(cli, name)))

    chi = t.span("ladder.chi", ladder.ladder_exponent_chi, _lambdas)
    t.patch(ladder, "ladder_exponent_chi", chi)
    t.patch(cli, "ladder_exponent_chi", chi)
    for name, label in (("ladder_density_v", "ladder.v"), ("renewal_function_V", "ladder.V")):
        wrapped = t.span(label, getattr(ladder, name))
        t.patch(ladder, name, wrapped)
        t.patch(cli, name, wrapped)
    t.patch(cli, "halfline_green", t.span("ladder.halfline", cli.halfline_green))
    t.patch(cli, "chi_sandwich_check", t.span("ladder.chi_sandwich_check", cli.chi_sandwich_check))
    t.patch(ladder, "quad", t.span("ladder.quad", t.counting_quad(ladder.quad, "ladder.quad_evals")))

    t.patch(cli, "main", t.span("cli.main", cli.main))


# ---------------------------------------------------------------------------
# per-layer metrics


def _busy(spans, parent_of, names) -> float:
    """Wall time inside any of ``names``, counting nested calls once."""
    name_of = {s[0]: s[1] for s in spans}
    total = 0.0
    for sid, name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p is not None and name_of[p] not in names:
            p = parent_of[p]
        if p is None:
            total += end - start
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of a traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    parent_of = {s[0]: s[4] for s in spans}
    child_s = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    for sid, name, start, end, parent, _ in spans:
        self_s[name.split(".")[0]] += end - start - child_s[sid] - tracer.leaf_under.get(sid, 0.0)
        calls[name] += 1
    names_in = lambda prefix: {s[1] for s in spans if s[1].startswith(prefix)}
    busy = lambda names: _busy(spans, parent_of, names)
    c = tracer.counts

    rng_calls = tracer.leaf_calls["rng.uniform_pair"]
    rng_busy = tracer.leaf_busy["rng.uniform_pair"]
    rng_elements = c["rng.elements"]
    op_wall = sum(s[3] - s[2] for s in spans if s[1] == "cli.main")
    ratio = lambda num, den: num / den if den else 0.0

    return {
        "rng.calls": (rng_calls, "count"),
        "rng.elements": (rng_elements, "count"),
        "rng.elements_per_call": (ratio(rng_elements, rng_calls), "count"),
        "rng.busy_s": (rng_busy, "s"),
        "rng.ns_per_element": (ratio(rng_busy * 1e9, rng_elements), "ns"),
        "rng.share": (ratio(rng_busy, op_wall), "ratio"),
        "rng.useful_ratio": (ratio(c["montecarlo.path_steps"], c["rng.sub_elements"]), "ratio"),
        "montecarlo.path_steps": (c["montecarlo.path_steps"], "count"),
        "montecarlo.march_steps": (c["montecarlo.march_steps"], "count"),
        "montecarlo.straggler_steps": (c["montecarlo.straggler_steps"], "count"),
        "montecarlo.censored": (c["montecarlo.censored"], "count"),
        "montecarlo.self_s": (self_s["montecarlo"], "s"),
        "harnack.mc_calls": (c["harnack.mc_calls"], "count"),
        "harnack.self_s": (self_s["harnack"], "s"),
        "bernstein.levy_tail.calls": (calls["bernstein.levy_tail"], "count"),
        "bernstein.levy_tail.busy_s": (busy({"bernstein.levy_tail"}), "s"),
        "laplace.talbot.calls": (calls["laplace.talbot"], "count"),
        "laplace.talbot.transform_evals": (c["laplace.talbot.transform_evals"], "count"),
        "laplace.talbot.busy_s": (busy({"laplace.talbot"}), "s"),
        "laplace.stehfest.calls": (calls["laplace.stehfest"], "count"),
        "laplace.stehfest.transform_evals": (c["laplace.stehfest.transform_evals"], "count"),
        "laplace.stehfest.busy_s": (busy({"laplace.stehfest"}), "s"),
        "densities.busy_s": (busy(names_in("densities.")), "s"),
        "kernels.subordination.calls": (calls["kernels.subordination_integral"], "count"),
        "kernels.quad_evals": (c["kernels.quad_evals"], "count"),
        "kernels.busy_s": (busy(names_in("kernels.")), "s"),
        "ladder.chi.lambdas": (c["ladder.chi.lambdas"], "count"),
        "ladder.chi.busy_s": (busy({"ladder.chi"}), "s"),
        "ladder.inversion.busy_s": (busy({"ladder.v", "ladder.V"}), "s"),
        "ladder.halfline.busy_s": (busy({"ladder.halfline"}), "s"),
        "ladder.quad_evals": (c["ladder.quad_evals"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
    }


# Counts that repeat bit for bit between runs of the same code and seed.
EXACT_COUNTS = (
    "rng.calls", "rng.elements", "montecarlo.path_steps", "montecarlo.march_steps",
    "montecarlo.straggler_steps", "montecarlo.censored", "harnack.mc_calls",
    "bernstein.levy_tail.calls", "laplace.talbot.calls", "laplace.talbot.transform_evals",
    "laplace.stehfest.calls", "laplace.stehfest.transform_evals",
    "kernels.subordination.calls", "kernels.quad_evals", "ladder.chi.lambdas", "ladder.quad_evals",
)
