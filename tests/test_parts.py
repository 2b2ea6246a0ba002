"""Marches and walks in forked parts: the records of one process, bit for
bit, and no child left behind whatever a part raises."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

from sbmpot import bernstein, cli, montecarlo as mc
from sbmpot.errors import EvaluationDomainError, NumericAccuracyError

pytestmark = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                reason="forked parts need os.fork and os.sched_getaffinity")


def _forks(monkeypatch, before=None, after=None):
    """The pids of the children the parent forks, recorded as it forks them;
    ``before`` and ``after`` run in the parent around each fork."""
    made = []
    fork = os.fork

    def recording():
        if before:
            before()
        pid = fork()
        if pid:
            made.append(pid)
            if after:
                after()
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return made


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _case(how):
    """(phi, domain, starts, ids, cfg, walk) of a small march or walk"""
    d = {"stable-d1": 1, "stable-d3": 3}.get(how, 2)
    phi, step = {"stable-d1": (bernstein.stable(1.0), 1e-2),
                 "stable-d3": (bernstein.stable(0.8), 1e-2),
                 "compound": (bernstein.sum_of_stables(1.0, 0.5), 2e-3),
                 # m*dt = 0.5: about 40% of the candidates are rejected
                 "relativistic": (bernstein.relativistic_stable(1.0, 25.0), 2e-2)}.get(
                     how, (bernstein.stable(1.5), 1e-2))
    n = 300
    starts = np.zeros((n, d))
    starts[:, 0] = np.random.default_rng(3).uniform(-0.9, 0.9, n)
    ids = None
    if how in ("family", "walk"):
        # 7 starts sharing the ids 0..n/7 - 1, as harnack._family_values runs them
        starts = np.repeat(np.linspace(-0.6, 0.6, 7)[:, None] * np.eye(d)[0], 43, axis=0)
        ids = np.tile(np.arange(43, dtype=np.uint64), 7)
    cfg = mc.PathConfig(paths=n, seed=17, horizon=3.0, step=step)
    return phi, mc.Ball(center=(0.0,) * d, radius=1.0), starts, ids, cfg, how == "walk"


def _records(phi, domain, starts, ids, cfg, walk):
    """Every field of every returned piece, with its shape."""
    if walk:
        pieces = [mc._walk_on_spheres(phi, domain, starts, cfg, ids)]
    else:
        pieces = mc._run_batches(phi, domain, starts, cfg, ids)
    return [(f.shape, f.dtype, f.tobytes()) for piece in pieces for f in piece]


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("how", ["stable-d1", "stable-d2", "stable-d3", "compound", "relativistic",
                                 "family", "walk"])
def test_forked_parts_are_bit_identical(monkeypatch, how, parts):
    # 300 rows in batches of 64: every part runs several batches, and the
    # pieces come back one per 64 rows in row order, as in one process; the
    # 43 ids of the family and the walk make 3 parts of at least 8
    if how == "compound":
        monkeypatch.setattr(mc, "_exact_increments", lambda phi, dt: False)
    case = _case(how)
    assert mc._Increments(case[0], case[4], case[4].step).compound == (how == "compound")
    monkeypatch.setattr(mc, "_BATCH_SIZE", 64)
    monkeypatch.setattr(mc, "_PART_IDS", 8)
    made = _forks(monkeypatch)
    _cpus(monkeypatch, 1)
    alone = _records(*case)
    assert made == []
    _cpus(monkeypatch, parts)
    assert _records(*case) == alone
    assert len(made) == parts - 1
    _assert_no_child_left()
    if how != "walk":
        assert len(alone) == 3 * 5  # ceil(300 / 64) pieces of three fields


def test_parts_hold_at_least_the_floor(monkeypatch):
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(mc, "_PART_IDS", 100)
    assert [mc._part_count(n) for n in (0, 199, 200, 399, 400, 10**6)] == [1, 1, 2, 3, 4, 4]


def test_parts_count_distinct_ids_not_rows(monkeypatch):
    # the family's 301 rows share 43 ids: fewer than two parts of 32 ids
    case = _case("family")
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(mc, "_PART_IDS", 32)
    made = _forks(monkeypatch)
    _records(*case)
    assert made == []
    monkeypatch.setattr(mc, "_PART_IDS", 21)
    _records(*case)
    assert len(made) == 1
    _assert_no_child_left()


def test_one_cpu_or_a_second_thread_marches_in_process(monkeypatch):
    case = _case("family")
    monkeypatch.setattr(mc, "_PART_IDS", 16)
    cpus = os.sched_getaffinity(0)
    made = _forks(monkeypatch)
    free = _records(*case)
    assert len(made) == min(len(cpus), 43 // 16) - 1
    made.clear()
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert mc._part_count(10**6) == 1
        pinned = _records(*case)
    finally:
        os.sched_setaffinity(0, cpus)
    go = threading.Event()
    peer = threading.Thread(target=go.wait)
    peer.start()
    try:
        assert mc._part_count(10**6) == 1
        threaded = _records(*case)
    finally:
        go.set()
        peer.join(timeout=10.0)
    assert not peer.is_alive()
    assert made == [] and pinned == threaded == free


def _failing_children(monkeypatch, fail):
    """_simulate_batch that calls ``fail`` in a forked child before it marches."""
    parent, batch = os.getpid(), mc._simulate_batch

    def failing(*args):
        if os.getpid() != parent:
            fail()
        return batch(*args)

    monkeypatch.setattr(mc, "_simulate_batch", failing)


def _forked_march():
    phi, domain, starts, ids, cfg, _ = _case("stable-d2")
    return mc._run_batches(phi, domain, starts, cfg, ids)


@pytest.mark.parametrize("error, code", [(NumericAccuracyError("a forked part failed", residual=0.25), 3),
                                         (EvaluationDomainError("a forked part failed"), 2)])
def test_child_failure_reaches_the_parent(monkeypatch, capsys, error, code):
    def fail():
        raise error

    _failing_children(monkeypatch, fail)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(mc, "_PART_IDS", 16)
    made = _forks(monkeypatch)
    with pytest.raises(type(error), match="a forked part failed") as raised:
        _forked_march()
    assert type(raised.value) is type(error) and vars(raised.value) == vars(error)
    assert len(made) == 1
    _assert_no_child_left()
    rc = cli.main(["simulate", "exit", "--kind", "stable", "--alpha", "1", "--dim", "2",
                   "--paths", "100", "--seed", "5", "--step", "0.01"])
    captured = capsys.readouterr()
    assert rc == code and captured.out == "" and "a forked part failed" in captured.err
    assert len(made) == 2
    _assert_no_child_left()


def test_killed_child_fails_the_march(monkeypatch):
    _failing_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(mc, "_PART_IDS", 16)
    with pytest.raises(RuntimeError, match=f"exit code {-signal.SIGKILL}"):
        _forked_march()
    _assert_no_child_left()


def test_parent_failure_kills_its_children(monkeypatch):
    # the children would march for a minute; the parent's failure kills them
    def fail():
        raise NumericAccuracyError("the parent's part failed")

    parent, batch = os.getpid(), mc._simulate_batch

    def slow_children(*args):
        if os.getpid() == parent:
            fail()
        time.sleep(60.0)
        return batch(*args)

    monkeypatch.setattr(mc, "_simulate_batch", slow_children)
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(mc, "_PART_IDS", 16)
    made = _forks(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(NumericAccuracyError, match="the parent's part failed"):
        _forked_march()
    assert len(made) == 2 and time.perf_counter() - start < 30.0
    _assert_no_child_left()


def _gone(pid):
    """Whether process pid has exited (a zombie whose reaper has not yet
    reaped it counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states under /proc")
def test_killed_parent_takes_its_children_with_it():
    script = textwrap.dedent("""
        import os, sys, time
        import numpy as np
        from sbmpot import bernstein, montecarlo as mc
        mc._PART_IDS = 16
        os.sched_getaffinity = lambda pid: {0, 1}
        parent, batch = os.getpid(), mc._simulate_batch
        def stalled(*args):
            if os.getpid() != parent:
                print(os.getpid(), flush=True)
            time.sleep(120.0)
            return batch(*args)
        mc._simulate_batch = stalled
        mc.simulate_exits(bernstein.stable(1.5), mc.Ball(center=(0.0,), radius=1.0), [0.0],
                          mc.PathConfig(paths=100, seed=1, horizon=1.0, step=0.01))
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env)
    try:
        child = int(proc.stdout.readline())
        assert not _gone(child)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 20.0
    while not _gone(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(child)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads under /proc")
def test_blas_pool_does_not_block_the_fork(monkeypatch):
    # OpenBLAS stops its thread pool at a fork (an atfork handler), so the
    # parent forks with one OS thread: no lock of the pool is copied into a
    # child, and Python 3.12's fork-with-threads warning is not raised
    def threads():
        return len(os.listdir("/proc/self/task"))

    square = np.ones((300, 300))
    square @ square  # wakes the pool if a fork stopped it
    if threads() == 1:
        pytest.skip("no BLAS thread pool runs (one CPU, or its size pinned to one thread)")
    counts = []
    _forks(monkeypatch, before=lambda: counts.append(threads()), after=lambda: counts.append(threads()))
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(mc, "_PART_IDS", 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _forked_march()
    assert len(counts) == 2 and counts[0] > 1 and counts[1] == 1, counts
    _assert_no_child_left()
