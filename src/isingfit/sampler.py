"""Spin samplers: single-site heat-bath dynamics and exact inverse-CDF draws.

The dynamics resample one uniformly random site per step from its conditional
law ``P[X_i = +1 | x_{-i}] = (1 + tanh(J_i x + h_i)) / 2``; one sweep is n
such steps. The chain is only approximate for finite burn-in, so tests that
need genuine i.i.d. samples should use :func:`exact_sample` (available up to
the enumeration cap).

Both samplers take the seed as an argument. Chains own disjoint RNG streams keyed
by (seed, chain index), and chain c's samples are the rows ``c::chains`` of the
batch (a round-robin merge), so the output is a pure function of the model,
count, config and seed no matter how the chains are scheduled. That lets
:func:`glauber_sample` run its chains on :func:`chain_processes` processes, the
caller and workers forked from it, with the same bytes as one process running
them in turn; it stays in one process where a worker would not pay for itself or
is unsafe to fork. A chain keeps its local fields in one numpy vector and updates
them with one vector add per flip; samples are byte-identical to those of earlier
releases, whose loop added one scalar per site. :func:`mixing` gives split-R-hat.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import exact
from .core import IsingModel, ParameterError, SampleBatch, is_int, is_real, stream


# Fewer site updates than this run in the calling process alone. Forking and
# joining one worker takes about 2.5 ms, the time of 4*10^3 updates, but two
# chains at once each ran 1.5-2.5x slower than alone (2 shared vCPUs): at
# 4-5*10^4 updates two processes lost some repeats, at 10^5 they won every
# repeat (median 1.8x). 2*10^5 keeps a margin where the host is busier.
_MIN_PARALLEL_UPDATES = 200_000


@dataclass(frozen=True)
class GlauberConfig:
    burn_in_sweeps: int = 200
    thinning_sweeps: int = 5
    chains: int = 4

    def __post_init__(self):
        for name in ("burn_in_sweeps", "thinning_sweeps", "chains"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise ParameterError(f"{name} must be an integer >= 1")


def _check_count(l) -> None:
    """Raise ParameterError unless the sample count l is an integer >= 1."""
    if not is_int(l) or l < 1:
        raise ParameterError("sample count must be an integer >= 1")


def default_config(alpha: float | None = None) -> GlauberConfig:
    """Defaults: 50*ceil(1/alpha) burn-in sweeps given a spectral-gap hint, else 200."""
    if alpha is None:
        return GlauberConfig()
    if not (is_real(alpha) and 0 < alpha <= 1):
        raise ParameterError("alpha_hint must be in (0, 1]")
    return GlauberConfig(burn_in_sweeps=50 * math.ceil(1.0 / alpha))


def _run_chain(J: np.ndarray, h: np.ndarray, n_samples: int, cfg: GlauberConfig, rng) -> np.ndarray:
    n = h.shape[0]
    x = [1.0 if b else -1.0 for b in rng.integers(0, 2, size=n)]
    # Local fields J x + h, summed in python order so their bits never change.
    # A flip adds the row 2J_i or -2J_i: doubling is exact, so each f_j rounds
    # as f_j + J_ij*d did with d = +-2. Draws are read through memoryviews.
    f = np.array([sum(J.item(i, j) * x[j] for j in range(n)) + h.item(i) for i in range(n)])
    up = list(2.0 * J)
    down = [-r for r in up]
    tanh = math.tanh

    def sweeps(count: int) -> None:
        nonlocal f
        steps = count * n
        for i, u in zip(memoryview(rng.integers(0, n, size=steps)), memoryview(rng.random(steps))):
            s_new = 1.0 if u < 0.5 * (1.0 + tanh(f.item(i))) else -1.0
            if s_new != x[i]:
                x[i] = s_new
                f += up[i] if s_new > 0.0 else down[i]
    sweeps(cfg.burn_in_sweeps)
    out = np.empty((n_samples, n), dtype=np.int8)
    for k in range(n_samples):
        sweeps(cfg.thinning_sweeps)
        out[k] = x
    return out


def glauber_sample(m: IsingModel, l: int, cfg: GlauberConfig | None = None,
                   seed: int = 0) -> SampleBatch:
    """Draw l approximate samples via the heat-bath chain.

    Runs ``cfg.chains`` independent chains, chain c on ``stream(seed, c)``, from uniform
    random starts, discards the burn-in, then records one configuration every
    ``thinning_sweeps`` sweeps, interleaving chains round-robin until l samples are collected.
    """
    _check_count(l)
    if cfg is None:
        cfg = default_config()
    chains = min(cfg.chains, l)
    rngs = [stream(seed, c) for c in range(chains)]  # a bad seed fails before any fork
    procs = chain_processes(m.n, l, cfg)
    per_chain = [(l - c + chains - 1) // chains for c in range(chains)]
    spins = np.empty((l, m.n), dtype=np.int8)
    J, h = m.coupling.entries, m.field

    def run(k: int) -> list[np.ndarray]:  # the chains c = k mod procs, in order
        return [_run_chain(J, h, per_chain[c], cfg, rngs[c]) for c in range(k, chains, procs)]

    # Process k runs run(k), the caller k = 0; each chain fills its own rows,
    # so the bytes do not depend on who ran it.
    for k, rows in enumerate(_run_forked([functools.partial(run, k) for k in range(procs)])):
        for c, chain_rows in zip(range(k, chains, procs), rows):
            spins[c::chains] = chain_rows
    return SampleBatch(spins)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def chain_processes(n: int, l: int, cfg: GlauberConfig) -> int:
    """Processes that ``glauber_sample`` runs its chains on for l samples at size n.

    That is min(chains, usable CPUs), except that the caller runs every chain
    alone (1) in these cases:
    - one chain or one CPU, where there is nothing to split;
    - fewer than ``_MIN_PARALLEL_UPDATES`` site updates, where starting a
      worker costs more than it saves;
    - the caller is itself a multiprocessing child, so the workers of a
      parallel sweep never start workers of their own;
    - another thread is running: fork copies only the calling thread, and a
      lock that another thread holds would stay held in the worker;
    - the platform has no ``fork`` start method.
    """
    procs = min(cfg.chains, l, _usable_cpus())
    if procs == 1 or site_updates(n, l, cfg) < _MIN_PARALLEL_UPDATES:
        return 1
    import multiprocessing  # here, so that serial runs do not load it

    if (multiprocessing.parent_process() is not None or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return procs


def _run_forked(tasks: list) -> list:
    """The results of the zero-argument callables ``tasks``, in order.

    The first runs in this process while each other runs in a worker forked
    from it, which sends back its result, or the exception that ended it for
    the caller to raise. Workers are plain ``Process`` objects with one pipe
    each, as a ``ProcessPoolExecutor`` raised peak memory by about 1 MB more
    (its modules and its manager and feeder threads). A worker whose result
    was not read when the call failed is stopped; none outlives the call.
    """
    if len(tasks) == 1:
        return [tasks[0]()]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    workers, results = [], []
    try:
        for task in tasks[1:]:
            recv, send = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_send_result, args=(send, task))
            worker.start()
            send.close()  # the worker holds its own copy
            workers.append((worker, recv))
        results.append(tasks[0]())
        for worker, recv in workers:
            try:
                result = recv.recv()
            except EOFError:  # the worker died before it could send
                worker.join()
                raise RuntimeError(f"a chain worker exited with code {worker.exitcode}") from None
            if isinstance(result, Exception):
                raise result
            results.append(result)
        return results
    finally:
        for i, (worker, recv) in enumerate(workers, 1):
            if len(results) <= i:
                worker.terminate()
            worker.join()
            recv.close()


def _send_result(conn, task) -> None:
    """A forked worker's body: send ``task()``, or the exception it raised."""
    try:
        result = task()
    except Exception as e:  # noqa: BLE001 - the caller raises it
        result = e
    conn.send(result)
    conn.close()


def site_updates(n: int, l: int, cfg: GlauberConfig) -> int:
    """Single-site updates that ``glauber_sample`` makes for l samples at size n."""
    return n * (min(cfg.chains, l) * cfg.burn_in_sweeps + l * cfg.thinning_sweeps)


def split_rhat(draws: np.ndarray) -> float | None:
    """Split-R-hat (BDA3; Vehtari et al. 2021) of a (chains, draws) array.

    Each chain is cut into its first and last halves, dropping the middle draw
    of an odd length. None when a half has fewer than 2 draws or the
    within-half variance W is 0, that is, every half is constant (tested
    exactly, as rounding can leave a constant half a variance near 0).
    """
    half = draws.shape[1] // 2
    if half < 2:
        return None
    halves = np.concatenate([draws[:, :half], draws[:, -half:]]).astype(np.float64)
    if not np.ptp(halves, axis=1).any():
        return None
    within = halves.var(axis=1, ddof=1).mean()
    between = half * halves.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((half - 1) * within + between) / (half * within)))


def mixing(m: IsingModel, batch: SampleBatch, cfg: GlauberConfig) -> dict[str, float | None]:
    """Split-R-hat of the energy x'Jx/2 + h.x and of the magnetization sum(x)
    across the chains of a ``glauber_sample`` batch, each chain's rows
    ``spins[c::chains]`` cut to the shortest chain."""
    chains = min(cfg.chains, batch.l)
    rows = batch.l // chains * chains  # the round-robin merge puts them first
    x = batch.as_float()[:rows]
    energy = 0.5 * ((x @ m.coupling.entries) * x).sum(axis=1) + x @ m.field
    return {f"rhat_{name}": split_rhat(v.reshape(-1, chains).T)
            for name, v in (("energy", energy), ("magnetization", x.sum(axis=1)))}


def exact_sample(m: IsingModel | exact.DistributionTable, l: int, seed: int = 0) -> SampleBatch:
    """Draw l i.i.d. samples by inverse CDF over the model's 2^n table.

    ``m`` is the model or its table from :func:`exact.distribution`; both give the
    same bytes, and many batches from one model should share one table. The draw
    walks the table's probabilities, so no 2^n CDF is made (see :func:`exact.draw`).
    """
    idx, n = _exact_indices(m, l, [seed])
    return SampleBatch(exact.states(idx[0], n))


def _exact_indices(m: IsingModel | exact.DistributionTable, l: int,
                   seeds) -> tuple[np.ndarray, int]:
    """The state indices of :func:`exact_sample` for each of ``seeds``, one row of l
    per seed, and n. Row b draws from ``stream(seeds[b], 0xE)``, and one walk of the
    table for every row's keys gives the indices of one walk per row (see :func:`exact.draw`).
    """
    _check_count(l)
    table = m if isinstance(m, exact.DistributionTable) else exact.distribution(m)
    u = np.concatenate([stream(seed, 0xE).random(l) for seed in seeds])
    return exact.draw(table.probs, u).reshape(len(seeds), l), table.n
