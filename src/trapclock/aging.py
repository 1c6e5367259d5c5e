"""Two-time overlap estimators and the arcsine aging prediction.

The quantity of interest is the probability that the rescaled dynamics at
wall-clock times ``t * e**(gamma*N)`` and ``(t+s) * e**(gamma*N)`` sit in the
same shallow neighbourhood: the Hamming distance between the two visited
sites is at most ``epsilon * N / 2``. As N grows this converges to the
generalized arcsine law ``arcsine_cdf(alpha, t/(t+s))`` with
``alpha = gamma / beta**2``.

Everything here runs at fixed finite N, so the estimators are Monte Carlo
over fresh environments (and, optionally, over environments with a frozen
jump chain). One batch kernel serves the REM and the dense p-spin model,
which in the source paper age alike: the walk, the clock and the crossing
detection are shared, and only the site energies differ. A site is the
one-word row of the configuration format `hypercube` defines (N <= 64, so
the word is `SpinConfig.bits`), and `hypercube` builds the walk's rows
(`_walk_into`). REM energies come from the counter-based
hash of `RemDisorder`, so revisits see the same trap depth without storing
the visited set; p-spin energies come from each replica's dense couplings
(`PSpinDisorder.energy_of_words`), in that evaluator's row blocks, and a
row's energies stop once its clock is past the second target at a block
boundary, since nothing after its second crossing is read. That evaluator
runs OpenBLAS on one thread, so each worker contracts alone. On the scale
e**(gamma*N) the clock is carried by deep traps, so the REM kernel hashes
every visited site but gives a depth, an exponential weight and a wait only
to sites at or above a level z0; shallower visits add nothing. z0 is set
per call so that the expected clock mass dropped up to the step cap is at
most delta * t * e**(gamma*N), with delta = `_DROPPED_MASS` = 1e-6
(`_deep_level`); delta = 0 is the exact kernel. So the clock is carried at
deep steps only: a chunk lists each replica's deep steps and the clock
after each, and the crossing search reads that list (`_clock_series`).
Where more than a quarter of some row's steps are deep (delta = 0, small N
or high temperature) and for p-spin rows, every step is listed; both forms
give the same bytes. Walks advance in chunks and each replica retires as
soon as both crossing times are known; a batch's chunks keep a fixed
element budget, so its survivors run longer chunks, not more of them. The
frozen-chain estimator runs the same batch code in shared-walk mode: one
walk per group, broadcast against the group's per-replica traps and waits.
Replicas run in batches of 32; batches and frozen-chain groups each own
their random streams, so the results depend on the batch size and the
chunk length but not on where the batches run. A REM call predicted to
take under `core._POOL_STEPS` walk steps (`_aging_work`) runs them inline,
one after another; larger REM calls and every p-spin call of two or more
batches run them on the processes of the package's one persistent pool,
one per core, forked on first use (`core._run_jobs`), which the range-miss
groups of `stable` share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri_exp

from .core import ModelParams, RngStream, _run_jobs, gaussian_from_bits, mix64_inplace
from .hamiltonian import PSpinDisorder
from .hypercube import _walk_into, hamming_u64
from .stable import arcsine_cdf

# fraction of replicas allowed to exhaust the step budget before the
# estimate is flagged as non conclusive
_EXCLUSION_BUDGET = 0.05

# a replica's step budget before it is written off, in units of the
# expected step count to the second target (`_step_cap`)
_STEP_CAP_FACTOR = 8.0

# replicas per batch job: the unit of the random streams and of the work
# handed to each core; small batches keep heavy-tailed batch times balanced
_BATCH = 32

# expected clock mass the REM kernels may drop, as a fraction of the first
# target t * e**(gamma*N): visits below the deep level add nothing
# (`_deep_level`); 0 keeps every site and is the exact kernel
_DROPPED_MASS = 1e-6


@dataclass(frozen=True)
class AgingEstimate:
    """One Monte Carlo estimate of a two-time probability.

    ``estimate`` is the empirical mean over replicas that resolved both
    crossing times; ``excluded`` counts replicas that ran out of step budget
    first. ``non_conclusive`` is set when the excluded fraction exceeds 5%,
    in which case the estimate should not be trusted (the budget truncation
    biases exactly the long-crossing tail that matters).
    """

    t: float
    s: float
    epsilon: float
    replicas: int
    estimate: float
    stderr: float
    arcsine_prediction: float
    alpha_used: float
    excluded: int = 0
    non_conclusive: bool = False
    mode: str = "rem"


def _arcsine_point(params: ModelParams, t: float, s: float) -> tuple[float, float]:
    if params.beta <= 0.0:
        return math.nan, math.nan
    alpha = params.alpha()
    if not 0.0 < alpha < 1.0:
        return math.nan, alpha
    return float(arcsine_cdf(alpha, t / (t + s))), alpha


def _step_cap(params: ModelParams, horizon: float, factor: float) -> int:
    # budget in microscopic steps before a replica is written off
    if params.beta > 0.0:
        return int(factor * params.r_steps(horizon)) + 1
    return int(factor * horizon * math.exp(params.gamma * params.N)) + 1


def _check_kernel_domain(params: ModelParams) -> None:
    if params.N > 64:
        raise ValueError("aging kernel packs sites into uint64, needs N <= 64")
    if params.beta * math.sqrt(params.N) > 90.0:
        raise ValueError(
            "linear-domain kernel would overflow: beta * sqrt(N) > 90"
        )
    if params.gamma * params.N > 600.0:
        raise ValueError("gamma * N too large for float64 wall-clock times")


def _landscapes(params: ModelParams, mode: str, rng: RngStream, ids: np.ndarray):
    """One environment per replica id, from ``rng.substream(id)``: the hash
    key of that stream's `RemDisorder` (uint64), or its dense
    `PSpinDisorder` (an object array)."""
    if mode == "rem":
        return np.array([rng.substream(int(i)).hash_key() for i in ids], dtype=np.uint64)
    return np.array([PSpinDisorder(params.N, params.p, rng.substream(int(i)), "dense")
                     for i in ids], dtype=object)


def _aging_work(params: ModelParams, horizon: float, replicas: int) -> float:
    """Expected microscopic steps of `replicas` clocks run to `horizon`, from
    the inverse stable mean ``r_steps(1) * horizon**alpha / Gamma(1 + alpha)``
    per replica; inf where that law gives no finite prediction."""
    if params.beta <= 0.0:
        return replicas * horizon * math.exp(params.gamma * params.N)
    alpha = params.alpha()
    if not 0.0 < alpha < 1.0:
        return math.inf
    try:
        r1 = params.r_steps(1.0)
    except OverflowError:
        return math.inf
    return replicas * r1 * horizon**alpha / math.gamma(1.0 + alpha)


def _clock_series(
    keys: np.ndarray,
    sites: np.ndarray,
    clock: np.ndarray,
    root: float,
    floor: int,
    stop: float,
    nu: int,
    wait_gen: np.random.Generator,
    h: np.ndarray,
    out: np.ndarray,
    deep: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The clock over one chunk, as a pair ``(cols, vals)`` of equal shape.

    Row i's clock is ``vals[i, k]`` after step ``cols[i, k]`` of the chunk
    and stays there up to the row's next listed step; `cols` rises along
    each row and pads with the chunk length, `vals` with the row's last
    value. Each step adds ``wait * exp(root * energy)``, the waits drawn
    from `wait_gen` in step order, and the listed values are ``clock +
    cumsum`` of those increments. A p-spin row is a disorder, evaluated at
    its own sites; every step draws a wait and is listed. Its energies stop
    after the first of the disorder's row blocks in which its clock is above
    `stop` at the end of a complete `nu`-step block (`_pspin_row`), where
    both crossings and the first one's block value are known; past that the
    row keeps its last value. The chunk's waits are all drawn before any
    energy, so the stop moves no draw. REM rows ignore `stop` and `nu`. A
    REM key gives site x the hash ``mix64(key + x)``, whose
    `gaussian_from_bits` depth is the energy a `RemDisorder` with that key
    assigns to x. Only deep sites, whose hash is at least `floor`
    (`_deep_floor`), get a depth and a wait; the others add nothing, so the
    clock is carried at deep steps only. When no row has more than a quarter
    of its steps deep, each row lists only its deep steps; otherwise (floor
    0, high temperature, small N) the pair is dense, every step listed. Both
    forms give the same values bitwise: adding 0.0 is exact and the cumsum
    runs in step order along each row. `h` (uint64), `out` (float64) and
    `deep` (bool) are work arrays of the chunk's shape that hold the stages
    and the pair.
    """
    rows, length = sites.shape
    if keys.dtype == object:
        # the whole chunk's waits come first, so the stop moves no draw
        waits = wait_gen.standard_exponential(out=h.view(np.float64))
        for i, disorder in enumerate(keys):
            _pspin_row(disorder, sites[i], waits[i], out[i], clock[i], root, stop, nu)
        out += clock[:, None]
        return _every_step(h, rows, length), out

    np.add(sites, keys[:, None], out=h)
    mix64_inplace(h, out.view(np.uint64))
    np.greater_equal(h, np.uint64(floor), out=deep)
    idx = np.flatnonzero(deep)
    # the deep steps' hashes, depths and waits are packed at the front of
    # `out` and `h`; "clip" spares the copy "raise" makes
    bits = np.take(h, idx, out=out.reshape(-1).view(np.uint64)[: idx.size], mode="clip")
    inc = gaussian_from_bits(bits, h.reshape(-1).view(np.float64)[: idx.size])
    inc *= root
    np.exp(inc, out=inc)
    inc *= wait_gen.standard_exponential(out=bits.view(np.float64))

    vals, cols, slots = out, None, idx
    bounds = np.searchsorted(idx, np.arange(0, (rows + 1) * length, length))
    counts = np.diff(bounds)
    width = max(int(counts.max()), 1)
    if 4 * width <= length:
        # compact: row i's k-th deep step goes to slot k of row i; the pair
        # fills at most half of `h` past the increments
        row = np.repeat(np.arange(rows), counts)
        col = idx - row * length
        slots = row * width + np.arange(idx.size) - bounds[row]
        vals = out.reshape(-1)[: rows * width].reshape(rows, width)
        cols = h.reshape(-1).view(np.int64)[inc.size : inc.size + vals.size]
        cols.fill(length)
        cols[slots] = col
        cols = cols.reshape(rows, width)
    vals.fill(0.0)
    vals.reshape(-1)[slots] = inc
    if cols is None:
        # `h` is free once the increments are in `vals`
        cols = _every_step(h, rows, length)
    np.cumsum(vals, axis=1, out=vals)
    vals += clock[:, None]
    return cols, vals


def _every_step(h: np.ndarray, rows: int, length: int) -> np.ndarray:
    """The `cols` of a pair that lists every step: the step index, built in
    the free work array `h` and shared by the rows."""
    cols = h.reshape(-1).view(np.int64)[:length]
    cols.fill(1)
    np.cumsum(cols, out=cols)
    cols -= 1
    return np.broadcast_to(cols, (rows, length))


def _pspin_row(disorder: PSpinDisorder, sites: np.ndarray, waits: np.ndarray,
               out: np.ndarray, clock: float, root: float, stop: float, nu: int) -> None:
    """One p-spin row of `_clock_series`: ``cumsum(waits * exp(root *
    energy))`` over the row's `sites`, into `out`.

    The energies come in the disorder's own row blocks (`row_block` sites),
    the cumsum carried from block to block, so the bytes are those of one
    `energy_of_words` call and one cumsum over the whole row. Evaluation
    stops after the first block in which ``clock + sum`` is above `stop` at
    the end of a complete `nu`-step block: both crossings and the block value
    of the first are then known. The rest of `out` keeps the last sum.
    """
    step = disorder.row_block
    for lo in range(0, sites.size, step):
        hi = min(lo + step, sites.size)
        inc = out[lo:hi]
        inc[:] = disorder.energy_of_words(sites[lo:hi, None])
        inc *= root
        np.exp(inc, out=inc)
        inc *= waits[lo:hi]
        if lo:
            inc[0] += out[lo - 1]
        np.cumsum(inc, out=inc)
        end = hi // nu * nu - 1
        if end >= 0 and clock + out[end] > stop:
            out[hi:] = out[hi - 1]
            return


def _deep_level(root: float, target1: float, step_cap: int, dropped: float) -> float:
    """Energy z0 below which a REM visit may add nothing to the clock.

    A visit at a standard normal energy X adds ``e * exp(root * X)`` with a
    unit exponential e, and its shallow part has mean
    ``E[exp(root X) 1{X < z0}] = exp(root**2 / 2) * Phi(z0 - root)``. So
    ``z0 = root + Phi^-1(dropped * target1 / (step_cap * exp(root**2 / 2)))``
    drops at most ``dropped * target1`` of clock in expectation over the
    visits up to the step cap. z0 is clamped to at most `root`, and is -inf,
    keeping every site, when ``dropped * target1`` is 0.
    """
    if not 0.0 <= dropped < 1.0:
        raise ValueError(f"dropped mass must lie in [0, 1), got {dropped!r}")
    if dropped == 0.0 or target1 == 0.0:
        return -math.inf
    log_u = math.log(dropped) + math.log(target1) - math.log(step_cap) - root * root / 2.0
    return root + min(0.0, float(ndtri_exp(min(log_u, 0.0))))


def _deep_floor(z0: float) -> int:
    """Least hash whose `gaussian_from_bits` depth is at least `z0`.

    The depth is nondecreasing in the hash and reads its top 53 bits, so a
    bisection on those bits gives the floor as a multiple of 2**11, and
    ``hash >= floor`` holds exactly when the depth is at least z0. The
    floor never passes the top value of those bits, so some sites always
    stay: for z0 above every depth (the top one is about 8.21) the top
    cell stays, shallower than z0; z0 = -inf gives 0, which keeps every
    site.
    """
    bits, depth = np.empty(1, dtype=np.uint64), np.empty(1)
    lo, hi = 0, (1 << 53) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        bits[0] = mid << 11
        if gaussian_from_bits(bits, depth)[0] >= z0:
            hi = mid
        else:
            lo = mid + 1
    return lo << 11


def _kernel_scales(params: ModelParams, t: float, s: float, step_cap: int, dropped: float):
    """(nu, chunk, targets, root, floor) shared by the aging and frozen
    kernels; `floor` is the REM deep floor that drops at most `dropped`
    times the first target (`_deep_level`), 0 for ``dropped == 0``."""
    nu = params.nu()
    chunk = max(nu, (2048 // nu) * nu)
    wall = math.exp(params.gamma * params.N)
    targets = (t * wall, (t + s) * wall)
    root = params.beta * math.sqrt(params.N)
    floor = _deep_floor(_deep_level(root, targets[0], step_cap, dropped))
    return nu, chunk, targets, root, floor


def _aging_kernel(
    params: ModelParams,
    t: float,
    s: float,
    replicas: int,
    rng: RngStream,
    step_cap: int,
    mode: str = "rem",
    dropped: float = _DROPPED_MASS,
):
    """Simulate `replicas` independent clocks up to the second crossing.

    Replica i's landscape lives on ``rng.substream(1).substream(i)``: the
    `RemDisorder` or (mode "pspin") the dense `PSpinDisorder` of that
    stream. Replicas run in batches of ``_BATCH`` (32), each built inside
    its job (`_batch_job`) with its own generator keyed by its first
    replica; the batches run inline or on the process pool (`_run_batches`).
    A batch draws its flips and waits from that one generator, flips first in
    every chunk, and its chunks keep a fixed element budget
    (`_chunk_length`). So the results depend on ``_BATCH`` and the chunk
    length but not on where or in what order the batches run. REM visits
    below the deep level of `dropped` add nothing to the clock
    (`_deep_level`); ``dropped=0`` is the exact kernel.

    Returns (dist, excluded, vstar), one entry per replica, as in
    `_aging_batch`: the crossing distance (-1 where the step cap came
    first), the mask of the replicas the cap cut off, and the first
    coarse-block clock value above t*e**(gamma*N) (NaN where no block
    boundary got that far).
    """
    if mode == "pspin":
        if params.N**params.p > 2_000_000:
            raise ValueError("p-spin aging kernel needs a small dense tensor")
        if params.beta <= 0.0:
            raise ValueError("p-spin kernel needs beta > 0")
    elif mode != "rem":
        raise ValueError(f"unknown mode {mode!r}")
    key_rng, batch_rng = rng.substream(1), rng.substream(2)
    batches = [(key_rng, lo, min(lo + _BATCH, replicas), batch_rng.substream(lo),
                batch_rng.substream(lo), False) for lo in range(0, replicas, _BATCH)]
    parts = _run_batches(params, mode, t, s, step_cap, dropped, batches)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _run_batches(params: ModelParams, mode: str, t: float, s: float, step_cap: int,
                 dropped: float, batches: list[tuple]) -> list:
    """`_batch_job` of each of `batches`, a tuple (key_rng, lo, hi, walk_rng,
    wait_rng, shared_walk), at the call's `_kernel_scales`; the jobs run
    inline or on the process pool (`core._run_jobs`), in the order given."""
    scales = _kernel_scales(params, t, s, step_cap, dropped)
    jobs = [(params, mode, *batch, step_cap, *scales) for batch in batches]
    # p-spin batches go to the pool: `_aging_work` prices a step like a REM
    # hash, far below a contraction (N=10, 300 replicas: about 50 ms on
    # two cores' pool, 90 ms inline)
    replicas = sum(hi - lo for _, lo, hi, *_ in batches)
    work = math.inf if mode == "pspin" else _aging_work(params, t + s, replicas)
    return _run_jobs(_batch_job, jobs, work)


def _batch_job(params: ModelParams, mode: str, key_rng: RngStream, lo: int, hi: int,
               walk_rng: RngStream, wait_rng: RngStream, shared_walk: bool, step_cap: int,
               nu: int, chunk: int, targets, root: float, floor: int):
    """`_aging_batch` of replicas lo..hi-1: their landscapes from `key_rng`
    (`_landscapes`), the flips from `walk_rng` and the waits from
    `wait_rng`, both from one generator when the two streams are equal."""
    walk_gen = walk_rng.generator()
    wait_gen = walk_gen if wait_rng == walk_rng else wait_rng.generator()
    keys = _landscapes(params, mode, key_rng, np.arange(lo, hi, dtype=np.uint64))
    return _aging_batch(keys, walk_gen, wait_gen, params.N, nu, root, targets, step_cap,
                        chunk, floor, shared_walk)


def _aging_batch(
    keys: np.ndarray,
    walk_gen: np.random.Generator,
    wait_gen: np.random.Generator,
    N: int,
    nu: int,
    root: float,
    targets: tuple[float, float],
    step_cap: int,
    chunk: int,
    floor: int,
    shared_walk: bool = False,
):
    """One batch of clocks: (dist, excluded, vstar) of its replicas.

    `keys` holds the batch's per-replica environments, one row each (see
    `_landscapes`). Each chunk draws its flips from `walk_gen`, then its
    waits from `wait_gen`, so the result depends on nothing outside the
    batch. REM rows skip the sites whose hash is below `floor`; floor 0
    keeps every site. The chunk's clock is the pair of `_clock_series`,
    which lists only the deep steps unless more than a quarter of some
    row's steps are deep; the crossings, the block values and the clock
    carried into the next chunk are read from the pair alone, the same
    way for either form and either landscape. With `shared_walk` every
    replica follows one jump chain (one walker row, broadcast against the
    key rows) and only the traps and waits differ between replicas.
    Replicas retire as soon as their second crossing is known, in either
    mode: the chunk runs only the `live` rows, and the crossings are kept
    by replica. Returns, per replica:
      dist      -- Hamming distance between the sites occupied at the two
                   crossing times, -1 where the step cap came first
      excluded  -- mask of the replicas the step cap cut off
      vstar     -- first coarse-block clock value above the first target,
                   NaN where no block boundary got that far
    """
    target1, target2 = targets
    n = keys.shape[0]
    site1 = np.zeros(n, dtype=np.uint64)
    site2 = np.zeros(n, dtype=np.uint64)
    have1 = np.zeros(n, dtype=bool)
    have2 = np.zeros(n, dtype=bool)
    vstar = np.full(n, np.nan)
    # flat work buffers holding a fixed element budget: the full batch runs
    # `chunk` steps per chunk, and as replicas retire the survivors run
    # longer chunks in the same memory, not more of them
    budget = n * chunk
    walk_buf = np.empty(budget + n, dtype=np.uint64)
    hash_buf = np.empty(budget, dtype=np.uint64)
    series_buf = np.empty(budget)
    deep_buf = np.empty(budget, dtype=bool)

    live = np.arange(n)
    pos = np.zeros(1 if shared_walk else n, dtype=np.uint64)
    clock = np.zeros(n)
    steps_done = 0
    while live.size and steps_done < step_cap:
        rows = live.size
        length = _chunk_length(rows, budget, chunk, nu, step_cap - steps_done)
        walk = walk_buf[: pos.size * (length + 1)].reshape(pos.size, length + 1)
        _walk_into(walk, pos, walk_gen.integers(0, N, size=(pos.size, length)))
        sites = np.broadcast_to(walk[:, :-1], (rows, length))
        size = rows * length
        cols, vals = _clock_series(
            keys, sites, clock, root, floor, target2, nu, wait_gen,
            hash_buf[:size].reshape(rows, length), series_buf[:size].reshape(rows, length),
            deep_buf[:size].reshape(rows, length),
        )

        # the chunk ends on a block boundary, so the first boundary above
        # target1 is the one closing the first crossing's block: the clock
        # there is the coarse clock's vstar
        r1, k1 = _first_crossing(cols, vals, have1[live], target1)
        site1[live[r1]] = sites[r1, cols[r1, k1]]
        vstar[live[r1]] = _block_end_value(cols, vals, r1, k1, nu)
        have1[live[r1]] = True
        r2, k2 = _first_crossing(cols, vals, have2[live], target2)
        site2[live[r2]] = sites[r2, cols[r2, k2]]
        have2[live[r2]] = True
        steps_done += length

        keep = ~have2[live]
        live, keys, clock = live[keep], keys[keep], vals[keep, -1]
        pos = walk[:, -1].copy() if shared_walk else walk[keep, -1]

    dist = np.where(have2, hamming_u64(site1, site2), -1)
    return dist, ~have2, vstar


def _chunk_length(rows: int, budget: int, chunk: int, nu: int, remaining: int) -> int:
    """Steps in the next chunk of a batch with `rows` active rows.

    The chunk spreads `budget` elements over the rows, in whole blocks of
    `nu` steps and never fewer than `chunk` steps. When that would run past
    the step cap, it stops at the first block boundary at or past the cap
    (still at least `chunk`), so a batch runs between `cap` and
    `cap + chunk` steps.
    """
    length = max(chunk, budget // rows // nu * nu)
    if length > remaining:
        length = max(chunk, -(-remaining // nu) * nu)
    return length


def _first_crossing(cols: np.ndarray, vals: np.ndarray, have: np.ndarray, target: float):
    """Rows not yet in `have` whose clock passes `target` in this chunk,
    and the entry of the pair at which each of them first does.

    The chunk's clock is the pair of `_clock_series`: a REM chunk lists
    only its deep steps, the clock being carried there alone, unless more
    than a quarter of some row's steps are deep; then, and for p-spin, it
    lists every step. The clock rises along each row and changes only at
    listed steps, so a row crosses iff its last value is above `target`,
    only those rows are searched, and the first value above `target` is
    listed at the crossing step. The search reads the pair the same way in
    either form.
    """
    rows = np.flatnonzero(~have & (vals[:, -1] > target))
    return rows, np.argmax(vals[rows] > target, axis=1)


def _block_end_value(cols: np.ndarray, vals: np.ndarray, rows: np.ndarray, at: np.ndarray,
                     nu: int) -> np.ndarray:
    """Clock of each of `rows` at the end of the `nu`-step block holding
    its listed entry `at`: the value at the row's last listed step in that
    block. Listed steps strictly rise, so it is at most nu - 1 entries on,
    and only those entries are read."""
    ends = cols[rows, at] // nu * nu + nu - 1
    ahead = np.minimum(at[:, None] + np.arange(nu), cols.shape[1] - 1)
    inside = np.count_nonzero(cols[rows[:, None], ahead] <= ends[:, None], axis=1)
    return vals[rows, ahead[np.arange(rows.size), inside - 1]]


def _frozen_kernel(
    params: ModelParams,
    t: float,
    s: float,
    replicas_per_group: int,
    groups: int,
    rng: RngStream,
    step_cap: int,
    dropped: float = _DROPPED_MASS,
):
    """REM kernel with the jump chain frozen within each group.

    Each group is one shared-walk REM `_aging_batch`: its replicas follow the
    walk drawn from substream 1 of the group's stream, while the traps
    (keys from substream 3) and the exponential marks (substream 2) are
    per replica. Finished replicas retire, as in the aging kernel. Groups
    run inline or on the process pool (`_run_batches`); `dropped` is as in
    `_aging_kernel`. Returns a list of (dist, excluded) pairs, one per group.
    """
    batches = [(g.substream(3), 0, replicas_per_group, g.substream(1), g.substream(2), True)
               for g in map(rng.substream, range(100, 100 + groups))]
    parts = _run_batches(params, "rem", t, s, step_cap, dropped, batches)
    return [(dist, excluded) for dist, excluded, _ in parts]


def _binomial(indicator_valid: np.ndarray) -> tuple[float, float]:
    # (mean, binomial stderr) of the resolved replicas' event indicators
    n_valid = indicator_valid.size
    if n_valid == 0:
        return math.nan, math.nan
    est = float(indicator_valid.mean())
    return est, math.sqrt(max(est * (1.0 - est), 0.0) / n_valid)


def _assemble(
    params: ModelParams,
    t: float,
    s: float,
    epsilon: float,
    requested: int,
    est: float,
    se: float,
    n_excluded: int,
    mode: str,
) -> AgingEstimate:
    pred, alpha = _arcsine_point(params, t, s)
    return AgingEstimate(
        t=float(t),
        s=float(s),
        epsilon=float(epsilon),
        replicas=requested,
        estimate=est,
        stderr=se,
        arcsine_prediction=pred,
        alpha_used=alpha,
        excluded=n_excluded,
        non_conclusive=bool(n_excluded > _EXCLUSION_BUDGET * requested),
        mode=mode,
    )


def _prepare(
    params: ModelParams,
    t: float,
    s: float,
    replicas: int,
    rng: RngStream | None,
    substream: int,
    groups: int = 2,
    epsilons: Sequence[float] = (),
) -> tuple[RngStream, int]:
    """Check an estimator call; return its stream and its step cap.

    The stream defaults to substream `substream` of the model's stream;
    `groups` is the frozen-chain estimator's group count and `epsilons`
    the neighbourhood sizes an estimate is asked for. Each bad argument
    raises a ValueError that names it, before any kernel runs.
    """
    for name, value in (("t", t), ("s", s)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if t < 0 or s < 0 or t + s <= 0:
        raise ValueError("need t, s >= 0 and t + s > 0")
    for name, count in (("replicas", replicas), ("groups", groups)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if replicas <= 0:
        raise ValueError("replicas must be positive")
    if groups < 2:
        raise ValueError("need at least two groups for a spread estimate")
    for e in epsilons:
        if not e >= 0.0:
            raise ValueError(f"epsilon must be a number >= 0, got {e!r}")
    _check_kernel_domain(params)
    if rng is None:
        rng = params.stream().substream(substream)
    return rng, _step_cap(params, t + s, _STEP_CAP_FACTOR)


def estimate_aging(
    params: ModelParams,
    t: float,
    s: float,
    epsilon,
    replicas: int,
    mode: str = "rem",
    rng: RngStream | None = None,
):
    """Monte Carlo estimate of the two-time epsilon-neighbourhood probability.

    The event: the walk observed through the rescaled clock occupies, at
    wall-clock times t*e**(gamma*N) and (t+s)*e**(gamma*N), sites within
    Hamming distance epsilon*N/2 of each other. Crossing indices are located
    on the fly (first k with S(k) above the target), no path is stored.

    `epsilon` may be a scalar or a sequence; a sequence reuses one kernel
    run and returns a list of AgingEstimate in the same order. `t, s >= 0`
    with t + s > 0; s == 0 is the degenerate check where both crossing
    times coincide and the estimate is exactly 1.
    """
    scalar = np.ndim(epsilon) == 0
    eps_list = [epsilon] if scalar else list(epsilon)
    rng, cap = _prepare(params, t, s, replicas, rng, 3, epsilons=eps_list)
    dist, excluded, _ = _aging_kernel(params, t, s, replicas, rng, cap, mode)

    valid = dist[~excluded]
    out = [
        _assemble(
            params, t, s, e, replicas,
            *_binomial(valid <= e * params.N / 2.0), int(excluded.sum()), mode,
        )
        for e in eps_list
    ]
    return out[0] if scalar else out


def estimate_aging_frozen(
    params: ModelParams,
    t: float,
    s: float,
    epsilon: float,
    replicas_per_group: int,
    groups: int = 12,
    rng: RngStream | None = None,
) -> AgingEstimate:
    """Aging estimate with the jump chain frozen within each replica group.

    All replicas of a group share one trajectory; traps and exponential
    marks are fresh per replica. The returned stderr is the spread of the
    per-group means over sqrt(groups), which absorbs both the within-group
    binomial noise and the trajectory-to-trajectory variability.
    """
    rng, cap = _prepare(params, t, s, replicas_per_group, rng, 4, groups, epsilons=[epsilon])
    per_group = _frozen_kernel(params, t, s, replicas_per_group, groups, rng, cap)

    thresh = epsilon * params.N / 2.0
    means, n_excluded = [], 0
    for dist, excluded in per_group:
        n_excluded += int(excluded.sum())
        good = dist[~excluded]
        if good.size:
            means.append(float((good <= thresh).mean()))
    # fewer than two resolved groups give no spread, none no estimate
    est = float(np.mean(means)) if means else math.nan
    se = math.nan
    if len(means) > 1:
        se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    return _assemble(params, t, s, epsilon, replicas_per_group * groups, est, se,
                     n_excluded, "rem-frozen")


def estimate_range_miss(
    params: ModelParams,
    t: float,
    s: float,
    replicas: int,
    mode: str = "rem",
    rng: RngStream | None = None,
) -> AgingEstimate:
    """Probability that the coarse-grained clock range misses (t, t+s).

    The coarse clock only exposes values at block boundaries (multiples of
    nu). A miss means the first boundary value above t*e**(gamma*N) already
    exceeds (t+s)*e**(gamma*N), which forces both crossings into a single
    coarse block (typically one deep visit), so the miss event sits inside
    the aging event up to within-block corrections: at finite N this
    estimate runs below the two-time one, and both converge to the same
    arcsine limit.
    """
    rng, cap = _prepare(params, t, s, replicas, rng, 5)
    _, _, vstar = _aging_kernel(params, t, s, replicas, rng, cap, mode)
    und = np.isnan(vstar)

    wall = math.exp(params.gamma * params.N)
    miss = vstar[~und] >= (t + s) * wall
    return _assemble(
        params, t, s, math.nan, replicas, *_binomial(miss), int(und.sum()),
        mode + "-range",
    )


def aging_curve(
    params: ModelParams,
    ratios: Sequence[float],
    total: float,
    epsilon: float,
    replicas: int,
    mode: str = "rem",
    rng: RngStream | None = None,
) -> list[AgingEstimate]:
    """Sweep t/(t+s) at fixed t+s = total; one estimate per ratio.

    The arcsine prediction is increasing in the ratio, so the empirical
    curve should be monotone up to Monte Carlo noise.
    """
    if not all(0.0 < theta < 1.0 for theta in ratios):
        raise ValueError("ratios must lie strictly inside (0, 1)")
    if rng is None:
        rng = params.stream().substream(6)
    return [
        estimate_aging(params, theta * total, total - theta * total, epsilon, replicas,
                       mode=mode, rng=rng.substream(10 + i))
        for i, theta in enumerate(ratios)
    ]
