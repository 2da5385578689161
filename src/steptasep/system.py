"""Discrete-time TASEP with parallel update, step initial data, tagged particle.

Particles hop one site to the right. At every time step, each particle draws a
stay indicator (probability q_i) and advances iff the indicator is 0 and its
right neighbor's site was empty at the start of the step; the update is fully
synchronous. Labels count from the front: particle 1 is rightmost, the tagged
particle M starts at the origin, and L(t, M) is the distance it has travelled.

The rule is written once, in `_evolve`, over stay bits of any leading batch
shape; the all-particle trajectory and the ensemble sampler both drive it.
Its independent route is `combinatorics.trajectory_from_matrix`, the same
dynamics read off a 01 matrix, and the two are tested to agree.

Sample k draws its stay bits from its own counter-based Philox stream keyed
(master_seed, k): one byte per particle and step, row-major in time, read
little-endian from the stream's 64-bit words. With c = ceil(q * 2**53), a
byte below c >> 45 means stay and one above it means move; on a tie (odds
1/256) the top 45 bits of the next word of a second Philox stream with the
same key, at the disjoint counter TIE_COUNTER, settle it against
c mod 2**45. The byte and those 45 bits form a uniform 53-bit U, and the
rule is exactly U < c, so a particle stays with probability
ceil(q * 2**53) / 2**53 (see `_thresholds`). The bytes are drawn in blocks
of TIME_BLOCK steps that the dynamics consume as they go, so the memory of
a run does not grow with its horizon; since TIME_BLOCK * M is a multiple
of 8 and the tie words are read in cell order from their own stream, a
sample's value at time t depends neither on the blocking nor on the
horizon or the other times asked for.

The same keying makes the samples free to split across processes: a share
of samples yields the same bits whichever process draws it. A call of at
least PARALLEL_CELLS cells (last time x M x samples) cuts its samples into
one equal contiguous share per core the process may run on (at most one
per sample); the caller forks a child for every share but the first, runs
that one itself, and reads each child's int64 block back through a pipe.
Both the serial and the forked call run their shares through `_share`, so
the output is bit-identical to a one-process run. The floor sits where a
fork pays: a fork costs about 5-9 ms and 10**8 cells take about 0.2 s to
sample serially, while below about 5e7 cells a split showed no gain,
because halving the samples halves each step's numpy batch. On a platform
without `os.fork` or `os.sched_getaffinity` every call runs in one
process.

The module also carries the deterministic mean-position law: the limit of
L(uM, M)/M is 0 up to u = 1/(1-q), follows a square-root curve A2(u) in the
bulk, and for a slow front particle (qbar > q) switches at u_c to the linear
branch A_G(u) dragged by the defect.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

# Memory budget in bytes of one positions_trajectory: a (horizon+1) x M
# int64 output above it is refused. The sampler's own memory is bounded by
# BLOCK_CELLS below.
UNIFORM_BLOCK_BYTES = 2e8

# Stay bits of one time block of a batch: at most BLOCK_CELLS cells (about
# 2 MB) over at most MAX_BATCH samples, whose Philox stream pairs the batch
# holds. Small systems then amortize each step's numpy calls over many
# samples (M=100: 256 samples; M=400 to t=2000: 81).
BLOCK_CELLS = 2 ** 21
MAX_BATCH = 256

# Work limit of one sample_ensemble call, in cells (horizon x M x samples).
# At the 3.5-4.5 ns a cell costs on a 2-core x86 box (draw and update) this
# is about a minute and a half; the largest built-in run, a fig8 panel at
# t=3000 with 10^4 samples of 100 particles, is 3e9 cells.
MAX_CELLS = 2 * 10 ** 10

# Work of one sample_ensemble call, in cells, from which its samples are
# split over the cores the process may use, one forked process per share;
# memory is then one batch block of stay bits per process. See the module
# docstring for why the floor sits here.
PARALLEL_CELLS = 10 ** 8

# Steps of stay bits drawn at a time; a multiple of 8, so that a block's
# bytes fill whole words and blocks follow each other in the byte stream.
TIME_BLOCK = 64

# Philox counter at which a sample's tie words start, far from the 2**192
# blocks of its byte stream.
TIE_COUNTER = (0, 0, 0, 1)


@dataclass(frozen=True)
class SystemSpec:
    """Particle count, per-particle stay rates q_1..q_M, and a time horizon."""

    m: int
    rates: tuple
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "m",
                           _checked_int(self.m, "m", 1, integral=True))
        object.__setattr__(self, "horizon", _checked_int(
            self.horizon, "horizon", 0, integral=True))
        object.__setattr__(self, "rates", tuple(
            _rate(q, label) for label, q in enumerate(self.rates, 1)))
        if len(self.rates) != self.m:
            raise ValueError(f"need {self.m} rates, got {len(self.rates)}")
        if any(not (0.0 <= q < 1.0) for q in self.rates):
            raise ValueError("stay rates must lie in [0, 1)")


def uniform_rates(m, q):
    return (float(q),) * m


def defect_rates(m, q, defects):
    """Rate vector equal to q except at the 1-based labels in `defects`.

    `defects` maps particle label -> stay rate of that defect particle.
    """
    rates = [float(q)] * m
    for label, rate in defects.items():
        label = _checked_int(label, "defect label", 1, m)
        rates[label - 1] = _rate(rate, label)
    return tuple(rates)


def _rate(q, label):
    """float(q), the stay rate of particle `label`; a bool is refused, not
    read as 0.0 or 1.0."""
    if isinstance(q, (bool, np.bool_)):
        raise ValueError(
            f"stay rate of particle {label} must be a number, got {q!r}")
    return float(q)


def _initial_sites(m, dtype=np.int64):
    """Step initial data: particle j at site M - j, the tagged one at 0."""
    return np.arange(m - 1, -1, -1, dtype=dtype)


def _position_dtype(top):
    """Narrowest signed integer type, at least int16, that holds top.

    Sites stay below m + horizon and gaps at most horizon + 1, so positions
    of a run held in this type for top = m + horizon never wrap.
    """
    return next(np.dtype(d) for d in (np.int16, np.int32, np.int64)
                if top <= np.iinfo(d).max)


def _evolve(stay, pos=None):
    """The update rule, shared by every simulation path.

    stay has shape (..., T, M); stay[..., t, j] is the stay indicator of
    particle j+1 at the step from t to t+1. pos is the (..., M)
    configuration before the first step, step initial data by default,
    held in the narrowest integer type that fits M + T (`_position_dtype`);
    a given pos keeps its own type. Blocking uses the pre-step
    configuration. Yields the (..., M) sites after each of the T steps; the
    yielded array, pos itself when given, is updated in place by the next
    step.

    The gap, free and move arrays are allocated once per call, so a step
    is five in-place ufuncs over narrow integers and no temporaries.
    """
    m = stay.shape[-1]
    if pos is None:
        pos = np.broadcast_to(
            _initial_sites(m, _position_dtype(m + stay.shape[-2])),
            stay.shape[:-2] + (m,)).copy()
    gap = np.empty(pos.shape[:-1] + (m - 1,), dtype=pos.dtype)
    free = np.empty(gap.shape, dtype=bool)
    move = np.empty(pos.shape, dtype=bool)
    for t in range(stay.shape[-2]):
        np.subtract(pos[..., :-1], pos[..., 1:], out=gap)
        np.greater(gap, 1, out=free)
        np.logical_not(stay[..., t, :], out=move)
        move[..., 1:] &= free
        pos += move
        yield pos


def adaptive_chunk(horizon, m):
    """Sample batch size: one time block of a batch holds at most
    BLOCK_CELLS stay bits (about 2 MB) and at most MAX_BATCH samples."""
    cells = max(1, min(horizon, TIME_BLOCK) * m)
    return max(1, min(MAX_BATCH, BLOCK_CELLS // cells))


def _thresholds(rates):
    """Byte thresholds hi (uint8) and tie thresholds (uint64) of the rates.

    With c = ceil(q * 2**53), exact in float64 and below 2**53 for q < 1,
    hi = c >> 45 and lo = c mod 2**45. A stay byte b and the top 45 bits V
    of a tie word make U = b * 2**45 + V, uniform on [0, 2**53), and
    U < c iff b < hi, or b == hi and V < lo. V < lo iff the tie word is
    below lo * 2**19, the second threshold returned.
    """
    c = np.ceil(np.asarray(rates, dtype=float) * 2.0 ** 53).astype(np.uint64)
    return ((c >> np.uint64(45)).astype(np.uint8),
            (c & np.uint64(2 ** 45 - 1)) << np.uint64(19))


def _stay_bits(stay_bytes, hi, tie_below, tie_stream, out):
    """Stay bits of one sample's cells, in place into the 1-d bool out.

    stay_bytes holds one byte per cell and hi, tie_below the thresholds of
    each cell's rate (see `_thresholds`); a byte equal to hi reads the next
    word of tie_stream, in cell order.
    """
    np.less(stay_bytes, hi, out=out)
    tie = (stay_bytes == hi).nonzero()[0]
    if tie.size:
        out[tie] = tie_stream.random_raw(tie.size) < tie_below[tie]


def _trajectories(rates, horizon, master_seed, indices):
    """Sites of the samples `indices` after each step 1..horizon.

    Sample k reads its stay bytes from the Philox stream keyed
    (master_seed, k), ceil(cells / 8) words per block, and its tie words
    from the stream with the same key at TIE_COUNTER, so results do not
    depend on how samples are grouped into batches. Yields (t, pos) with
    pos of shape (len(indices), M) in `_position_dtype(M + horizon)`,
    updated in place by the next step.
    """
    m = len(rates)
    steps = min(horizon, TIME_BLOCK)
    hi, tie_below = (np.tile(a, steps) for a in _thresholds(rates))
    # a uint64 key: numpy reads a list holding a word >= 2**63 as float64
    keys = [np.array([master_seed, k], np.uint64) for k in indices]
    streams = [(np.random.Philox(key=key),
                np.random.Philox(key=key, counter=TIE_COUNTER))
               for key in keys]
    stay = np.empty((len(keys), steps, m), dtype=bool)
    pos = np.broadcast_to(_initial_sites(m, _position_dtype(m + horizon)),
                          (len(keys), m)).copy()
    for start in range(0, horizon, TIME_BLOCK):
        block = stay[:, :min(TIME_BLOCK, horizon - start)]
        cells = block[0].size
        for bits, (stream, tie_stream) in zip(block, streams):
            words = stream.random_raw(-(-cells // 8))
            stay_bytes = words.astype("<u8", copy=False).view(np.uint8)
            _stay_bits(stay_bytes[:cells], hi[:cells], tie_below[:cells],
                       tie_stream, bits.reshape(-1))
        yield from enumerate(_evolve(block, pos), start + 1)


def _checked_int(value, name, low=None, high=None, integral=False):
    """value as an int in low..high (no end where a bound is None), or a
    ValueError that names it. A bool is refused, not read as 0 or 1. With
    integral, a number of another type that is a whole number, such as
    3.0, counts as that int, as in a config field."""
    checked = None
    if not isinstance(value, bool):  # numpy bools fail operator.index
        try:
            checked = operator.index(value)
        except TypeError:
            if (integral and isinstance(value, numbers.Real)
                    and math.isfinite(value) and value == int(value)):
                checked = int(value)
    if (checked is None or (low is not None and checked < low)
            or (high is not None and checked > high)):
        span = ("" if (low, high) == (None, None)
                else " in 1.. (positive)" if (low, high) == (1, None)
                else f" in {low}..{'' if high is None else high}")
        raise ValueError(f"{name} must be an integer{span}, got {value!r}")
    return checked


def positions_trajectory(spec, seed):
    """Sites of every particle at times 0..horizon, one trajectory.

    Row t is the configuration after t synchronous steps, column j the
    site of particle j+1. Uses the substream of sample index 0, so the
    tagged column agrees with row 0 of sample_ensemble at every time.
    """
    _checked_int(seed, "master_seed", 0, 2 ** 64 - 1)
    if (spec.horizon + 1) * spec.m * 8 > UNIFORM_BLOCK_BYTES:
        raise ValueError(
            f"a {spec.horizon + 1} x {spec.m} int64 trajectory is above "
            f"the {UNIFORM_BLOCK_BYTES / 1e6:.0f} MB budget")
    out = np.empty((spec.horizon + 1, spec.m), dtype=np.int64)
    out[0] = _initial_sites(spec.m)
    for t, pos in _trajectories(spec.rates, spec.horizon, seed, [0]):
        out[t] = pos[0]
    return out


def sample_ensemble(spec, times, n_samples, master_seed, chunk_size=None):
    """n_samples independent trajectories, reported at the requested times.

    Returns an (n_samples, len(times)) integer array. Sample k is driven by
    the substream keyed (master_seed, k); reruns, different chunk sizes and
    any split over processes give bit-identical output, and a sample's
    value at a time does not depend on the other times asked for. The
    default chunk size, the largest batch of samples drawn at once, is
    adaptive_chunk of the last time.

    A run of at least PARALLEL_CELLS = 1e8 cells (last time x M x
    n_samples) is split over the cores the process may use (see
    `_in_shares`). A run of more than MAX_CELLS = 2e10 cells, about a
    minute and a half of sampling in one process on a 2-core x86 box,
    raises a ValueError before any draw.
    """
    times = [_checked_int(t, "time", 0, spec.horizon) for t in times]
    _checked_int(master_seed, "master_seed", 0, 2 ** 64 - 1)
    n_samples = _checked_int(n_samples, "n_samples", 1)
    horizon = max(times, default=0)
    cells = horizon * spec.m * n_samples
    if cells > MAX_CELLS:
        raise ValueError(f"{cells} cells ({horizon} steps x {spec.m} "
                         f"particles x {n_samples} samples) is above the "
                         f"limit of {MAX_CELLS} cells")
    if chunk_size is None:
        chunk_size = adaptive_chunk(horizon, spec.m)
    chunk_size = _checked_int(chunk_size, "chunk_size", 1)
    return _in_shares(
        lambda lo, hi: _share(spec.rates, times, master_seed, lo, hi,
                              chunk_size),
        n_samples, len(times), _workers(cells, n_samples))


def _share(rates, times, master_seed, lo, hi, chunk_size):
    """Samples lo..hi-1 at `times`, as a (hi - lo, len(times)) int64
    array, drawn in batches of at most chunk_size samples."""
    horizon = max(times, default=0)
    by_time = {}
    for col, t in enumerate(times):
        by_time.setdefault(t, []).append(col)
    out = np.zeros((hi - lo, len(times)), dtype=np.int64)
    for start in range(lo, hi, chunk_size):
        stop = min(start + chunk_size, hi)
        for t, pos in _trajectories(rates, horizon, master_seed,
                                    range(start, stop)):
            for col in by_time.get(t, []):
                out[start - lo:stop - lo, col] = pos[:, -1]
    return out


def _workers(cells, n_samples):
    """Processes for a call of `cells` cells: one per core the process may
    run on, at most one per sample, from PARALLEL_CELLS cells on; one
    below it or where the platform cannot fork."""
    if (cells < PARALLEL_CELLS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_samples)


def _in_shares(run, n_samples, width, workers):
    """run(lo, hi) over `workers` equal contiguous shares of 0..n_samples,
    the blocks stacked in sample order.

    run returns a (hi - lo, width) int64 array. The caller runs the first
    share; each other share runs in a forked child, which writes its block
    to a pipe and leaves by os._exit, with status 0 only if it wrote the
    whole block. The parent reads each pipe to EOF, reaps the child, and
    raises a RuntimeError naming the samples of a child that failed or
    sent a block of the wrong size. If the parent raises, every child
    not yet reaped is killed and reaped first: no process outlives the
    call. A child runs only numpy ufuncs and Philox draws, no BLAS, and
    skips the parent's exit handlers and buffered output.
    """
    edges = [n_samples * w // workers for w in range(workers + 1)]
    children, pipes = [], []  # children not yet reaped, in sample order
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(run, lo, hi, write_fd)
            finally:
                os.close(write_fd)
            children.append((pid, read_fd, lo, hi))
        blocks = [run(0, edges[1])]
        while children:
            pid, read_fd, lo, hi = children[0]
            chunks = []
            while chunk := os.read(read_fd, 2 ** 16):
                chunks.append(chunk)
            data = b"".join(chunks)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            size = (hi - lo) * width * 8
            if status or len(data) != size:
                raise RuntimeError(
                    f"samples {lo}..{hi - 1} failed in a forked process "
                    f"(exit status {status}, {len(data)} of {size} bytes)")
            blocks.append(np.frombuffer(data, np.int64).reshape(hi - lo,
                                                                 width))
    finally:
        for pid, *_ in children:
            os.kill(pid, 9)  # SIGKILL, without loading the signal module
            os.waitpid(pid, 0)
        for fd in pipes:
            os.close(fd)
    return np.concatenate(blocks)


def _child(run, lo, hi, write_fd):
    """A forked child's whole life: write run(lo, hi) to write_fd and
    exit, with status 0 only if the whole block was written. An error
    prints its traceback to stderr and exits with status 1; the child
    never returns into the caller's code."""
    status = 1
    try:
        block = memoryview(run(lo, hi)).cast("B")
        while block:
            block = block[os.write(write_fd, block):]
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# Deterministic mean-position law
# ---------------------------------------------------------------------------

def mean_bulk(u, q):
    """Square-root mean-position branch, valid for u >= 1/(1-q)."""
    u = np.asarray(u, dtype=float)
    return (1 - q) * u - (1 - 2 * q) - 2 * np.sqrt(q * (1 - q) * (u - 1))


def mean_defect(u, q, qbar):
    """Linear branch when a slow front particle drags the tagged one."""
    if qbar <= q:
        raise ValueError("linear branch requires qbar > q")
    u = np.asarray(u, dtype=float)
    return (1 - qbar) * u - (1 - qbar) * qbar / (qbar - q)


def critical_scaled_time(q, qbar):
    """Scaled time u_c where the mean law switches from the square-root
    branch to the defect-dragged linear branch."""
    if qbar == q:
        raise ValueError("u_c undefined when qbar equals q")
    return (qbar**2 - 2 * q * qbar + q) / (qbar - q) ** 2


def mean_position_theory(u, q, qbar=None):
    """Deterministic limit A(u) of L(uM, M)/M.

    With no defect (qbar is None or qbar <= q) the law is 0 until the tagged
    particle starts moving at u = 1/(1-q) and the square-root branch after.
    With qbar > q the square-root branch holds only up to u_c(q, qbar) and
    the linear branch takes over beyond it. Accepts scalar or array u.
    """
    u = np.asarray(u, dtype=float)
    onset = 1.0 / (1.0 - q)
    bulk = np.where(u > onset, mean_bulk(np.maximum(u, onset), q), 0.0)
    if qbar is None or qbar <= q:
        return bulk if bulk.ndim else float(bulk)
    uc = critical_scaled_time(q, qbar)
    value = np.where(u > uc, mean_defect(np.maximum(u, onset), q, qbar), bulk)
    return value if value.ndim else float(value)
