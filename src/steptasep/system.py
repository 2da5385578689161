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
(master_seed, k), one 64-bit word per particle and step, row-major in time.
A word is compared with the integer threshold of its rate, which gives the
same bit as Generator(Philox).random() < q (see `_thresholds`), so the
samples are those of the uniform route. The words are drawn in blocks of
TIME_BLOCK steps that the dynamics consume as they go, so the memory of a
run does not grow with its horizon.

The module also carries the deterministic mean-position law: the limit of
L(uM, M)/M is 0 up to u = 1/(1-q), follows a square-root curve A2(u) in the
bulk, and for a slow front particle (qbar > q) switches at u_c to the linear
branch A_G(u) dragged by the defect.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Memory budget in bytes. A batch of samples is sized so that its raw words
# for one time block, 8 bytes per sample, step and particle, stay near it;
# a positions_trajectory whose (horizon+1) x M int64 output exceeds it is
# refused.
UNIFORM_BLOCK_BYTES = 2e8

# Steps of stay bits drawn at a time.
TIME_BLOCK = 64


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
        object.__setattr__(self, "rates", tuple(float(q) for q in self.rates))
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
        if not 1 <= label <= m:
            raise ValueError(f"defect label {label} outside 1..{m}")
        rates[label - 1] = float(rate)
    return tuple(rates)


def _initial_sites(m):
    """Step initial data: particle j at site M - j, the tagged one at 0."""
    return np.arange(m - 1, -1, -1, dtype=np.int64)


def _evolve(stay, pos=None):
    """The update rule, shared by every simulation path.

    stay has shape (..., T, M); stay[..., t, j] is the stay indicator of
    particle j+1 at the step from t to t+1. pos is the (..., M)
    configuration before the first step, step initial data by default.
    Blocking uses the pre-step configuration. Yields the (..., M) sites
    after each of the T steps; the yielded array, pos itself when given, is
    updated in place by the next step.
    """
    m = stay.shape[-1]
    if pos is None:
        pos = np.broadcast_to(_initial_sites(m), stay.shape[:-2] + (m,)).copy()
    for t in range(stay.shape[-2]):
        move = ~stay[..., t, :]
        move[..., 1:] &= (pos[..., :-1] - pos[..., 1:]) > 1
        pos += move
        yield pos


def adaptive_chunk(horizon, m):
    """Sample batch size keeping a batch's raw words for one time block
    near UNIFORM_BLOCK_BYTES."""
    cells = max(1, min(horizon, TIME_BLOCK) * m * 8)
    return max(1, min(64, int(UNIFORM_BLOCK_BYTES / cells)))


def _thresholds(rates):
    """uint64 thresholds c_i with raw < c_i iff the double that
    Generator.random makes of the word, (raw >> 11) * 2**-53, is below q_i.

    That double is below q iff raw >> 11 < ceil(q * 2**53), and the scaling
    and ceiling are exact in float64. For q < 1 the shifted threshold is at
    most 2**64 - 2**11, so it fits.
    """
    top = np.ceil(np.asarray(rates, dtype=float) * 2.0 ** 53)
    return top.astype(np.uint64) << np.uint64(11)


def _trajectories(rates, horizon, master_seed, indices):
    """Sites of the samples `indices` after each step 1..horizon.

    Sample k reads its stay bits from the Philox stream keyed
    (master_seed, k), so results do not depend on how samples are grouped
    into batches. Yields (t, pos) with pos of shape (len(indices), M),
    updated in place by the next step.
    """
    m = len(rates)
    thresholds = _thresholds(rates)
    # a uint64 key: numpy reads a list holding a word >= 2**63 as float64
    streams = [np.random.Philox(key=np.array([master_seed, k], np.uint64))
               for k in indices]
    stay = np.empty((len(streams), min(horizon, TIME_BLOCK), m), dtype=bool)
    pos = np.broadcast_to(_initial_sites(m), (len(streams), m)).copy()
    for start in range(0, horizon, TIME_BLOCK):
        block = stay[:, :min(TIME_BLOCK, horizon - start)]
        for bits, stream in zip(block, streams):
            np.less(stream.random_raw(bits.shape), thresholds, out=bits)
        yield from enumerate(_evolve(block, pos), start + 1)


def _checked_int(value, name, low, high=None, integral=False):
    """value as an int in low..high (no upper end when high is None), or a
    ValueError that names it. With integral, a number of another type
    that is a whole number, such as 3.0, counts as that int, as in a
    config field."""
    try:
        checked = operator.index(value)
    except TypeError:
        checked = None
        if (integral and isinstance(value, numbers.Real)
                and math.isfinite(value) and value == int(value)):
            checked = int(value)
    if checked is None or checked < low or (high is not None
                                            and checked > high):
        raise ValueError(f"{name} must be an integer in "
                         f"{low}..{'' if high is None else high}, "
                         f"got {value!r}")
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
    the substream keyed (master_seed, k); reruns and different chunk sizes
    give bit-identical output. The default chunk size is adaptive_chunk of
    the last time.
    """
    times = [_checked_int(t, "time", 0, spec.horizon) for t in times]
    _checked_int(master_seed, "master_seed", 0, 2 ** 64 - 1)
    _checked_int(n_samples, "n_samples", 1)
    horizon = max(times, default=0)
    if chunk_size is None:
        chunk_size = adaptive_chunk(horizon, spec.m)
    chunk_size = _checked_int(chunk_size, "chunk_size", 1)

    by_time = {}
    for col, t in enumerate(times):
        by_time.setdefault(t, []).append(col)

    out = np.zeros((n_samples, len(times)), dtype=np.int64)
    for lo in range(0, n_samples, chunk_size):
        hi = min(lo + chunk_size, n_samples)
        for t, pos in _trajectories(spec.rates, horizon, master_seed,
                                    range(lo, hi)):
            for col in by_time.get(t, []):
                out[lo:hi, col] = pos[:, -1]
    return out


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
