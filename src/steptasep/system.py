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

The module also carries the deterministic mean-position law: the limit of
L(uM, M)/M is 0 up to u = 1/(1-q), follows a square-root curve A2(u) in the
bulk, and for a slow front particle (qbar > q) switches at u_c to the linear
branch A_G(u) dragged by the defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest transient float64 uniform block, in bytes: a chunk of samples is
# sized to stay near it, and a single sample that exceeds it is refused.
UNIFORM_BLOCK_BYTES = 2e8


@dataclass(frozen=True)
class SystemSpec:
    """Particle count, per-particle stay rates q_1..q_M, and a time horizon."""

    m: int
    rates: tuple
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(q) for q in self.rates))
        if self.m < 1:
            raise ValueError("need at least one particle")
        if len(self.rates) != self.m:
            raise ValueError(f"need {self.m} rates, got {len(self.rates)}")
        if any(not (0.0 <= q < 1.0) for q in self.rates):
            raise ValueError("stay rates must lie in [0, 1)")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")

    def rate_array(self):
        return np.asarray(self.rates, dtype=float)


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


def _evolve(stay):
    """The update rule, shared by every simulation path.

    stay has shape (..., T, M); stay[..., t, j] is the stay indicator of
    particle j+1 at the step from t to t+1. Blocking uses the pre-step
    configuration. Yields the (..., M) sites after each of the T steps; the
    yielded array is updated in place by the next step.
    """
    m = stay.shape[-1]
    pos = np.broadcast_to(_initial_sites(m), stay.shape[:-2] + (m,)).copy()
    for t in range(stay.shape[-2]):
        move = ~stay[..., t, :]
        move[..., 1:] &= (pos[..., :-1] - pos[..., 1:]) > 1
        pos += move
        yield pos


def adaptive_chunk(horizon, m):
    """Sample block size keeping the transient uniform block near
    UNIFORM_BLOCK_BYTES."""
    cells = max(1, horizon * m * 8)
    return max(1, min(64, int(UNIFORM_BLOCK_BYTES / cells)))


def _sample_uniforms(m, horizon, master_seed, index):
    """The uniform block of sample `index`: an independent counter-based
    substream keyed by (master_seed, index), so results do not depend on
    how samples are grouped into chunks."""
    if horizon * m * 8 > UNIFORM_BLOCK_BYTES:
        raise ValueError(
            f"one sample needs a {horizon} x {m} float64 uniform block, "
            f"above the {UNIFORM_BLOCK_BYTES / 1e6:.0f} MB budget")
    gen = np.random.Generator(np.random.Philox(key=[master_seed, index]))
    return gen.random((horizon, m))


def positions_trajectory(spec, seed):
    """Sites of every particle at times 0..horizon, one trajectory.

    Row t is the configuration after t synchronous steps, column j the
    site of particle j+1. Uses the substream of sample index 0, so the
    tagged column agrees with row 0 of sample_ensemble at every time.
    """
    stay = _sample_uniforms(spec.m, spec.horizon, seed, 0) < spec.rate_array()
    out = np.empty((spec.horizon + 1, spec.m), dtype=np.int64)
    out[0] = _initial_sites(spec.m)
    for t, pos in enumerate(_evolve(stay), 1):
        out[t] = pos
    return out


def _check_times(spec, times):
    for t in times:
        if t < 0:
            raise ValueError("times must be non-negative")
        if t > spec.horizon:
            raise ValueError(f"time {t} exceeds horizon {spec.horizon}")


def sample_ensemble(spec, times, n_samples, master_seed, chunk_size=None):
    """n_samples independent trajectories, reported at the requested times.

    Returns an (n_samples, len(times)) integer array. Sample k is driven by
    the substream keyed (master_seed, k); reruns and different chunk sizes
    give bit-identical output. The default chunk size is adaptive_chunk of
    the last time.
    """
    times = [int(t) for t in times]
    _check_times(spec, times)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    horizon = max(times, default=0)
    rates = spec.rate_array()
    if chunk_size is None:
        chunk_size = adaptive_chunk(horizon, spec.m)

    by_time = {}
    for col, t in enumerate(times):
        by_time.setdefault(t, []).append(col)

    out = np.zeros((n_samples, len(times)), dtype=np.int64)
    for lo in range(0, n_samples, chunk_size):
        hi = min(lo + chunk_size, n_samples)
        stay = np.stack(
            [_sample_uniforms(spec.m, horizon, master_seed, k)
             for k in range(lo, hi)]
        ) < rates
        for t, pos in enumerate(_evolve(stay), 1):
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
