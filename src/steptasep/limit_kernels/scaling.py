"""Scaling maps between lattice coordinates and limit-kernel coordinates.

Each region names a joint limit of the tagged-particle distance L(t, M):

    R1            onset of motion, t near M/(1-q); L stays O(1) and the
                  discrete Hermite kernel applies.
    R2            bulk times between onset and the defect-capture point;
                  cube-root fluctuations, extended Airy kernel.
    R3            exactly at the capture point u_c; kernel gains a rank-one
                  border term (one critical defect).
    R3-degenerate several defects merging at u_c at rate M^(-1/3); the
                  rank-n perturbed Airy kernel with strengths eta_i.
    R4            beyond u_c; square-root fluctuations driven by the slow
                  defect, stationary Gaussian process kernel.
    R4-degenerate several defect rates merging at rate M^(-1/2); rank-n
                  Gaussian kernel with strengths eps_i.
    fixedM        M held fixed while t -> infinity; every particle's rate
                  approaches q at rate T^(-1/2) and times stretch as
                  e^(2 tau) T; rank-M Gaussian kernel.
    continuousR2  bulk scaling written in the rescaled clock (1-q)t, which
                  matches the continuous-time square-root law (sqrt(u)-1)^2.

Forward maps round to integer lattice times/levels; inverse maps are
computed from the rounded integers, so a round trip returns the effective
scaled coordinates actually realized on the lattice.
"""

import math
from dataclasses import dataclass

from ..system import critical_scaled_time, defect_rates, mean_bulk, mean_defect

REGIONS = (
    "R1",
    "R2",
    "R3",
    "R3-degenerate",
    "R4",
    "R4-degenerate",
    "fixedM",
    "continuousR2",
)


def coef_d1(q):
    """Gaussian width of the onset time window, sqrt(q)/(1-q)."""
    return math.sqrt(q) / (1.0 - q)


def _bulk_factors(u, q):
    if u <= 1.0:
        raise ValueError("bulk coefficients need u > 1")
    plus = 1.0 + math.sqrt((1.0 - q) / (q * (u - 1.0)))
    minus = math.sqrt(u - 1.0) - math.sqrt(q / (1.0 - q))
    if minus <= 0:
        raise ValueError("bulk coefficients need u > 1/(1-q)")
    return plus, minus


def coef_c(u, q):
    """Time-direction amplitude of the cube-root bulk window."""
    plus, minus = _bulk_factors(u, q)
    return 2.0 * (u - 1.0) ** (5.0 / 6.0) * (plus * minus) ** (1.0 / 3.0)


def coef_d(u, q):
    """Position-direction amplitude of the cube-root bulk window."""
    plus, minus = _bulk_factors(u, q)
    return ((u - 1.0) ** (1.0 / 6.0) * math.sqrt(q * (1.0 - q))
            * (plus * minus) ** (2.0 / 3.0))


def coef_dg(u, q, qbar):
    """Position amplitude of the square-root defect-dominated window."""
    if qbar <= q:
        raise ValueError("defect amplitude requires qbar > q")
    inner = (2.0 * qbar ** 3 * (u - 1.0) / (1.0 - qbar)
             - 2.0 * qbar ** 3 * q * (1.0 - q)
             / ((qbar - q) ** 2 * (1.0 - qbar)))
    if inner <= 0:
        raise ValueError("defect amplitude requires u beyond the capture point")
    return (1.0 - qbar) / qbar * math.sqrt(inner)


def continuous_coefs(u_tilde):
    """(A, C, D) of the bulk law in the rescaled clock, valid u_tilde > 1."""
    if u_tilde <= 1.0:
        raise ValueError("rescaled-clock coefficients need u_tilde > 1")
    root = math.sqrt(u_tilde)
    a = (root - 1.0) ** 2
    c = 2.0 * u_tilde ** (5.0 / 6.0) * (root - 1.0) ** (1.0 / 3.0)
    d = u_tilde ** (1.0 / 6.0) * (root - 1.0) ** (2.0 / 3.0)
    return a, c, d


@dataclass(frozen=True)
class ScaledExperiment:
    """A region choice plus the parameters that pin its scaling maps.

    `u` is the macroscopic time ratio t/M for the bulk regions (forced to
    the capture point in R3, interpreted in the rescaled clock for
    continuousR2, unused in R1/R4/fixedM).  `strengths` are the
    nonnegative degeneracy parameters (eta_i or eps_i); `horizon` is the
    reference time T of the fixedM limit.  R4 parameterizes times by their
    own ratios u_j > u_c, passed directly to `time_of`.
    """

    region: str
    m: int
    q: float
    qbar: float = None
    u: float = None
    strengths: tuple = ()
    horizon: float = None

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.m < 1:
            raise ValueError("m must be positive")
        object.__setattr__(self, "strengths",
                           tuple(float(s) for s in self.strengths))
        if any(s < 0 for s in self.strengths):
            raise ValueError("degeneracy strengths must be nonnegative")
        r = self.region
        if r in ("R3", "R3-degenerate", "R4", "R4-degenerate"):
            if self.qbar is None or not self.q < self.qbar < 1.0:
                raise ValueError(f"region {r} needs a defect rate "
                                 "qbar in (q, 1)")
        if r == "R2":
            lo = 1.0 / (1.0 - self.q)
            hi = (critical_scaled_time(self.q, self.qbar)
                  if self.qbar is not None and self.qbar > self.q
                  else math.inf)
            if self.u is None or not lo < self.u < hi:
                raise ValueError(
                    f"region R2 needs 1/(1-q) < u < u_c; got u={self.u}, "
                    f"bounds ({lo}, {hi})")
        if r in ("R3", "R3-degenerate"):
            uc = critical_scaled_time(self.q, self.qbar)
            if self.u is None:
                object.__setattr__(self, "u", uc)
            elif not math.isclose(self.u, uc, rel_tol=1e-12):
                raise ValueError(
                    f"region {r} pins u to the capture point u_c={uc}; "
                    f"got u={self.u}")
        if r == "R4" and self.u is not None:
            uc = critical_scaled_time(self.q, self.qbar)
            if self.u <= uc:
                raise ValueError(
                    f"region R4 needs u > u_c={uc}; got u={self.u}")
        if r == "continuousR2":
            if self.u is None or self.u <= 1.0:
                raise ValueError("region continuousR2 needs u_tilde > 1")
        if r == "fixedM":
            if self.horizon is None or self.horizon <= 0:
                raise ValueError("region fixedM needs a positive horizon T")
            if self.strengths and len(self.strengths) != self.m:
                raise ValueError(
                    "fixedM strengths must list one eps per particle")
        if r in ("R3-degenerate", "R4-degenerate") and not self.strengths:
            raise ValueError(f"region {r} needs at least one strength")

    # -- time maps --------------------------------------------------------

    def time_of(self, x):
        """Integer lattice time for scaled time x (tau, or u_j in R4)."""
        r = self.region
        m, q = self.m, self.q
        if r == "R1":
            return int(round(m / (1.0 - q) + coef_d1(q) * math.sqrt(m) * x))
        if r in ("R2", "R3", "R3-degenerate"):
            return int(round(self.u * m + coef_c(self.u, q) * m ** (2 / 3) * x))
        if r in ("R4", "R4-degenerate"):
            uc = critical_scaled_time(q, self.qbar)
            if x <= uc:
                raise ValueError(f"R4 times need u > u_c={uc}; got {x}")
            return int(round(x * m))
        if r == "fixedM":
            return int(round(math.exp(2.0 * x) * self.horizon))
        if r == "continuousR2":
            _, c, _ = continuous_coefs(self.u)
            t_tilde = self.u * m + c * m ** (2 / 3) * x
            return int(round(t_tilde / (1.0 - q)))
        raise AssertionError(r)

    def tau_of(self, t):
        """Kernel time coordinate realized by the integer lattice time t."""
        r = self.region
        m, q = self.m, self.q
        if r == "R1":
            return (t - m / (1.0 - q)) / (coef_d1(q) * math.sqrt(m))
        if r in ("R2", "R3", "R3-degenerate"):
            return (t - self.u * m) / (coef_c(self.u, q) * m ** (2 / 3))
        if r in ("R4", "R4-degenerate"):
            return math.log(coef_dg(t / m, q, self.qbar))
        if r == "fixedM":
            return 0.5 * math.log(t / self.horizon)
        if r == "continuousR2":
            _, c, _ = continuous_coefs(self.u)
            return ((1.0 - q) * t - self.u * m) / (c * m ** (2 / 3))
        raise AssertionError(r)

    # -- position maps ----------------------------------------------------

    def _frame(self, t):
        """(center, width) at lattice time t: level = center - width * s.

        R1 uses (-0.0, -1.0) rather than (0, -1) so that level 0 maps to
        s = +0.0, not -0.0.
        """
        r = self.region
        m, q = self.m, self.q
        if r == "R1":
            return -0.0, -1.0
        if r in ("R2", "R3", "R3-degenerate"):
            return (mean_bulk(t / m, q) * m,
                    coef_d(self.u, q) * m ** (1 / 3))
        if r in ("R4", "R4-degenerate"):
            uj = t / m
            return (mean_defect(uj, q, self.qbar) * m,
                    coef_dg(uj, q, self.qbar) * math.sqrt(m))
        if r == "fixedM":
            return (1.0 - q) * t, math.sqrt(2.0 * q * (1.0 - q) * t)
        if r == "continuousR2":
            uj = (1.0 - q) * t / m
            _, _, d = continuous_coefs(self.u)
            return (math.sqrt(uj) - 1.0) ** 2 * m, d * m ** (1 / 3)
        raise AssertionError(r)

    def level_of(self, s, t):
        """Integer distance threshold matching scaled position s at time t."""
        center, width = self._frame(t)
        return int(round(center - width * s))

    def s_of(self, ell, t):
        """Scaled position realized by integer distance ell at time t."""
        center, width = self._frame(t)
        return (center - ell) / width

    # -- particle rates ---------------------------------------------------

    def rates(self):
        """Stay-rate vector realizing the region's defect structure; the
        defect, or the first of several, is particle 1."""
        r = self.region
        m, q, qbar = self.m, self.q, self.qbar
        if r == "fixedM":
            amp = math.sqrt(2.0 * q * (1.0 - q) / self.horizon)
            eps = self.strengths if self.strengths else (0.0,) * m
            return tuple(q - amp * e for e in eps)
        if r == "R3-degenerate":
            uc = critical_scaled_time(q, qbar)
            amp = qbar * (1.0 - qbar) / (coef_d(uc, q) * m ** (1 / 3))
        elif r == "R4-degenerate":
            amp = 2.0 * qbar * (1.0 - qbar) / math.sqrt(m)
        else:
            # R3 and R4 always carry qbar > q; the other regions may not
            slow = qbar is not None and qbar > q
            return defect_rates(m, q, {1: qbar} if slow else {})
        return defect_rates(
            m, q, {1 + i: qbar - amp * s for i, s in enumerate(self.strengths)})

    # -- limit law --------------------------------------------------------

    @property
    def target_law(self):
        if self.region == "R1":
            return "discrete-hermite"
        if self.region in ("R2", "continuousR2"):
            return "tw-gue"
        if self.region in ("R3", "R3-degenerate"):
            return "goe-squared"
        return "gaussian"
