"""Scaling maps between lattice coordinates and limit-kernel coordinates.

Each region names a joint limit of the tagged-particle distance L(t, M).
REGION_TABLE gives every region its family, its target law and the slow
particles it requires; the scaling maps depend on the family alone.

onset (R1)
    t = M/(1-q) + d1 sqrt(M) tau; L stays O(1) and is its own scaled
    position; discrete Hermite kernel.
bulk (R2, R3, R3-degenerate)
    t = uM + c M^(2/3) tau; cube-root window around the square-root mean.
    R2: u between onset and the capture point u_c, extended Airy kernel.
    R3: u pinned to u_c, one critical defect adds a rank-one border term.
    R3-degenerate: several defects merging at u_c at rate M^(-1/3); rank-n
    perturbed Airy kernel with strengths eta_i.
defect (R4, R4-degenerate)
    beyond u_c, times are their own ratios u_j = t/M and tau = log dg(u_j);
    square-root window around the linear mean dragged by the slow defect,
    stationary Gaussian process kernel.  R4-degenerate: several defect
    rates merging at rate M^(-1/2); rank-n Gaussian kernel, strengths eps_i.
fixedM (fixedM)
    M held fixed while t = e^(2 tau) T -> infinity; every particle's rate
    approaches q at rate T^(-1/2); rank-M Gaussian kernel.
clock (continuousR2)
    the bulk maps in the rescaled clock (1-q)t, which matches the
    continuous-time square-root law (sqrt(u)-1)^2.

Forward maps round to integer lattice times/levels; inverse maps are
computed from the rounded integers, so a round trip returns the effective
scaled coordinates actually realized on the lattice.
"""

import math
from dataclasses import dataclass

from ..fredholm import GAUSSIAN, GOE_SQUARED, TW_GUE
from ..system import (_checked_int, critical_scaled_time, defect_rates,
                      mean_bulk, mean_defect)

# region -> (family, target law, slow particles required: None, "one" at
# qbar on particle 1, or "several" merging into qbar, one per strength)
REGION_TABLE = {
    "R1": ("onset", "discrete-hermite", None),
    "R2": ("bulk", TW_GUE, None),
    "R3": ("bulk", GOE_SQUARED, "one"),
    "R3-degenerate": ("bulk", GOE_SQUARED, "several"),
    "R4": ("defect", GAUSSIAN, "one"),
    "R4-degenerate": ("defect", GAUSSIAN, "several"),
    "fixedM": ("fixedM", GAUSSIAN, None),
    "continuousR2": ("clock", TW_GUE, None),
}
REGIONS = tuple(REGION_TABLE)


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

    `u` is the time ratio t/M around which the bulk family scales (forced
    to the capture point where a defect is required), the same ratio in the
    rescaled clock, and the experiment's own ratio u_j > u_c in the defect
    family, whose `time_of` takes such ratios; onset and fixedM ignore it.
    `strengths` are the nonnegative degeneracy parameters (eta_i or eps_i);
    `horizon` is the reference time T of the fixedM limit.
    """

    region: str
    m: int
    q: float
    qbar: float = None
    u: float = None
    strengths: tuple = ()
    horizon: float = None

    def __post_init__(self):
        if self.region not in REGION_TABLE:
            raise ValueError(f"unknown region {self.region!r}")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        object.__setattr__(self, "m",
                           _checked_int(self.m, "m", 1, integral=True))
        if self.u is not None and not math.isfinite(self.u):
            raise ValueError(f"u must be finite; got u={self.u}")
        object.__setattr__(self, "strengths",
                           tuple(float(s) for s in self.strengths))
        if not all(0 <= s < math.inf for s in self.strengths):
            raise ValueError("strengths must be finite and nonnegative")
        r, (family, _, slow) = self.region, REGION_TABLE[self.region]
        if slow and (self.qbar is None or not self.q < self.qbar < 1.0):
            raise ValueError(f"region {r} needs a defect rate qbar in (q, 1)")
        uc = (critical_scaled_time(self.q, self.qbar)
              if self.qbar is not None and self.qbar > self.q else math.inf)
        if family == "bulk" and not slow:
            lo = 1.0 / (1.0 - self.q)
            if self.u is None or not lo < self.u < uc:
                raise ValueError(
                    f"region {r} needs 1/(1-q) < u < u_c; got u={self.u}, "
                    f"bounds ({lo}, {uc})")
        if family == "bulk" and slow:
            if self.u is None:
                object.__setattr__(self, "u", uc)
            elif not math.isclose(self.u, uc, rel_tol=1e-12):
                raise ValueError(
                    f"region {r} pins u to the capture point u_c={uc}; "
                    f"got u={self.u}")
        if family == "defect" and self.u is not None and self.u <= uc:
            raise ValueError(f"region {r} needs u > u_c={uc}; got u={self.u}")
        if family == "clock" and (self.u is None or self.u <= 1.0):
            raise ValueError(f"region {r} needs u_tilde > 1")
        if family == "fixedM":
            if self.horizon is None or self.horizon <= 0:
                raise ValueError(f"region {r} needs a positive horizon T")
            if self.strengths and len(self.strengths) != self.m:
                raise ValueError(
                    "fixedM strengths must list one eps per particle")
        if slow == "several" and not self.strengths:
            raise ValueError(f"region {r} needs at least one strength")

    @property
    def family(self):
        return REGION_TABLE[self.region][0]

    @property
    def target_law(self):
        return REGION_TABLE[self.region][1]

    # -- time maps --------------------------------------------------------

    def _clock(self):
        """(a, b, k) of the onset, bulk and clock families, which share the
        affine maps t = round((a + b*tau)/k) and tau = (k*t - a)/b."""
        m, q = self.m, self.q
        if self.family == "onset":
            return m / (1.0 - q), coef_d1(q) * math.sqrt(m), 1.0
        if self.family == "bulk":
            return self.u * m, coef_c(self.u, q) * m ** (2 / 3), 1.0
        _, c, _ = continuous_coefs(self.u)
        return self.u * m, c * m ** (2 / 3), 1.0 - q

    def time_of(self, x):
        """Integer lattice time for scaled time x (tau, or u_j in the
        defect family)."""
        if self.family == "defect":
            uc = critical_scaled_time(self.q, self.qbar)
            if x <= uc:
                raise ValueError(f"R4 times need u > u_c={uc}; got {x}")
            return int(round(x * self.m))
        if self.family == "fixedM":
            return int(round(math.exp(2.0 * x) * self.horizon))
        a, b, k = self._clock()
        t = int(round((a + b * x) / k))
        if t < 0:
            raise ValueError(f"scaled time {x} maps to lattice time {t} < 0")
        return t

    def tau_of(self, t):
        """Kernel time coordinate realized by the integer lattice time t."""
        if self.family == "defect":
            return math.log(coef_dg(t / self.m, self.q, self.qbar))
        if self.family == "fixedM":
            return 0.5 * math.log(t / self.horizon)
        a, b, k = self._clock()
        return (k * t - a) / b

    def lattice_time(self):
        """Lattice time of the experiment's own scaled time: tau = 0, or u
        itself in the defect family."""
        if self.family != "defect":
            return self.time_of(0.0)
        if self.u is None:
            raise ValueError(f"region {self.region} needs u, its time ratio")
        return self.time_of(self.u)

    # -- position maps ----------------------------------------------------

    def _frame(self, t):
        """(center, width) at lattice time t: level = center - width * s.

        Onset uses (-0.0, -1.0) rather than (0, -1) so that level 0 maps to
        s = +0.0, not -0.0.
        """
        m, q, uj = self.m, self.q, t / self.m
        if self.family == "onset":
            return -0.0, -1.0
        if self.family == "bulk":
            # mean_bulk takes the square root of u - 1
            center = mean_bulk(uj, q) * m if uj >= 1.0 else math.nan
            width = coef_d(self.u, q) * m ** (1 / 3)
        elif self.family == "defect":
            center = mean_defect(uj, q, self.qbar) * m
            width = coef_dg(uj, q, self.qbar) * math.sqrt(m)
        elif self.family == "fixedM":
            center, width = (1.0 - q) * t, math.sqrt(2.0 * q * (1.0 - q) * t)
        else:
            center = (math.sqrt((1.0 - q) * t / m) - 1.0) ** 2 * m
            width = continuous_coefs(self.u)[2] * m ** (1 / 3)
        if not (math.isfinite(center) and math.isfinite(width)) or width == 0:
            raise ValueError(f"lattice time {t} has no finite nonzero frame")
        return center, width

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
        defect, or the first of several, is particle 1. Strengths lower
        rates from q or qbar; one that lowers a rate below 0 is refused."""
        m, q, qbar = self.m, self.q, self.qbar
        if self.family == "fixedM":
            amp = math.sqrt(2.0 * q * (1.0 - q) / self.horizon)
            eps = self.strengths if self.strengths else (0.0,) * m
            rates = tuple(q - amp * e for e in eps)
        elif REGION_TABLE[self.region][2] != "several":
            # a required defect has qbar > q; an optional one may not
            slow = qbar is not None and qbar > q
            return defect_rates(m, q, {1: qbar} if slow else {})
        else:
            if self.family == "bulk":
                uc = critical_scaled_time(q, qbar)
                amp = qbar * (1.0 - qbar) / (coef_d(uc, q) * m ** (1 / 3))
            else:
                amp = 2.0 * qbar * (1.0 - qbar) / math.sqrt(m)
            rates = defect_rates(m, q, {1 + i: qbar - amp * s
                                        for i, s in enumerate(self.strengths)})
        low = min(rates)
        if low < 0.0:
            raise ValueError(
                f"strengths {list(self.strengths)} put the stay rate of "
                f"particle {rates.index(low) + 1} at {low!r}, below 0")
        return rates
