"""Experiment orchestration: configs, sampling runs, figure data, verification.

A run is described by a flat ExperimentConfig (JSON on disk, unknown keys
rejected, seeds always explicit).  Sampling runs draw tagged-particle
distances, map them to the scaled coordinate of the chosen region (larger
s means the particle lags), and report the Kolmogorov-Smirnov distance
against the region's tabulated reference law.  All files are written with
fixed float formatting, so the same config and seed give byte-identical
output.

The onset region has a discrete limit law rather than a tabulated CDF, so
`simulate` rejects it; its Monte Carlo validation lives in the test suite
against the onset determinant directly.
"""

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import combinatorics as comb
from .finite_kernel import joint_probability
from .fredholm import GAUSSIAN, LAWS, ks_distance, reference_law
from .limit_kernels.kernels import (
    airy_kernel_cd,
    extended_airy_block,
    kernel_K3_block,
    kernel_K3prime_block,
    kernel_KG_block,
    kernel_Kn_block,
)
from .limit_kernels.scaling import ScaledExperiment
from .system import (  # adaptive_chunk is read as harness.adaptive_chunk
    SystemSpec,
    adaptive_chunk,
    critical_scaled_time,
    defect_rates,
    mean_bulk,
    mean_position_theory,
    positions_trajectory,
    sample_ensemble,
    uniform_rates,
)

LAW_NAMES = tuple(LAWS)

_MODE_DEFAULTS = {
    "fig2": dict(m=100, q=0.1, qbar=0.2, defects=(1, 25, 50, 75),
                 horizon=3000, master_seed=20),
    "fig3": dict(q=0.1, qbar=0.2),
    "fig8": dict(m=100, q=0.1, qbar=0.2, n_samples=10000, master_seed=80),
}


def _tuple_of(kind):
    def cast(value):
        return tuple(kind(v) for v in value)
    return cast


_CASTS = {
    "mode": str, "m": int, "q": float, "qbar": float,
    "defects": _tuple_of(int), "region": str, "u": float,
    "strengths": _tuple_of(float), "horizon": int,
    "times": _tuple_of(int), "levels": _tuple_of(int),
    "law": str, "suites": _tuple_of(str), "n_samples": int,
    "master_seed": int, "out": str, "tolerance": float,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one run; the JSON config mirrors these fields."""

    mode: str
    m: int = None
    q: float = None
    qbar: float = None
    defects: tuple = ()
    region: str = None
    u: float = None
    strengths: tuple = ()
    horizon: int = None
    times: tuple = ()
    levels: tuple = ()
    law: str = None
    suites: tuple = ()
    n_samples: int = None
    master_seed: int = None
    out: str = None
    tolerance: float = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.master_seed is not None and not (
                0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must fit in an unsigned 64-bit int")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.law is not None and self.law not in LAW_NAMES:
            raise ValueError(f"unknown law {self.law!r}; "
                             f"choose from {LAW_NAMES}")
        for suite in self.suites:
            if suite not in SUITES:
                raise ValueError(f"unknown verify suite {suite!r}; "
                                 f"choose from {SUITES}")

    def canonical(self):
        """Sorted compact JSON of the fields that are set."""
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or value == ():
                continue
            payload[f.name] = list(value) if isinstance(value, tuple) \
                else value
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def digest(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def config_from_dict(data):
    data = dict(data)
    unknown = set(data) - set(_CASTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if value is not None:
            kwargs[key] = _CASTS[key](value)
    if "mode" not in kwargs:
        raise ValueError("config must carry a mode")
    return ExperimentConfig(**kwargs)


def resolve_config(mode, config_path=None, seed=None, out=None,
                   samples=None, tolerance=None):
    """Combine mode defaults, a config file, and command-line overrides."""
    data = {}
    if config_path is not None:
        with open(config_path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a flat JSON object")
        if "mode" in data and data["mode"] != mode:
            raise ValueError(
                f"config file is for mode {data['mode']!r}, not {mode!r}")
    for key, value in _MODE_DEFAULTS.get(mode, {}).items():
        data.setdefault(key, value)
    data["mode"] = mode
    if seed is not None:
        data["master_seed"] = seed
    if out is not None:
        data["out"] = out
    if samples is not None:
        data["n_samples"] = samples
    if tolerance is not None:
        data["tolerance"] = tolerance
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# File writers (fixed formatting for byte-stable output)
# ---------------------------------------------------------------------------

def _fmt(x):
    return repr(float(x))


def _write_lines(path, lines):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_sample_csv(path, time, ls, esses):
    lines = ["sample_index,time,L,scaled_s"]
    for i, (l, s) in enumerate(zip(ls, esses)):
        lines.append(f"{i},{time},{int(l)},{_fmt(s)}")
    return _write_lines(path, lines)


def write_distribution_csv(path, esses, law):
    esses = np.sort(np.asarray(esses, dtype=float))
    grid = np.linspace(esses[0] - 0.5, esses[-1] + 0.5, 200)
    ecdf = np.searchsorted(esses, grid, side="right") / len(esses)
    ref = law.cdf(grid)
    lines = ["s,cdf_empirical,cdf_reference"]
    for g, e, r in zip(grid, ecdf, ref):
        lines.append(f"{_fmt(g)},{_fmt(e)},{_fmt(r)}")
    return _write_lines(path, lines)


def write_report_json(path, report):
    return _write_lines(path, [json.dumps(report, sort_keys=True, indent=2)])


def write_law_csv(path, law):
    lines = ["s,cdf"]
    for s, v in zip(law.grid, law.values):
        lines.append(f"{_fmt(s)},{_fmt(v)}")
    return _write_lines(path, lines)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _require(cfg, *names):
    missing = [n for n in names
               if getattr(cfg, n) is None or getattr(cfg, n) == ()]
    if missing:
        raise ValueError(f"mode {cfg.mode!r} needs config fields {missing}")


def _scaled_experiment(cfg):
    return ScaledExperiment(region=cfg.region, m=cfg.m, q=cfg.q,
                            qbar=cfg.qbar, u=cfg.u,
                            strengths=cfg.strengths, horizon=cfg.horizon)


def _default_tolerance(law_name):
    return 0.05 if law_name == GAUSSIAN else 0.08


def run_simulate(cfg):
    """Draw scaled tagged-particle samples and compare to the target law.

    Writes samples.csv, distribution.csv, report.json under cfg.out and
    returns the report plus in-memory extras (time, scaled mean/variance).
    """
    _require(cfg, "m", "q", "region", "n_samples", "master_seed", "out")
    if any(label != 1 for label in cfg.defects):
        raise ValueError(f"simulate puts the defect on particle 1; "
                         f"got defects {list(cfg.defects)}")
    exp = _scaled_experiment(cfg)
    law_name = exp.target_law
    if law_name not in LAW_NAMES:
        raise ValueError(
            f"region {cfg.region!r} has limit law {law_name!r}, which has "
            "no tabulated CDF; simulate supports the Airy-class and "
            "Gaussian regions")
    t = exp.lattice_time()
    spec = SystemSpec(m=cfg.m, rates=exp.rates(), horizon=t)
    ls = sample_ensemble(spec, [t], cfg.n_samples, cfg.master_seed)[:, 0]
    esses = exp.s_of(ls, t)
    law = reference_law(law_name)
    ks = ks_distance(esses, law.cdf)
    tolerance = cfg.tolerance if cfg.tolerance is not None \
        else _default_tolerance(law_name)
    report = {
        "ks_distance": ks,
        "n": int(cfg.n_samples),
        "target_law": law_name,
        "pass": bool(ks <= tolerance),
        "tolerance": tolerance,
        "seed": int(cfg.master_seed),
        "config_digest": cfg.digest,
    }
    out = Path(cfg.out)
    write_sample_csv(out / "samples.csv", t, ls, esses)
    write_distribution_csv(out / "distribution.csv", esses, law)
    write_report_json(out / "report.json", report)
    return dict(report, time=t,
                scaled_mean=float(np.mean(esses)),
                scaled_var=float(np.var(esses)))


def _system_rates(cfg):
    if cfg.defects and cfg.qbar is not None:
        return defect_rates(cfg.m, cfg.q,
                            {label: cfg.qbar for label in cfg.defects})
    return uniform_rates(cfg.m, cfg.q)


def run_exact_dist(cfg):
    """Exact finite-size tail table P(L(t) >= level) per requested time."""
    _require(cfg, "m", "q", "times", "out")
    rates = _system_rates(cfg)
    lines = ["time,level,prob_at_least"]
    for t in cfg.times:
        # the tagged particle first moves at time m, so L(t) <= t - m + 1
        levels = cfg.levels or tuple(range(1, t - cfg.m + 2))
        for level in levels:
            p = joint_probability([t], [int(level)], rates)
            lines.append(f"{int(t)},{int(level)},{_fmt(p)}")
    out = Path(cfg.out)
    path = _write_lines(out / "exact_dist.csv", lines)
    write_report_json(out / "report.json",
                      {"rows": len(lines) - 1, "config_digest": cfg.digest})
    return {"rows": len(lines) - 1, "path": str(path)}


def run_kernel_eval(cfg):
    """Export tabulated reference laws as two-column CSV."""
    _require(cfg, "out")
    names = (cfg.law,) if cfg.law else LAW_NAMES
    out = Path(cfg.out)
    paths = []
    for name in names:
        paths.append(str(write_law_csv(
            out / f"law_{name.replace('-', '_')}.csv", reference_law(name))))
    write_report_json(out / "report.json",
                      {"laws": list(names), "config_digest": cfg.digest})
    return {"laws": list(names), "paths": paths}


# -- verification suites ----------------------------------------------------

def _suite_combinatorial():
    """Exhaustive identities on every 01 matrix with up to 4 rows/columns:
    stay count equals the left-down passage maximum, the first column of
    the insertion tableau matches it, and the transposed dual insertion
    tableau equals the plain insertion tableau of the column word."""
    cases = failures = 0
    for n_rows in range(1, 5):
        for n_cols in range(1, 5):
            for bits in comb.all_matrices(n_rows, n_cols):
                cases += 1
                _path, stays = comb.trajectory_from_matrix(bits)
                _fc, path_max, agree = comb.first_column_identity(bits)
                if not (agree and stays == path_max):
                    failures += 1
    return failures == 0 and cases >= 65536, {
        "cases": cases, "failures": failures}


def _suite_oracle():
    """Windowed determinant against the exhaustive enumeration oracle at
    M=2, all times 2..4, all thresholds, plus the joint (2,4) pair."""
    rates = (Fraction(3, 10), Fraction(1, 2))
    law = comb.enumerate_exact_distribution(3, 2, rates)
    worst = 0.0
    for t in (2, 3, 4):
        for level in range(0, t + 1):
            want = float(comb.prob_path_at_least(law, [(t, level)]))
            got = joint_probability([t], [level], rates)
            worst = max(worst, abs(got - want))
    for l1 in range(0, 3):
        for l2 in range(0, 5):
            want = float(comb.prob_path_at_least(law, [(2, l1), (4, l2)]))
            got = joint_probability([2, 4], [l1, l2], rates)
            worst = max(worst, abs(got - want))
    return worst < 1e-8, {"max_abs_deviation": worst}


def _suite_kernels():
    """Limit-kernel reduction chain on a 5x5 probe grid."""
    big = 1e12
    x1 = np.array([-3.0, -1.0, 0.0, 1.2, 2.5])
    x2 = np.array([-2.5, -0.5, 0.0, 1.2, 3.0])
    worst = dict.fromkeys(("critical_to_single_defect",
                           "critical_to_plain_airy", "rank_n_to_gaussian"), 0.0)
    for t1, t2 in [(-0.4, 0.3), (0.3, -0.4), (0.2, 0.2)]:
        k2 = extended_airy_block(t1, x1, t2, x2)
        k3 = kernel_K3_block(t1, x1, t2, x2)
        k3p_deg = kernel_K3prime_block(t1, x1, t2, x2, [0.0, big])
        k3p_far = kernel_K3prime_block(t1, x1, t2, x2, [big])
        kg = kernel_KG_block(t1, x1, t2, x2)
        kn = kernel_Kn_block(t1, x1, t2, x2, [0.0])
        for key, a, b in (("critical_to_single_defect", k3p_deg, k3),
                          ("critical_to_plain_airy", k3p_far, k2),
                          ("rank_n_to_gaussian", kn, kg)):
            worst[key] = max(worst[key], float(np.max(np.abs(a - b))))
    eq = extended_airy_block(0.0, x1, 0.0, x1)
    cd = np.array([[airy_kernel_cd(a, b) for b in x1] for a in x1])
    worst["equal_time_to_christoffel_darboux"] = float(
        np.max(np.abs(eq - cd)))
    return all(v < 1e-8 for v in worst.values()), worst


def _suite_mc():
    """Monte Carlo against closed-form theory: the deterministic mean
    position at u=5, and the KS self-test of the Gaussian law."""
    m, q, u, n = 400, 0.1, 5.0, 2000
    t = int(u * m)
    spec = SystemSpec(m=m, rates=uniform_rates(m, q), horizon=t)
    ls = sample_ensemble(spec, [t], n, 7)[:, 0]
    mean_gap = abs(float(np.mean(ls)) / m - mean_bulk(u, q))
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    xs = rng.normal(scale=1.0 / math.sqrt(2.0), size=10000)
    ks = ks_distance(xs, reference_law(GAUSSIAN).cdf)
    return mean_gap <= 0.05 and ks < 0.02, {
        "mean_position_gap": mean_gap, "gaussian_self_ks": ks}


_SUITE_RUNNERS = {
    "combinatorial-exhaustive": _suite_combinatorial,
    "oracle-vs-fredholm": _suite_oracle,
    "kernel-crosschecks": _suite_kernels,
    "mc-vs-theory": _suite_mc,
}
SUITES = tuple(_SUITE_RUNNERS)


def run_verify(cfg):
    """Run the requested verification suites; report a pass/fail matrix."""
    suites = cfg.suites or SUITES
    matrix = {}
    for name in suites:
        ok, details = _SUITE_RUNNERS[name]()
        matrix[name] = dict(details, **{"pass": bool(ok)})
    overall = all(entry["pass"] for entry in matrix.values())
    report = {"suites": matrix, "pass": overall,
              "config_digest": cfg.digest}
    if cfg.out is not None:
        write_report_json(Path(cfg.out) / "verify_report.json", report)
    return report


def run_fig2(cfg):
    """One pinned trajectory of every particle for the platoon picture."""
    _require(cfg, "m", "q", "qbar", "defects", "horizon", "master_seed",
             "out")
    spec = SystemSpec(m=cfg.m, rates=_system_rates(cfg), horizon=cfg.horizon)
    pos = positions_trajectory(spec, cfg.master_seed)
    lines = [",".join(str(int(v)) for v in row) for row in pos]
    out = Path(cfg.out)
    path = _write_lines(out / "positions.csv", lines)
    write_report_json(out / "report.json", {
        "rows": pos.shape[0], "columns": pos.shape[1],
        "seed": int(cfg.master_seed), "config_digest": cfg.digest})
    return {"rows": pos.shape[0], "columns": pos.shape[1],
            "path": str(path)}


def run_fig3(cfg):
    """Mean-position curve A(u) with the onset and capture markers."""
    _require(cfg, "q", "out")
    q, qbar = cfg.q, cfg.qbar
    onset = 1.0 / (1.0 - q)
    if qbar is not None and qbar > q:
        uc = critical_scaled_time(q, qbar)
        top = 1.5 * uc
    else:
        uc = None
        top = 4.0 * onset
    grid = np.linspace(1.0, top, 400)
    lines = ["u,A"]
    for u in grid:
        lines.append(f"{_fmt(u)},{_fmt(mean_position_theory(u, q, qbar))}")
    out = Path(cfg.out)
    curve = _write_lines(out / "curve.csv", lines)
    marks = ["label,u,A", f"onset,{_fmt(onset)},{_fmt(0.0)}"]
    if uc is not None:
        marks.append(f"capture,{_fmt(uc)},{_fmt(mean_bulk(uc, q))}")
    markers = _write_lines(out / "markers.csv", marks)
    write_report_json(out / "report.json",
                      {"points": len(grid), "config_digest": cfg.digest})
    return {"curve": str(curve), "markers": str(markers)}


FIG8_VARIANTS = (
    ("fig8a_uniform", "R2", 2.0, False),
    ("fig8a_defect", "R2", 2.0, True),
    ("fig8b_uniform", "R2", 10.0, False),
    ("fig8b_defect", "R3", None, True),
    ("fig8c_defect", "R4", 30.0, True),
)


def run_fig8(cfg):
    """The three distribution panels: Airy-class laws at u=2 and at the
    capture point, the Gaussian law beyond it; defect on particle 1."""
    _require(cfg, "m", "q", "qbar", "n_samples", "master_seed", "out")
    out = Path(cfg.out)
    results = {}
    for k, (name, region, u, defect) in enumerate(FIG8_VARIANTS):
        sub = replace(cfg, mode="simulate", region=region, u=u,
                      qbar=cfg.qbar if defect else None,
                      defects=(1,) if defect else (),
                      out=str(out / name), master_seed=cfg.master_seed + k)
        report = run_simulate(sub)
        results[name] = {"ks_distance": report["ks_distance"],
                         "target_law": report["target_law"],
                         "time": report["time"],
                         "pass": report["pass"]}
    overall = all(entry["pass"] for entry in results.values())
    report = {"variants": results, "pass": overall,
              "config_digest": cfg.digest}
    write_report_json(out / "fig8_report.json", report)
    return report


RUNNERS = {
    "simulate": run_simulate,
    "exact-dist": run_exact_dist,
    "kernel-eval": run_kernel_eval,
    "verify": run_verify,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig8": run_fig8,
}
MODES = tuple(RUNNERS)


def run(cfg):
    return RUNNERS[cfg.mode](cfg)
