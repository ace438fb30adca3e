"""The benchmark's four workloads: seeded inputs, ops and correctness checks.

Each workload writes its inputs (scenario configs, tabulated drive tables,
or a JSON list of library-call parameters) into a directory from a seed,
then builds a fixed list of ops from those files. An op is one unit of
work a researcher would wait for; its check runs outside the op's timed
span and decides whether the op counts as failed.

Every op list is a fixed sequence of slots. The seed draws each slot's
parameters inside a narrow range of its own, so different seeds give
different inputs at about the same cost, and a run's figures can be
compared across seeds.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass
class Op:
    """One timed call; ``check`` maps its result to (ok, check values)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple] = field(repr=False)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(map(ord, workload))])


def _num(x) -> str:
    return repr(float(x))


def write_config(path: Path, sections: dict):
    """Write an INI scenario config with a fixed key order and float format."""
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if isinstance(value, (list, tuple)):
                value = " ".join(_num(v) for v in value)
            elif isinstance(value, float):
                value = _num(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    path.write_text("\n".join(lines))


def read_config(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(Path(path).read_text())
    return {s: dict(parser.items(s)) for s in parser.sections()}


# --------------------------------------------------------------------------
# independent reference for chi_t = int_0^t g exp(-i eta) dtau


def _eta_analytic(drive: dict):
    """eta(tau) and the largest |f| for a dc, harmonic or fourier [drive]."""
    kind = drive["kind"]
    f0 = float(drive["f0"])
    if kind == "dc":
        return (lambda tau: f0 * tau), abs(f0)
    omega = float(drive["omega"])
    if kind == "harmonic":
        f1 = float(drive["f1"])
        return (lambda tau: f0 * tau - f1 / omega * np.sin(omega * tau)), \
            abs(f0) + abs(f1)
    modes = [float(m) for m in drive["modes"].replace(",", " ").split()]

    def eta(tau):
        out = f0 * tau
        for m, fm in enumerate(modes, start=1):
            out = out + fm / (m * omega) * np.sin(m * omega * tau)
        return out
    return eta, abs(f0) + sum(abs(m) for m in modes)


def _gauss_legendre(fn, edges: np.ndarray) -> np.ndarray:
    """Integral of fn over each [edges[i], edges[i+1]] by 8-point Gauss-Legendre."""
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * GL_NODES[None, :]
    return half * (fn(nodes) @ GL_WEIGHTS)


def _panel_edges(breaks: np.ndarray, width: float) -> tuple:
    """Subdivide [breaks[i], breaks[i+1]] into panels no wider than width.

    Returns the panel edges and, for each break, the index of its edge.
    """
    pieces = [breaks[:1]]
    where = [0]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        n = max(1, int(np.ceil((hi - lo) / width)))
        pieces.append(np.linspace(lo, hi, n + 1)[1:])
        where.append(where[-1] + n)
    return np.concatenate(pieces), np.array(where)


def chi_reference(drive: dict, base_dir: Path, times) -> np.ndarray:
    """chi at sorted nonnegative times by dense-grid Gauss-Legendre quadrature.

    Panels are at most 0.05 and 1/max|f| wide, and for tabulated drives
    every table node is a panel edge, so the interpolation kinks never sit
    inside a panel. This code shares nothing with driventb.drives.
    """
    times = np.asarray(times, dtype=float)
    if drive["kind"] == "tabulated":
        tf = np.loadtxt(base_dir / drive["f_file"], ndmin=2)
        tg = np.loadtxt(base_dir / drive["g_file"], ndmin=2)
        nodes, fv, gv = tf[:, 0], tf[:, 1], tg[:, 1]
        span = nodes[-1]
        slope = np.diff(fv) / np.diff(nodes)
        eta_nodes = np.concatenate(
            [[0.0], np.cumsum(np.diff(nodes) * 0.5 * (fv[:-1] + fv[1:]))])

        def integrand(tau):
            k = np.floor(tau / span)
            s = tau - k * span
            j = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0,
                        nodes.size - 2)
            ds = s - nodes[j]
            eta = (k * eta_nodes[-1] + eta_nodes[j] + fv[j] * ds
                   + 0.5 * slope[j] * ds * ds)
            return np.interp(s, nodes, gv) * np.exp(-1j * eta)

        periods = int(np.ceil(times[-1] / span))
        kinks = (np.arange(periods)[:, None] * span + nodes[None, :-1]).ravel()
        width = min(0.05, 1.0 / max(np.max(np.abs(fv)), 1e-12))
    else:
        eta, f_max = _eta_analytic(drive)
        g0 = float(drive["g0"])

        def integrand(tau):
            return g0 * np.exp(-1j * eta(tau))

        kinks = np.zeros(0)
        width = min(0.05, 1.0 / max(f_max, 1e-12))
    breaks = np.unique(np.concatenate([[0.0], kinks[kinks < times[-1]], times]))
    edges, where = _panel_edges(breaks, width)
    cumulative = np.concatenate([[0.0], np.cumsum(_gauss_legendre(integrand, edges))])
    at = where[np.searchsorted(breaks, times)]
    return cumulative[at]


# --------------------------------------------------------------------------
# oracle_verify


SHIPPED_ORACLE = (("single_band_m3", True), ("single_band_m3_power2", False))


def _oracle_generated(rng) -> list:
    """Five open-window configs: dc, harmonic, resonant fourier and a band."""
    # Past one Bloch period the march cost grows with t_max, so each slot
    # keeps its own t_max (in Bloch periods; the dispersion band, dearest
    # per step, gets the shortest) and the seed only jitters it.
    slots = (("fourier", 0.6), ("harmonic", 1.2), ("harmonic", 0.8),
             ("dc", 1.4), ("dispersion", 0.5))
    half = rng.permutation(np.linspace(32, 64, len(slots))).round().astype(int)
    specs = []
    for i, (kind, t_frac) in enumerate(slots):
        f0 = rng.uniform(0.8, 1.25)
        if kind == "harmonic":
            omega = f0 * rng.uniform(0.5, 0.9)
            drive = {"kind": "harmonic", "f0": f0,
                     "f1": omega * rng.uniform(0.3, 1.0), "omega": omega,
                     "g0": rng.uniform(0.3, 0.6)}
        elif kind == "fourier":
            drive = {"kind": "fourier", "f0": f0,
                     "modes": [f0 * rng.uniform(0.1, 0.5),
                               2.0 * f0 * rng.uniform(0.1, 0.3)],
                     "omega": f0, "g0": rng.uniform(0.3, 0.6)}
        else:
            drive = {"kind": "dc", "f0": f0,
                     "g0": 0.0 if kind == "dispersion" else rng.uniform(0.5, 1.0)}
        if i % 2:
            state = {"kind": "single_site", "site": 0}
        else:
            state = {"kind": "gaussian", "center": 0.0,
                     "sigma": rng.uniform(2.0, 3.0),
                     "kappa0": rng.uniform(-0.5, 0.5)}
        bloch_period = 2.0 * np.pi / f0
        sections = {
            "scenario": {"name": f"oracle_{i}_{kind}", "seed": 0},
            "lattice": {"window": f"{-half[i]} {half[i]}"},
            "state": state,
            "drive": drive,
            "time": {"t_max": (t_frac + rng.uniform(-0.05, 0.05)) * bloch_period,
                     "samples": int(rng.integers(8, 13))},
            "output": {"quantities": "state_snapshots"},
            "oracle": {"enabled": "true", "boundary": "open",
                       "tolerance": 1e-6},
        }
        if kind == "dispersion":
            sections["dispersion"] = {
                "couplings": [0.0] + list(rng.uniform(0.1, 0.4, 2)),
                "convention": "index"}
        specs.append(sections)
    return specs


class OracleVerify:
    why = ("compare_with_oracle on 2 shipped single_band_m3 configs (power2 "
           "must diverge) and 5 seeded dc/harmonic/fourier/dispersion configs:"
           " the 1-D RK4 oracle march is the cost")
    name = "oracle_verify"

    def generate(self, seed: int, out: Path) -> list:
        rng = _rng(seed, self.name)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for sections in _oracle_generated(rng):
            path = out / f"{sections['scenario']['name']}.cfg"
            write_config(path, sections)
            paths.append(path)
        return paths

    def build(self, root: Path, seed: int, work: Path) -> list:
        import driventb.scenario as scenario

        cases = [(path, True) for path in self.generate(seed, work / "inputs")]
        cases += [(root / "configs" / f"{name}.cfg", passes)
                  for name, passes in SHIPPED_ORACLE]
        ops = []
        for path, expected in cases:
            out = work / "out" / path.stem
            tolerance = scenario.load_scenario(path).tolerance

            def check(report, expected=expected, tolerance=tolerance):
                dev = report["max_amplitude_deviation"]
                ok = report["passed"] is expected
                if expected:
                    ok = ok and dev <= tolerance
                return ok, {"max_amp_dev": dev} if expected else {}

            ops.append(Op(path.stem,
                          lambda path=path, out=out: scenario.compare_with_oracle(
                              path, out_dir=out), check))
        return ops


# --------------------------------------------------------------------------
# ring_monodromy

# (drive kind, resonance order n, ring sites, f_m / (m omega) ranges). The
# oracle's step halving stops after the same number of refinements across
# each slot's ranges, so the seed changes the inputs but not the work.
RING_SLOTS = (("harmonic", 1, 20, ((0.25, 0.4),)),
              ("fourier", 1, 16, ((0.2, 0.35), (0.1, 0.2))),
              ("harmonic", 1, 16, ((0.3, 0.6),)),
              ("harmonic", 2, 16, ((0.3, 0.9),)))
BAND_TOL = 1e-4


def _ring_specs(rng) -> list:
    specs = []
    for kind, n, sites, betas in RING_SLOTS:
        omega = rng.uniform(0.85, 1.15)
        spec = {"kind": kind, "order": n, "sites": sites, "omega": omega,
                "f0": n * omega, "g0": omega * rng.uniform(0.1, 0.16)}
        modes = [m * omega * rng.uniform(lo, hi)
                 for m, (lo, hi) in enumerate(betas, start=1)]
        if kind == "harmonic":
            spec["f1"] = modes[0]
        else:
            spec["modes"] = modes
        specs.append(spec)
    return specs


def make_drive(spec: dict):
    from driventb import DCDrive, FourierDrive, HarmonicDrive

    if spec["kind"] == "dc":
        return DCDrive(spec["f0"], spec["g0"])
    if spec["kind"] == "harmonic":
        return HarmonicDrive(spec["f0"], spec["f1"], spec["omega"], spec["g0"])
    return FourierDrive(spec["f0"], tuple(spec["modes"]), spec["omega"],
                        spec["g0"])


def _write_specs(path: Path, specs: list) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(specs, indent=1, sort_keys=True) + "\n")
    return path


class RingMonodromy:
    """Runs by name but is not listed in BENCHMARK.json: with 2-6 s ops a
    run holds about a dozen, too few for steady figures on a small shared
    host. Its layers stay measured by oracle_verify and the closed forms."""

    why = ("monodromy_spectrum + quasienergy_band on 16-20 site rings, "
           "harmonic n=1,2 and fourier drives: the oracle marches a 2-D "
           "identity block")
    name = "ring_monodromy"

    def generate(self, seed: int, out: Path) -> list:
        return [_write_specs(out / "rings.json", _ring_specs(_rng(seed, self.name)))]

    def build(self, root: Path, seed: int, work: Path) -> list:
        import driventb

        specs = json.loads(self.generate(seed, work / "inputs")[0].read_text())

        def run(spec):
            drive = make_drive(spec)
            kappa, eps = driventb.monodromy_spectrum(drive, spec["sites"])
            return kappa, eps, driventb.quasienergy_band(drive)

        def check(result):
            kappa, eps, band = result
            dev = float(np.max(np.abs(eps - band.epsilon(kappa))))
            return dev < BAND_TOL, {"max_band_dev": dev}

        return [Op(f"ring{s['sites']}_{s['kind']}_n{s['order']}",
                   lambda s=s: run(s), check) for s in specs]


# --------------------------------------------------------------------------
# closed_form_series

SHIPPED_SERIES = ("dynamic_localization", "dynamic_localization_twin",
                  "invariant", "quasienergy_band")
CHI_TOL = 1e-8
INVARIANT_TOL = 1e-7


def _periodic_table(rng, period: float, nodes: int):
    """Smooth random periodic f and positive g sampled on [0, period]."""
    t = np.linspace(0.0, period, nodes + 1)
    u = 2.0 * np.pi * t / period
    # fixed harmonic amplitudes keep the quadrature work the same for every
    # seed; the phases and the mean field are drawn
    f = rng.uniform(0.8, 1.2) + sum(
        0.8 / k * np.cos(k * u + rng.uniform(0, 2 * np.pi)) for k in range(1, 4))
    g = rng.uniform(0.4, 0.6) + 0.1 * np.sin(u + rng.uniform(0, 2 * np.pi))
    f[-1] = f[0]
    g[-1] = g[0]
    return t, f, g


def _series_generated(rng, out: Path) -> list:
    specs = []
    gauss = {"kind": "gaussian", "center": 0.0,
             "sigma": rng.uniform(2.0, 4.0), "kappa0": rng.uniform(-1.0, 1.0)}

    f0 = rng.uniform(0.5, 1.5)
    specs.append(("series_dc", {
        "lattice": {"window": "-64 64"}, "state": gauss,
        "drive": {"kind": "dc", "f0": f0, "g0": rng.uniform(0.5, 1.0)},
        "time": {"t_max": rng.uniform(70.0, 80.0), "samples": 4700},
        "output": {"quantities": "observables"}}))

    omega = rng.uniform(0.8, 1.25)
    specs.append(("series_harmonic_strong", {
        "lattice": {"window": "-64 64"}, "state": {"kind": "single_site", "site": 0},
        "drive": {"kind": "harmonic", "f0": omega,
                  "f1": omega * rng.uniform(17.8, 18.2), "omega": omega,
                  "g0": rng.uniform(0.3, 0.6)},
        "time": {"t_max": 50 * 2 * np.pi / omega, "samples": 7100},
        "output": {"quantities": "observables localization_report band"}}))

    omega = rng.uniform(0.8, 1.25)
    modes = [omega * rng.uniform(1.2, 1.3), 2 * omega * rng.uniform(0.6, 0.7),
             3 * omega * rng.uniform(0.28, 0.32)]
    specs.append(("series_fourier", {
        "lattice": {"window": "-64 64"}, "state": gauss,
        "drive": {"kind": "fourier", "f0": omega, "modes": modes,
                  "omega": omega, "g0": rng.uniform(0.3, 0.6)},
        "time": {"t_max": 40 * 2 * np.pi / omega, "samples": 4500},
        "output": {"quantities": "observables localization_report band"}}))

    period = rng.uniform(5.5, 6.5)
    t, f, g = _periodic_table(rng, period, 64)
    np.savetxt(out / "table_f.txt", np.column_stack([t, f]), fmt="%.17g")
    np.savetxt(out / "table_g.txt", np.column_stack([t, g]), fmt="%.17g")
    specs.append(("series_tabulated", {
        "lattice": {"window": "-64 64"}, "state": gauss,
        "drive": {"kind": "tabulated", "f_file": "table_f.txt",
                  "g_file": "table_g.txt", "periodic": "true"},
        "time": {"t_max": rng.uniform(29.0, 31.0) * period, "samples": 800},
        "output": {"quantities": "observables"}}))

    omega = rng.uniform(0.8, 1.25)
    specs.append(("series_invariant_classical", {
        "lattice": {"window": "-96 96"},
        "state": {"kind": "gaussian", "center": 0.0,
                  "sigma": rng.uniform(3.0, 5.0), "kappa0": rng.uniform(-1.0, 1.0)},
        "drive": {"kind": "harmonic", "f0": omega,
                  "f1": omega * rng.uniform(2.9, 3.1), "omega": omega,
                  "g0": rng.uniform(0.3, 0.6)},
        "time": {"t_max": 4 * 2 * np.pi / omega, "samples": 112},
        "output": {"quantities": "observables invariant classical"}}))
    return specs


class ClosedFormSeries:
    why = ("run_scenario on 4 shipped and 5 seeded oracle-free configs (dc, "
           "strong harmonic, fourier, periodic table, invariant+classical): "
           "phase integrals and CSV output")
    name = "closed_form_series"

    def generate(self, seed: int, out: Path) -> list:
        rng = _rng(seed, self.name)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, (name, sections) in enumerate(_series_generated(rng, out)):
            path = out / f"{name}.cfg"
            write_config(path, {"scenario": {"name": name, "seed": i}, **sections})
            paths.append(path)
        return paths

    def build(self, root: Path, seed: int, work: Path) -> list:
        import driventb.scenario as scenario

        paths = [root / "configs" / f"{name}.cfg" for name in SHIPPED_SERIES]
        paths += self.generate(seed, work / "inputs")
        ops = []
        for path in paths:
            out = work / "out" / path.stem
            drive = read_config(path)["drive"]

            def check(summary, path=path, out=out, drive=drive):
                ok = summary["status"] == "ok"
                values = {}
                if "observables.csv" in summary["outputs"]:
                    data = np.loadtxt(out / "observables.csv", delimiter=",",
                                      skiprows=2, usecols=(0, 2, 3))
                    rows = data[[len(data) // 4, len(data) // 2, -1]]
                    ref = chi_reference(drive, path.parent, rows[:, 0])
                    dev = float(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - ref)))
                    ok = ok and dev < CHI_TOL
                    values["max_chi_dev"] = dev
                if "invariant.csv" in summary["outputs"]:
                    inv = np.loadtxt(out / "invariant.csv", delimiter=",",
                                     skiprows=2)
                    dev = float(np.max(np.abs(inv[:, 1] - inv[:, 2])))
                    ok = ok and dev < INVARIANT_TOL
                    values["max_invariant_dev"] = dev
                return ok, values

            ops.append(Op(path.stem, lambda path=path, out=out: scenario.run_scenario(
                path, out_dir=out), check))
        return ops


# --------------------------------------------------------------------------
# wide_evolve

# (boundary, sites, drive kind, target 2|chi| at the last time)
WIDE_SLOTS = (("open", 2049, "dc", 600.0), ("open", 8193, "dc", 2000.0),
              ("open", 16385, "harmonic", 3000.0), ("ring", 1024, "harmonic", 60.0),
              ("ring", 16384, "harmonic", 4.0))
WIDE_TIMES = 10
WIDE_CHECKED_TIMES = 4
NORM_TOL = 1e-10
ROUTE_TOL = 1e-10


def _wide_specs(rng) -> list:
    stride = WIDE_TIMES // WIDE_CHECKED_TIMES
    specs = []
    for boundary, sites, kind, target in WIDE_SLOTS:
        x = target * rng.uniform(0.97, 1.03)
        g0 = rng.uniform(0.5, 1.0)
        if kind == "dc":
            # |2 chi| = (4 g0 / f0) |sin(f0 t / 2)| peaks at 4 g0 / f0
            f0 = 4.0 * g0 / x
            drive = {"kind": "dc", "f0": f0, "g0": g0}
            t_max = np.pi / f0
        elif target < 10.0:
            # off resonance |chi| stays bounded: a weak probe of small kernels
            omega = rng.uniform(0.8, 1.25)
            drive = {"kind": "harmonic", "f0": 1.37 * omega,
                     "f1": omega * rng.uniform(1.0, 1.1), "omega": omega,
                     "g0": 0.75 * omega * x / 8.0}
            t_max = 30.0
        else:
            # resonant n = 1: chi grows like gamma t / 2 with gamma = 2 g0 J_1(f1/w)
            omega = rng.uniform(0.8, 1.25)
            beta = rng.uniform(0.8, 1.5)
            drive = {"kind": "harmonic", "f0": omega, "f1": beta * omega,
                     "omega": omega, "g0": g0}
            gamma = 2.0 * g0 * abs(_bessel_j1(beta))
            t_max = x / gamma
        state = ({"kind": "single_site", "site": 0} if kind == "dc" else
                 {"kind": "gaussian", "center": 0.0,
                  "sigma": rng.uniform(9.0, 11.0), "kappa0": rng.uniform(-1.0, 1.0)})
        # one time per stratum, so the kernel sizes, and the cost, barely
        # change with the seed
        times = (np.arange(1, WIDE_TIMES + 1)
                 - rng.uniform(0.0, 0.5, WIDE_TIMES)) / WIDE_TIMES * t_max
        specs.append({"boundary": boundary, "sites": sites, "drive": drive,
                      "state": state, "times": list(times),
                      "checked": [int(q * stride + rng.integers(stride))
                                  for q in range(WIDE_CHECKED_TIMES)]})
    return specs


def _bessel_j1(x: float) -> float:
    """J_1 by its integral representation (sizing only, not a check)."""
    tau = np.linspace(0.0, np.pi, 2001)
    vals = np.cos(tau - x * np.sin(tau))
    return float(np.sum(0.5 * (vals[1:] + vals[:-1])) * (tau[1] - tau[0]) / np.pi)


class WideEvolve:
    why = ("evolve on both routes plus invariant_expectation on 1k-16k site "
           "open windows and rings, 2|chi| from ~1 to thousands: FFT, "
           "convolution and Bessel kernels")
    name = "wide_evolve"

    def generate(self, seed: int, out: Path) -> list:
        return [_write_specs(out / "wide.json", _wide_specs(_rng(seed, self.name)))]

    def build(self, root: Path, seed: int, work: Path) -> list:
        from dataclasses import replace

        import driventb

        specs = json.loads(self.generate(seed, work / "inputs")[0].read_text())

        def run(spec):
            half = spec["sites"] // 2
            window = (-half, spec["sites"] - half - 1)
            state = driventb.make_state(spec["state"], window)
            if spec["boundary"] == "ring":
                state = replace(state, ring=True)
            drive = make_drive(spec["drive"])
            bloch = [driventb.evolve(state, drive, t, path="bloch")
                     for t in spec["times"]]
            site = [driventb.evolve(state, drive, t, path="site")
                    for t in spec["times"]]
            invariant = [] if state.ring else [
                driventb.invariant_expectation(state, drive, spec["times"][i])
                for i in spec["checked"]]
            return state, bloch, site, invariant

        def check(result, spec):
            state, bloch, site, invariant = result
            norm_dev = max(abs(float(np.vdot(s.amplitudes, s.amplitudes).real)
                               + s.leak - 1.0) for s in bloch + site)
            route_dev = max(float(np.max(np.abs(bloch[i].amplitudes
                                                - site[i].amplitudes)))
                            for i in spec["checked"])
            values = {"max_norm_dev": norm_dev, "max_route_dev": route_dev}
            ok = norm_dev <= NORM_TOL and route_dev <= ROUTE_TOL
            if invariant:
                n0 = float(np.sum(state.sites * np.abs(state.amplitudes) ** 2))
                values["max_invariant_dev"] = max(abs(v - n0) for v in invariant)
                ok = ok and values["max_invariant_dev"] < INVARIANT_TOL
            return ok, values

        return [Op(f"{s['boundary']}{s['sites']}_{s['drive']['kind']}",
                   lambda s=s: run(s), lambda r, s=s: check(r, s)) for s in specs]


WORKLOADS = {w.name: w for w in (OracleVerify(), RingMonodromy(),
                                 ClosedFormSeries(), WideEvolve())}
