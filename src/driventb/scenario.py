"""Declarative scenario runner: config in, CSV/JSON series out.

A scenario file describes a lattice window, an initial state, a drive (or
a band dispersion), a time grid, and the quantities to emit. Two
encodings of the same schema are accepted: INI-style sections

    [scenario]
    name = bloch_oscillation
    seed = 0

    [lattice]
    window = -64 64

    [state]
    kind = gaussian
    center = 0
    sigma = 8
    kappa0 = 0.0

    [drive]
    kind = dc
    f0 = 1.0
    g0 = 1.0

    [time]
    t_max = 12.566
    samples = 128

    [output]
    quantities = observables state_snapshots

    [oracle]
    enabled = true
    tolerance = 1e-6

or a JSON object with the same sections, each an object of keys. Every
key, the initial state included, is checked at load, before anything is
written. Outputs are deterministic (sampling is seeded from [scenario]
seed) and every CSV starts with a comment naming the scenario and hash.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import classical as cls
from . import observables as obs
from .drives import DCDrive, FourierDrive, HarmonicDrive, TabulatedDrive
from .floquet import invariant_expectation, quasienergy_band
from .lattice import LatticeState, bloch_grid, coherence_parameters, make_state
from .oracle import OracleConfig, integrate_series
from .propagator import SingleBandDispersion, _eta_weight, evolve

__all__ = ["ConfigError", "Scenario", "load_scenario", "run_scenario",
           "compare_with_oracle", "localization_map", "band_table"]


class ConfigError(ValueError):
    """A scenario file failed validation; the message names section and key."""


def _fail(section: str, key: str, why: str):
    raise ConfigError(f"[{section}] {key}: {why}")


def _refail(section: str, exc: ValueError):
    """Re-raise a constructor's error, whose message starts with the key."""
    key, _, why = str(exc).partition(" ")
    _fail(section, key, why)


def _parse_ini(text: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _coerce(section: str, key: str, raw, kind):
    """Coerce an INI string (or JSON value) to the requested type."""
    try:
        if kind is bool:
            word = str(raw).strip().lower()
            value = raw if isinstance(raw, bool) else _BOOLS.get(word)
            if value is None:
                raise ValueError(f"not a boolean: {raw!r}")
            return value
        if kind is float:
            return _finite(float(raw))
        if kind is int:
            value = float(raw)
            if value != int(value):
                raise ValueError(f"not an integer: {raw!r}")
            return int(value)
        if kind is str:
            return str(raw).strip()
        if kind == "floats":
            if not isinstance(raw, (list, tuple)):
                raw = str(raw).replace(",", " ").split()
            return _finite([float(x) for x in raw])
        if kind == "strings":
            if isinstance(raw, (list, tuple)):
                return [str(x) for x in raw]
            return str(raw).split()
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(section, key, str(exc))
    raise AssertionError(f"unknown coercion {kind!r}")


def _finite(values):
    """A float or a list of floats, passed through only when all are finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("must be finite")
    return values


class _Section:
    def __init__(self, name: str, data: dict):
        self.name = name
        self.data = dict(data or {})
        self.seen: set = set()

    def get(self, key, kind, default=None, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                _fail(self.name, key, "required key missing")
            return default
        return _coerce(self.name, key, self.data[key], kind)

    def reject_unknown(self):
        unknown = set(self.data) - self.seen
        if unknown:
            _fail(self.name, sorted(unknown)[0], "unknown key")


@dataclass
class Scenario:
    """A validated scenario, ready to run."""

    name: str
    seed: int
    window: tuple
    state: LatticeState
    drive: object
    dispersion: object | None
    convention: str
    t_max: float
    samples: int
    quantities: tuple
    snapshot_times: tuple
    oracle_enabled: bool
    oracle_config: OracleConfig
    tolerance: float
    kappa_points: int
    map_range: tuple
    config_hash: str

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.samples)


_CLOSED_FORM_DRIVES = {
    "dc": (DCDrive, ("f0", "g0")),
    "harmonic": (HarmonicDrive, ("f0", "f1", "omega", "g0")),
    "fourier": (FourierDrive, ("f0", "modes", "omega", "g0")),
}


def _build_drive(sec: _Section, base_dir: Path):
    kind = sec.get("kind", str, required=True)
    if kind in _CLOSED_FORM_DRIVES:
        cls, keys = _CLOSED_FORM_DRIVES[kind]
        args = [tuple(sec.get(key, "floats", required=True)) if key == "modes"
                else sec.get(key, float, required=True) for key in keys]
        try:
            drive = cls(*args)
        except ValueError as exc:
            _refail("drive", exc)
    elif kind == "tabulated":
        f_file = sec.get("f_file", str, required=True)
        g_file = sec.get("g_file", str, required=True)
        periodic = sec.get("periodic", bool, default=False)
        try:
            drive = TabulatedDrive.from_files(base_dir / f_file, base_dir / g_file,
                                              periodic=periodic)
        except (OSError, ValueError) as exc:
            _fail("drive", "f_file", str(exc))
    else:
        _fail("drive", "kind", f"unknown drive kind {kind!r}")
    sec.reject_unknown()
    return drive


def load_scenario(path, seed=None, tolerance=None) -> Scenario:
    """Parse and validate a scenario file (INI sections or a JSON object).

    ``seed`` and ``tolerance`` override [scenario] seed and [oracle]
    tolerance and pass the same range checks; the hash is the file's.
    """
    path = Path(path)
    text = path.read_text()
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("JSON config must be an object of sections")
    else:
        raw = _parse_ini(text)
    unknown_sections = set(raw) - {"scenario", "lattice", "state", "drive",
                                   "dispersion", "time", "output", "oracle",
                                   "band", "localization_map"}
    if unknown_sections:
        raise ConfigError(f"unknown section [{sorted(unknown_sections)[0]}]")
    for section, keys in raw.items():
        if not isinstance(keys, dict):
            raise ConfigError(f"[{section}] section must be an object of keys")

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, default=str).encode()).hexdigest()[:12]

    sec_scen = _Section("scenario", raw.get("scenario", {}))
    name = sec_scen.get("name", str, default=path.stem)
    key_seed = sec_scen.get("seed", int, default=0)
    seed = key_seed if seed is None else int(seed)
    sec_scen.reject_unknown()
    if seed < 0:
        _fail("scenario", "seed", "must be non-negative")

    sec_lat = _Section("lattice", raw.get("lattice", {}))
    win = sec_lat.get("window", "floats", required=True)
    if len(win) != 2 or win[0] != int(win[0]) or win[1] != int(win[1]):
        _fail("lattice", "window", "expected two integers n_min n_max")
    window = (int(win[0]), int(win[1]))
    if window[1] < window[0]:
        _fail("lattice", "window", "n_max below n_min")
    ring = sec_lat.get("ring", bool, default=False)
    sec_lat.reject_unknown()

    sec_state = _Section("state", raw.get("state", {}))
    kind = sec_state.get("kind", str, required=True)
    if kind == "single_site":
        spec = {"kind": kind, "site": sec_state.get("site", int, default=0)}
    elif kind == "gaussian":
        spec = {"kind": kind,
                "center": sec_state.get("center", float, default=0.0),
                "sigma": sec_state.get("sigma", float, required=True),
                "kappa0": sec_state.get("kappa0", float, default=0.0)}
    elif kind == "amplitudes":
        values = sec_state.get("values", "floats", required=True)
        if len(values) % 2 != 0:
            _fail("state", "values", "expected re im pairs")
        spec = {"kind": kind, "values": [complex(values[i], values[i + 1])
                                         for i in range(0, len(values), 2)]}
    else:
        _fail("state", "kind", f"unknown state kind {kind!r}")
    sec_state.reject_unknown()

    if "drive" not in raw:
        raise ConfigError("[drive] section is required")
    drive = _build_drive(_Section("drive", raw["drive"]), path.parent)

    dispersion = None
    convention = "index"
    if "dispersion" in raw:
        sec_disp = _Section("dispersion", raw["dispersion"])
        couplings = sec_disp.get("couplings", "floats", required=True)
        convention = sec_disp.get("convention", str, default="index")
        if convention not in ("index", "power2"):
            _fail("dispersion", "convention", "must be 'index' or 'power2'")
        sec_disp.reject_unknown()
        try:
            dispersion = SingleBandDispersion(tuple(couplings))
        except ValueError as exc:
            _fail("dispersion", "couplings", str(exc))
        # the band scales the drive's phase by its largest harmonic weight
        weight = max((_eta_weight(m, convention) for m, g in
                      enumerate(dispersion.couplings) if g != 0.0), default=0.0)
        try:
            drive.check_scale(weight)
        except ValueError as exc:
            _refail("drive", exc)

    sec_time = _Section("time", raw.get("time", {}))
    t_max = sec_time.get("t_max", float, required=True)
    samples = sec_time.get("samples", int, required=True)
    if t_max <= 0:
        _fail("time", "t_max", "must be positive")
    if samples < 2:
        _fail("time", "samples", "need at least 2 samples")
    sec_time.reject_unknown()

    sec_out = _Section("output", raw.get("output", {}))
    quantities = tuple(sec_out.get("quantities", "strings",
                                   default=["observables"]))
    for q in quantities:
        if q not in _EMITTERS:
            _fail("output", "quantities", f"unknown quantity {q!r}")
        if dispersion is not None and q not in ("phase_integrals", "state_snapshots"):
            _fail("output", "quantities",
                  f"{q!r} is unavailable with a [dispersion] section "
                  "(closed-form moments are tight-binding only)")
        if q in ("band", "localization_report") and drive.resonance_order() is None:
            _fail("drive", "kind", f"{q!r} requires a resonant periodic drive")
    snapshot_times = tuple(sec_out.get("snapshot_times", "floats",
                                       default=[0.0, t_max]))
    if not all(0.0 <= s <= t_max for s in snapshot_times):
        _fail("output", "snapshot_times", "must lie in [0, t_max]")
    sec_out.reject_unknown()

    sec_orc = _Section("oracle", raw.get("oracle", {}))
    oracle_enabled = sec_orc.get("enabled", bool, default=False)
    boundary = sec_orc.get("boundary", str, default="ring" if ring else "open")
    dt = sec_orc.get("dt", float, default=None)
    err_pt = sec_orc.get("error_per_time", float, default=1e-8)
    leak_tol = sec_orc.get("leak_tolerance", float, default=1e-8)
    key_tolerance = sec_orc.get("tolerance", float, default=1e-6)
    tolerance = key_tolerance if tolerance is None else float(tolerance)
    sec_orc.reject_unknown()
    if not 0.0 < tolerance < np.inf:
        _fail("oracle", "tolerance", "must be positive")
    try:
        oracle_config = OracleConfig(boundary=boundary, dt=dt,
                                     error_per_time=err_pt,
                                     leak_tolerance=leak_tol)
    except ValueError as exc:
        _refail("oracle", exc)
    # the oracle runs a ring when either section asks for one
    n_sites = window[1] - window[0] + 1
    if (dispersion is not None and (ring or boundary == "ring")
            and n_sites < dispersion.order):
        _fail("dispersion", "couplings", f"band order {dispersion.order} "
              f"exceeds the {n_sites}-site ring")

    sec_band = _Section("band", raw.get("band", {}))
    kappa_points = sec_band.get("kappa_points", int, default=64)
    sec_band.reject_unknown()
    if kappa_points < 1:
        _fail("band", "kappa_points", "must be at least 1")

    sec_map = _Section("localization_map", raw.get("localization_map", {}))
    map_range = (sec_map.get("x_min", float, default=0.0),
                 sec_map.get("x_max", float, default=6.0),
                 sec_map.get("steps", int, default=121))
    sec_map.reject_unknown()
    if map_range[2] < 1:
        _fail("localization_map", "steps", "must be at least 1")

    # built last, so that a fault in any other section is reported first
    try:
        state = replace(make_state(spec, window), ring=ring)
    except ValueError as exc:
        _refail("state", exc)

    return Scenario(name=name, seed=seed, window=window, state=state,
                    drive=drive, dispersion=dispersion, convention=convention,
                    t_max=t_max, samples=samples, quantities=quantities,
                    snapshot_times=snapshot_times, oracle_enabled=oracle_enabled,
                    oracle_config=oracle_config, tolerance=tolerance,
                    kappa_points=kappa_points, map_range=map_range, config_hash=digest)


def _out_dir(out_dir) -> Path:
    out = Path(out_dir) if out_dir is not None else Path.cwd() / "driventb-out"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, scenario: Scenario, header: list, columns,
               comment: str = ""):
    """One row per entry of the equal-length columns, each value as %.17g."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    columns = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w") as fh:
        fh.write(f"# scenario={scenario.name} hash={scenario.config_hash}{comment}\n")
        fh.write(",".join(header) + "\n")
        # blocks of rows keep the Python floats and strings few at a time
        for start in range(0, columns[0].size, 256):
            block = [col[start:start + 256].tolist() for col in columns]
            fh.writelines([row % values for values in zip(*block)])


def _emit_observables(scenario: Scenario, out_dir: Path) -> list:
    coh = coherence_parameters(scenario.state)
    series = obs.observable_series(coh, scenario.drive, scenario.times)
    columns = (series.times, series.eta, series.chi.real, series.chi.imag,
               series.u, series.v, series.expect_N, series.var_N,
               series.expect_K.real, series.expect_K.imag)
    _write_csv(out_dir / "observables.csv", scenario,
               ["t", "eta", "re_chi", "im_chi", "u", "v", "expect_N", "var_N",
                "re_expect_K", "im_expect_K"], columns)
    return ["observables.csv"]


def _emit_snapshots(scenario: Scenario, out_dir: Path) -> list:
    names = [f"snapshot_{i:04d}.csv" for i in range(len(scenario.snapshot_times))]
    snaps = evolve(scenario.state, scenario.drive, np.array(scenario.snapshot_times),
                   dispersion=scenario.dispersion, convention=scenario.convention)
    for name, t, snap in zip(names, scenario.snapshot_times, snaps):
        c = snap.amplitudes
        _write_csv(out_dir / name, scenario, ["n", "re_c", "im_c", "prob"],
                   (snap.sites, c.real, c.imag, [abs(x) ** 2 for x in c.tolist()]),
                   comment=f" t={t:.17g} leak={snap.leak:.3e}")
    return names


def band_table(scenario: Scenario):
    """(kappa, quasienergy) closed-form rows for the scenario's drive."""
    band = quasienergy_band(scenario.drive)
    kappa = np.sort(bloch_grid(scenario.kappa_points))
    return kappa, band.epsilon(kappa)


def _emit_band(scenario: Scenario, out_dir: Path) -> list:
    try:  # `driventb band` reaches here with any drive
        kappa, eps = band_table(scenario)
    except ValueError as exc:
        raise ConfigError(f"[drive] kind: {exc}") from exc
    _write_csv(out_dir / "band.csv", scenario, ["kappa", "quasienergy"],
               (kappa, eps))
    return ["band.csv"]


def _emit_invariant(scenario: Scenario, out_dir: Path) -> list:
    n0 = coherence_parameters(scenario.state).n_mean
    times = scenario.times
    _write_csv(out_dir / "invariant.csv", scenario,
               ["t", "invariant", "n_mean_initial"],
               (times, invariant_expectation(scenario.state, scenario.drive, times),
                np.full(times.shape, n0)))
    return ["invariant.csv"]


def _emit_classical(scenario: Scenario, out_dir: Path, n_samples: int = 20000):
    ens = cls.ensemble_from_state(scenario.state, n_samples, seed=scenario.seed)
    _write_csv(out_dir / "ensemble.csv", scenario, ["p", "q", "weight"],
               (ens.p, ens.q, ens.weights))
    times = scenario.times
    _write_csv(out_dir / "classical.csv", scenario, ["t", "mean_N", "var_N"],
               (times, *cls.ensemble_moments(ens, scenario.drive, times)))
    return ["classical.csv", "ensemble.csv"]


def _emit_localization(scenario: Scenario, out_dir: Path) -> list:
    report = obs.localization_report(scenario.drive,
                                     coherence_parameters(scenario.state))
    payload = {"order": report.order, "gamma": report.gamma,
               "localized": report.localized, "degenerate": report.degenerate,
               "var_slope_coefficient": report.var_slope_coefficient,
               "nearest_zeros": list(report.nearest_zeros),
               "scenario": scenario.name, "hash": scenario.config_hash}
    path = out_dir / "localization_report.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return ["localization_report.json"]


# quantity -> emitter, in the order the outputs are written
_EMITTERS = {"phase_integrals": _emit_observables,
             "observables": _emit_observables,
             "state_snapshots": _emit_snapshots,
             "band": _emit_band,
             "invariant": _emit_invariant,
             "classical": _emit_classical,
             "localization_report": _emit_localization}


def run_scenario(config_path, out_dir=None, seed=None, tolerance=None) -> dict:
    """Execute a scenario; returns the summary dict (also written as JSON)."""
    scenario = load_scenario(config_path, seed=seed, tolerance=tolerance)
    out = _out_dir(out_dir)

    produced: list = []
    for emit in dict.fromkeys(emit for quantity, emit in _EMITTERS.items()
                              if quantity in scenario.quantities):
        produced += emit(scenario, out)

    summary = {"scenario": scenario.name, "hash": scenario.config_hash,
               "seed": scenario.seed, "outputs": produced, "status": "ok"}
    if scenario.oracle_enabled:
        report = _compare(scenario, out)
        summary["oracle"] = {
            "max_amplitude_deviation": report["max_amplitude_deviation"],
            "passed": report["passed"]}
        if not report["passed"]:
            summary["status"] = "oracle-divergence"
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def compare_with_oracle(config_path, out_dir=None, tolerance=None) -> dict:
    """Closed form vs brute-force integration over the scenario's time grid.

    Returns (and writes) a report with per-time maximum amplitude deviation
    and moment deviations, plus a pass/fail verdict at the tolerance.
    """
    return _compare(load_scenario(config_path, tolerance=tolerance),
                    _out_dir(out_dir))


def _moments(state: LatticeState) -> tuple:
    """(<N>, Var N) of a state's site distribution."""
    p = state.probabilities
    mean = float(np.sum(state.sites * p))
    return mean, float(np.sum(state.sites.astype(float) ** 2 * p)) - mean ** 2


def _compare(scenario: Scenario, out: Path) -> dict:
    state, times = scenario.state, scenario.times
    oracle_states = integrate_series(state, scenario.drive, times,
                                     config=scenario.oracle_config,
                                     dispersion=scenario.dispersion)
    closed_states = evolve(state, scenario.drive, times,
                           dispersion=scenario.dispersion,
                           convention=scenario.convention)
    per_time = []
    for t, ref, closed in zip(times, oracle_states, closed_states):
        (n_cl, var_cl), (n_ref, var_ref) = _moments(closed), _moments(ref)
        per_time.append({
            "t": float(t), "leak": closed.leak,
            "amplitude": float(np.max(np.abs(closed.amplitudes - ref.amplitudes))),
            "mean_N": abs(n_cl - n_ref), "var_N": abs(var_cl - var_ref)})
    worst = {key: max(row[key] for row in per_time)
             for key in ("amplitude", "mean_N", "var_N")}
    report = {"scenario": scenario.name, "hash": scenario.config_hash,
              "tolerance": scenario.tolerance, "per_time": per_time,
              "max_amplitude_deviation": worst["amplitude"],
              "max_mean_N_deviation": worst["mean_N"],
              "max_var_N_deviation": worst["var_N"],
              "passed": bool(worst["amplitude"] <= scenario.tolerance)}
    (out / "comparison.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def localization_map(config_path, out_dir=None) -> dict:
    """Sweep f1/omega for the scenario's harmonic drive, emitting gamma_n."""
    scenario = load_scenario(config_path)
    drive = scenario.drive
    if not isinstance(drive, HarmonicDrive):
        raise ConfigError("[drive] kind: localization map requires a harmonic drive")
    if drive.resonance_order() is None:
        raise ConfigError("[drive] f0: localization map requires a resonant drive")
    out = _out_dir(out_dir)
    x_min, x_max, steps = scenario.map_range
    xs = np.linspace(x_min, x_max, steps)
    gammas = [HarmonicDrive(drive.f0, x * drive.omega, drive.omega,
                            drive.g0).drift_rate() for x in xs]
    _write_csv(out / "localization_map.csv", scenario,
               ["f1_over_omega", "gamma"], (xs, gammas))
    return {"scenario": scenario.name, "points": int(steps),
            "file": "localization_map.csv"}
