"""Declarative scenario runner: config in, CSV/JSON series out.

A scenario file describes a lattice window, an initial state, a drive (or
a band dispersion), a time grid, and the quantities to emit, as INI-style
sections of ``key = value`` pairs or as a JSON object with the same
sections, each an object of keys. ``_SCHEMA`` lists every section and key
with its type, default and range (README "Config format" shows them in INI
form). Every key, the initial state included, is checked at load, before
anything is written. Outputs are deterministic (sampling is seeded from
[scenario] seed) and every CSV starts with a comment naming the scenario
and hash.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import classical as cls
from . import observables as obs
from .drives import DCDrive, FourierDrive, HarmonicDrive, TabulatedDrive
from .floquet import invariant_expectation, quasienergy_band
from .lattice import (LatticeState, WindowLeakError, bloch_grid, coherence_parameters,
                      make_state)
from .oracle import _EDGE_SITES, OracleConfig, _first_dt, integrate_series
from .propagator import SingleBandDispersion, _chis, _pads, evolve

__all__ = ["ConfigError", "Scenario", "load_scenario", "run_scenario",
           "compare_with_oracle", "localization_map", "band_table"]


class ConfigError(ValueError):
    """A scenario file failed validation; the message names section and key."""


def _fail(section: str, key: str, why: str):
    raise ConfigError(f"[{section}] {key}: {why}")


def _refail(section: str, kind, exc: ValueError):
    """Re-raise a builder's error at the key its message starts with, if that
    is a key of the section (or of ``kind``), else whole at the section's kind."""
    keys = _SCHEMA[section] if kind is None else _SCHEMA[section]["kind"][kind][1]
    key, _, why = str(exc).partition(" ")
    if key not in keys:
        key, why = "kind", str(exc)
    _fail(section, key, why)


def _parse(text: str) -> dict:
    """The sections of JSON or INI text: _SCHEMA's, dicts, [drive] among them.
    Text that starts with "{" is JSON, so its top level is an object; any
    other text is INI, where a JSON array or scalar fails."""
    try:
        if text.lstrip().startswith("{"):
            raw = json.loads(text)
        else:
            parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
            parser.read_string(text)
            raw = {name: dict(parser.items(name)) for name in parser.sections()}
    except (json.JSONDecodeError, configparser.Error) as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    unknown_sections = set(raw) - set(_SCHEMA)
    if unknown_sections:
        raise ConfigError(f"unknown section [{sorted(unknown_sections)[0]}]")
    for section, keys in raw.items():
        if not isinstance(keys, dict):
            raise ConfigError(f"[{section}] section must be an object of keys")
    if "drive" not in raw:
        raise ConfigError("[drive] section is required")
    return raw


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _coerce(section: str, key: str, raw, kind):
    """Coerce an INI string (or JSON value) to the requested type."""
    try:
        if kind is bool:
            value = _BOOLS.get(str(raw).strip().lower())  # JSON true reads "True"
            if value is None:
                raise ValueError(f"not a boolean: {raw!r}")
            return value
        if kind is float:
            return _finite(_number(raw))
        if kind is int:
            _finite(_number(raw))  # the spelling and range of a float, then exactly
            value = Decimal(str(raw).strip() if isinstance(raw, (str, np.integer))
                            else raw)
            if value != value.to_integral_value():
                raise ValueError(f"not an integer: {raw!r}")
            return int(value)
        if kind in (str, Path):
            return kind(str(raw).strip())
        if kind == "floats":
            if not isinstance(raw, (list, tuple)):
                raw = str(raw).replace(",", " ").split()
            return _finite([_number(x) for x in raw])
        if kind == "strings":
            if isinstance(raw, (list, tuple)):
                return [str(x) for x in raw]
            return str(raw).split()
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(section, key, str(exc))
    raise AssertionError(f"unknown coercion {kind!r}")


def _number(raw) -> float:
    """float(raw), which refuses a JSON boolean rather than read it as 0 or 1."""
    if isinstance(raw, bool):
        raise TypeError(f"not a number: {raw!r}")
    return float(raw)


def _finite(values):
    """A float or a list of floats, passed through only when all are finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("must be finite")
    return values


_REQUIRED = object()  # the default of a key that must be given
_PHASE_MAX = 1e150  # |chi|^2 in the moments stays finite below it


def _window_fault(window):
    if len(window) != 2 or any(n != int(n) for n in window):
        return "expected two integers n_min n_max"
    if window[1] < window[0]:
        return "n_max below n_min"
    return (max(map(abs, window)) >= 2 ** 29 and "sites must satisfy |n| < 2^29"
            or window[1] - window[0] >= 2 ** 24 and "must hold at most 2^24 sites")


def _count(low: int, why: str):
    """The check of a grid size: at least ``low`` (else ``why``), at most 2^24."""
    return lambda n: n < low and why or n > 2 ** 24 and "must be at most 2^24"


def _tabulated(f_file: Path, g_file: Path, periodic: bool):
    """A table drive; a fault in either file is reported at f_file."""
    try:
        return TabulatedDrive.from_files(f_file, g_file, periodic=periodic)
    except (OSError, ValueError) as exc:
        raise ValueError(f"f_file {exc}") from exc


_FIELD, _FILE = (float, _REQUIRED, None), (Path, _REQUIRED, None)

# section -> key -> (coercion, default, check), where a check returns why a
# value is out of range, or a falsy value. [state] and [drive] map each kind
# to its builder and keys: a drive is built by keyword, a state by make_state.
_SCHEMA = {
    "scenario": {"name": (str, None, lambda v: len(v.splitlines()) > 1
                          and "must be one line"),  # default: the file's stem
                 "seed": (int, 0, lambda v: v < 0 and "must be non-negative")},
    "lattice": {"window": ("floats", _REQUIRED, _window_fault),
                "ring": (bool, False, None)},
    "state": {"kind": {
        "single_site": (make_state, {"site": (int, 0, None)}),
        "gaussian": (make_state, {"center": (float, 0.0, None), "sigma": _FIELD,
                                  "kappa0": (float, 0.0, None)}),
        "amplitudes": (make_state, {"values": ("floats", _REQUIRED, lambda v: len(v) % 2
                                               and "expected re im pairs")})}},
    "drive": {"kind": {
        "dc": (DCDrive, {"f0": _FIELD, "g0": _FIELD}),
        "harmonic": (HarmonicDrive, {"f0": _FIELD, "f1": _FIELD, "omega": _FIELD,
                                     "g0": _FIELD}),
        "fourier": (FourierDrive, {"f0": _FIELD, "modes": ("floats", _REQUIRED, None),
                                   "omega": _FIELD, "g0": _FIELD}),
        "tabulated": (_tabulated, {"f_file": _FILE, "g_file": _FILE,
                                   "periodic": (bool, False, None)})}},
    "dispersion": {"couplings": ("floats", _REQUIRED, lambda v: len(v) < 2
                                 and "need couplings g_0..g_M with M >= 1"),
                   "convention": (str, "index", lambda v: v not in ("index", "power2")
                                  and "must be 'index' or 'power2'")},
    "time": {"t_max": (float, _REQUIRED, lambda v: v <= 0 and "must be positive"),
             "samples": (int, _REQUIRED, _count(2, "need at least 2 samples"))},
    "output": {"quantities": ("strings", ("observables",), lambda qs: next(
        (f"unknown quantity {q!r}" for q in qs if q not in _EMITTERS), None)),
               "snapshot_times": ("floats", None, None)},  # default: 0 and t_max
    "oracle": {"enabled": (bool, False, None),
               "boundary": (str, None, None),  # the lattice's own, checked at load
               "error_per_time": (float, 1e-8, None),
               "leak_tolerance": (float, 1e-8, None), "tolerance": (
                   float, 1e-6, lambda v: not 0.0 < v < np.inf and "must be positive")},
    "band": {"kappa_points": (int, 64, _count(1, "must be at least 1"))},
    "localization_map": {"x_min": (float, 0.0, None), "x_max": (float, 6.0, None),
                         "steps": (int, 121, _count(1, "must be at least 1"))},
}


def _checked(section: str, key: str, value, check):
    why = check and check(value)
    if why:
        _fail(section, key, why)
    return value


def _read(data: dict, section: str, base: Path) -> dict:
    """A section's values by _SCHEMA, coerced, defaulted and checked key by key,
    "kind" first where it has kinds; a missing required key is reported before
    an unknown one, and a path is taken relative to ``base``."""
    keys = _SCHEMA[section]
    values = {}
    if "kind" in keys:
        kind = values["kind"] = _value(data, section, "kind", (str, _REQUIRED, None))
        if kind not in keys["kind"]:
            _fail(section, "kind", f"unknown {section} kind {kind!r}")
        keys = keys["kind"][kind][1]
    for key, spec in keys.items():
        values[key] = _value(data, section, key, spec)
        if spec[0] is Path:
            values[key] = base / values[key]
    unknown = sorted(set(data) - set(values))
    if unknown:
        _fail(section, unknown[0], "unknown key")
    return values


def _value(data: dict, section: str, key: str, spec: tuple):
    kind, default, check = spec
    if key not in data:
        if default is _REQUIRED:
            _fail(section, key, "required key missing")
        return default
    return _checked(section, key, _coerce(section, key, data[key], kind), check)


@dataclass
class Scenario:
    """A validated scenario, ready to run."""

    name: str
    seed: int
    state: LatticeState
    drive: object
    dispersion: object | None
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


def load_scenario(path, seed=None, tolerance=None) -> Scenario:
    """Parse and validate a scenario file (INI sections or a JSON object).

    ``seed`` and ``tolerance`` override [scenario] seed and [oracle]
    tolerance and pass the same range checks; the hash is the file's.
    """
    path = Path(path)
    raw = _parse(path.read_text())
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, default=str).encode()).hexdigest()[:12]
    cfg = {section: _read(raw.get(section, {}), section, path.parent)
           for section in _SCHEMA if section in raw or section != "dispersion"}
    for section, key, value in (("scenario", "seed", seed),
                                ("oracle", "tolerance", tolerance)):
        if value is not None:  # an override, checked like the key
            cfg[section][key] = _value({key: value}, section, key,
                                       _SCHEMA[section][key])
    # the checks that span keys
    window = tuple(int(n) for n in cfg["lattice"]["window"])
    ring = cfg["lattice"]["ring"]
    disp = cfg.get("dispersion")
    dispersion = disp and SingleBandDispersion(tuple(disp["couplings"]),
                                               disp["convention"])
    drive_kind = cfg["drive"].pop("kind")
    try:
        drive = _SCHEMA["drive"]["kind"][drive_kind][0](**cfg["drive"])
        if dispersion:  # the band scales the phase by its largest harmonic weight
            drive.check_scale(max((dispersion.weight(m) for m, g in
                                   enumerate(dispersion.couplings) if g != 0.0),
                                  default=0.0))
    except ValueError as exc:
        _refail("drive", drive_kind, exc)
    t_max = cfg["time"]["t_max"]
    quantities = tuple(cfg["output"]["quantities"])
    for q in quantities:
        if dispersion and q not in ("phase_integrals", "state_snapshots"):
            _fail("output", "quantities",
                  f"{q!r} is unavailable with a [dispersion] section "
                  "(closed-form moments are tight-binding only)")
        if q in ("band", "localization_report") and drive.resonance_order() is None:
            _fail("drive", "kind", f"{q!r} requires a resonant periodic drive")
        if q == "invariant" and ring:  # N has no meaning on a ring
            _fail("output", "quantities", f"{q!r} requires an open window")
    snapshot_times = cfg["output"]["snapshot_times"]
    snapshot_times = tuple([0.0, t_max] if snapshot_times is None else snapshot_times)
    if not all(0.0 <= s <= t_max for s in snapshot_times):
        _fail("output", "snapshot_times", "must lie in [0, t_max]")
    if "state_snapshots" in quantities and not snapshot_times:
        _fail("output", "snapshot_times", "must list at least one time")
    orc = cfg["oracle"]
    boundary = "ring" if ring else "open"
    if orc["boundary"] not in (None, boundary):  # the oracle marches the lattice
        _fail("oracle", "boundary", f"must be {boundary!r}, the [lattice]'s boundary")
    try:
        oracle_config = OracleConfig(orc["error_per_time"], orc["leak_tolerance"])
    except ValueError as exc:
        _refail("oracle", None, exc)
    n_sites = window[1] - window[0] + 1
    if dispersion and ring and n_sites < dispersion.order:
        _fail("dispersion", "couplings", f"band order {dispersion.order} "
              f"exceeds the {n_sites}-site ring")
    # built last, so that a fault in any other section is reported first
    spec = cfg["state"]
    if spec["kind"] == "amplitudes":  # re im pairs
        spec["values"] = np.array(spec["values"], dtype=float).view(complex)
    try:
        state = replace(_SCHEMA["state"]["kind"][spec["kind"]][0](spec, window),
                        ring=ring)
    except ValueError as exc:
        _refail("state", spec["kind"], exc)

    scenario = Scenario(
        name=path.stem if cfg["scenario"]["name"] is None else cfg["scenario"]["name"],
        seed=cfg["scenario"]["seed"], state=state, drive=drive,
        dispersion=dispersion, t_max=t_max,
        samples=cfg["time"]["samples"], quantities=quantities,
        snapshot_times=snapshot_times, oracle_enabled=orc["enabled"],
        oracle_config=oracle_config, tolerance=orc["tolerance"],
        kappa_points=cfg["band"]["kappa_points"],
        map_range=tuple(cfg["localization_map"].values()), config_hash=digest)
    _check_phases(scenario)
    # the quantities that apply the propagator, on the grids they apply it at
    if scenario.oracle_enabled:
        _check_oracle(scenario)
    elif "invariant" in quantities:
        _check_reach(scenario, scenario.times)
    if "state_snapshots" in quantities:
        _check_reach(scenario, np.array(snapshot_times))
    return scenario


def _check_phases(scenario: Scenario):
    """Fail at [time] t_max where a phase integral could pass _PHASE_MAX by t_max:
    products such as f0 t overflow there first, |chi_m| <= max|g_m| t, and
    (u, v) = (2 Re chi, -2 Im chi)."""
    drive, t = scenario.drive, np.array([scenario.t_max])
    couplings = scenario.dispersion.couplings if scenario.dispersion else ()
    try:
        with np.errstate(all="ignore"):  # an overflow is what the probe looks for
            probe = np.abs([drive.eta(t), *_chis(drive, t, scenario.dispersion).values(),
                            max([drive.max_hop, *map(abs, couplings)]) * t])
    except ValueError as exc:
        _fail("time", "t_max", str(exc))
    if not probe.max() <= _PHASE_MAX:
        _fail("time", "t_max", f"phases may reach {probe.max():.3g} > {_PHASE_MAX:g}")


def _check_reach(scenario: Scenario, times: np.ndarray):
    """Fail where the propagator cannot run on a time grid: at [time] t_max
    where ``_pads`` refuses its phases, and at [dispersion] couplings where an
    open window's pad would pass 2^24 sites."""
    phases = scenario.drive.eta(times), _chis(scenario.drive, times, scenario.dispersion)
    try:
        pad = int(_pads(*phases).max(initial=0))
    except ValueError as exc:
        _fail("time", "t_max", f"on the time grid, {exc}")
    if pad > 2 ** 24 and not scenario.state.ring:
        _fail("dispersion", "couplings", f"the propagator would pad the window by "
              f"{pad} sites on the time grid, past 2^24")


def _check_oracle(scenario: Scenario):
    """Fail at [time] t_max where the closed form or the oracle cannot reach
    t_max: the propagator's range on the time grid, the oracle's step bound."""
    _check_reach(scenario, scenario.times)
    try:
        _first_dt(scenario.drive, scenario.dispersion, scenario.t_max)
    except ValueError as exc:
        _fail("time", "t_max", str(exc))


def _out_dir(out_dir) -> Path:
    out = Path(out_dir) if out_dir is not None else Path.cwd() / "driventb-out"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, scenario: Scenario, header: list, columns,
               comment: str = ""):
    """One row per entry of the equal-length columns, each value as %.17g."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    rows = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    step = max(1, _CSV_BLOCK // len(header))
    with open(path, "w") as fh:
        fh.write(f"# scenario={scenario.name} hash={scenario.config_hash}{comment}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            text = _format_rows(block)
            if text is None:
                fh.writelines([row % tuple(values) for values in block.tolist()])
            else:
                fh.write(text.decode("ascii"))


# %.17g as array code. A finite x != 0 is D * 10^(e-16) with D the integer
# nearest |x| * 10^(16-e), 10^16 <= D < 10^17. The scale is a double-double
# hi + lo and the product Dekker's split one (Numer. Math. 18, 224, 1971),
# exact to ~1e-14 of a unit of D.
_EMIN, _EMAX = -282, 282  # the decimal exponents e with a scale in the table
_CSV_BLOCK = 4096  # values per _format_rows call


@functools.cache
def _csv_tables():
    """The tables of _format_rows, built on the first write.

    ``scale``: hi, its Dekker halves and lo of 10^(16-e), e from _EMIN.
    ``words``: 0..9999 as four ASCII digits, one uint32 each; ``zeros``: the
    trailing zeros of each. ``expo``: the bytes "e±ddd" of each e, a NUL
    for the leading digit of a 2-digit exponent. ``keep``: 0xff/0 masks of
    the 48-byte template, by sign, %g layout and significant digits.
    ``layout``: 17 × the layout of each e, e + 4 for fixed point (e in
    [-4, 16]), 21 for the exponent form.
    """
    hi, lo = [], []
    for e in range(_EMIN, _EMAX + 1):  # int / int rounds correctly
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi.append(num / den)
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    split = 134217729.0 * hi
    head = split - (split - hi)
    i = np.arange(10000)
    ascii = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    ascii += ord("0")
    words = ascii.astype(np.uint8).view(np.uint32).ravel()
    zeros = sum((i % m == 0).astype(np.intp) for m in (10, 100, 1000, 10000))
    e = np.arange(_EMIN, _EMAX + 1)
    expo = np.column_stack([np.full(e.shape, ord("e")),
                            np.where(e < 0, ord("-"), ord("+")),
                            ascii[np.abs(e), 1:]]).astype(np.uint8)
    expo[np.abs(e) < 100, 2] = 0
    # template: sign | "000" D | "." | "000" D | "e±ddd" | separator
    sign, layout, digits = [a.reshape(-1, 1) for a in np.meshgrid(
        [0, 1], np.arange(22), np.arange(1, 18), indexing="ij")]
    exp = np.where(layout < 21, layout - 4, 0)  # the exponent form reads as e = 0
    j = np.arange(20)
    lead = 3 - (exp < 0)  # "0" for e < 0, else the first digit
    frac = 4 + exp  # where the digits after the point start
    keep = np.hstack([sign == 1, (j >= lead) & (j <= lead + np.maximum(exp, 0)),
                      frac < 3 + digits, (j >= frac) & (j < 3 + digits),
                      np.repeat(layout == 21, 5, axis=1), np.ones_like(sign)])
    return ((hi, head, hi - head, np.array(lo)), words, zeros, expo,
            (keep * 255).astype(np.uint8).view("V48").ravel(),
            np.where((e >= -4) & (e <= 16), e + 4, 21) * 17)


def _format_rows(block: np.ndarray):
    """The bytes of ``"%.17g,...,%.17g\\n" % row`` for each row of a float
    block, or None where a value needs Python's formatter: not finite,
    |x| outside [1e-280, 1e280], or within 1e-9 of a rounding tie."""
    x = block.ravel()
    if not np.isfinite(x).all():  # first: arithmetic on a signaling NaN warns
        return None
    a = np.abs(x)
    zero = a == 0.0
    a += 2.0 * zero  # any value off a power of ten; its digits are zeroed below
    if not (a.min() >= 1e-280 and a.max() <= 1e280):
        return None
    (hi, head, tail, lo), words, zeros, expo, keep, layout = _csv_tables()
    i = (np.floor(np.log10(a)) - _EMIN).astype(np.intp)

    def product(a, i):  # V = p + b = a * 10^(16-e)
        split = 134217729.0 * a
        ah = split - (split - a)
        at = a - ah
        h, t = head.take(i), tail.take(i)
        p = a * hi.take(i)
        return p, ((ah * h - p) + ah * t + at * h) + at * t + a * lo.take(i)

    p, b = product(a, i)
    # log10 may miss e by one; decide from (p, b), as a rounded D of 10^16
    # can stand for a V just below it
    fix = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if fix.size:
        pf, bf = p[fix], b[fix]
        i[fix] += (((pf > 1e17) | ((pf == 1e17) & (bf >= 0))).astype(np.intp)
                   - ((pf < 1e16) | ((pf == 1e16) & (bf < 0))))
        p[fix], b[fix] = product(a[fix], i[fix])
    r = np.rint(b)  # p >= 2^53 is an integer: D = p + r
    if np.max(np.abs(b - r)) > 0.5 - 1e-9:
        return None
    d = p.astype(np.int64) + r.astype(np.int64)
    top = np.flatnonzero(d == 10 ** 17)
    d[top] = 10 ** 16
    i[top] += 1
    d[zero] = 0
    upper = d // 10 ** 8  # D in 1 + 4 × 4 digits
    lower = d - upper * 10 ** 8
    first = upper // 10 ** 8
    mid = upper - first * 10 ** 8
    q, s = mid // 10 ** 4, lower // 10 ** 4
    group = [first, q, mid - q * 10 ** 4, s, lower - s * 10 ** 4]
    trailing = zeros.take(group[4])
    more = np.flatnonzero(trailing == 4)
    for g in group[3:0:-1]:
        add = zeros.take(g.take(more))
        trailing[more] += add
        more = more[add == 4]
    n = x.size
    ascii = words.take(np.stack(group, axis=1)).view(np.uint8)
    kind = layout.take(i)
    tpl = np.empty((n, 48), dtype=np.uint8)
    tpl[:, 0] = ord("-")
    tpl[:, 1:21] = ascii
    tpl[:, 21] = ord(".")
    tpl[:, 22:42] = ascii
    sci = np.flatnonzero(kind == 21 * 17)
    tpl[sci, 42:47] = expo[i[sci]]
    sep = tpl.reshape(block.shape + (48,))[:, :, 47]
    sep[:, :-1] = ord(",")
    sep[:, -1] = ord("\n")
    key = kind + np.signbit(x) * (22 * 17) + (16 - trailing)
    tpl &= keep.take(key).view(np.uint8).reshape(n, 48)
    return tpl.tobytes().translate(None, b"\0")


def _emit_phase_integrals(scenario: Scenario, out_dir: Path) -> list:
    times, drive = scenario.times, scenario.drive
    eta, chis = drive.eta(times), _chis(drive, times, scenario.dispersion)
    _write_csv(out_dir / "phase_integrals.csv", scenario,
               ["t", "eta", *(f"{part}_chi_{m}" for m in chis for part in ("re", "im"))],
               (times, eta,
                *(part for chi in chis.values() for part in (chi.real, chi.imag))))
    return ["phase_integrals.csv"]


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
                   dispersion=scenario.dispersion)
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


def _emit_band(scenario: Scenario, out_dir) -> list:
    try:  # `driventb band` reaches here with any drive, before out_dir is made
        kappa, eps = band_table(scenario)
    except ValueError as exc:
        raise ConfigError(f"[drive] kind: {exc}") from exc
    _write_csv(_out_dir(out_dir) / "band.csv", scenario, ["kappa", "quasienergy"],
               (kappa, eps))
    return ["band.csv"]


def _emit_invariant(scenario: Scenario, out_dir: Path, values) -> list:
    n0 = coherence_parameters(scenario.state).n_mean
    _write_csv(out_dir / "invariant.csv", scenario, ["t", "invariant", "n_mean_initial"],
               (scenario.times, values, np.full(values.shape, n0)))
    return ["invariant.csv"]


def _emit_classical(scenario: Scenario, out_dir: Path):
    ens = cls.ensemble_from_state(scenario.state, 20000, seed=scenario.seed)
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


# quantity -> emitter, in the order the outputs are written; run_scenario
# computes the invariant's values first, as their window leak check can fail
_EMITTERS = {"phase_integrals": _emit_phase_integrals,
             "observables": _emit_observables,
             "state_snapshots": _emit_snapshots,
             "band": _emit_band,
             "invariant": _emit_invariant,
             "classical": _emit_classical,
             "localization_report": _emit_localization}


def run_scenario(config_path, out_dir=None, seed=None, tolerance=None) -> dict:
    """Execute a scenario; returns the summary dict (also written as JSON)."""
    scenario = load_scenario(config_path, seed=seed, tolerance=tolerance)
    # the invariant and the oracle run first, so that a failing run writes nothing
    emitters = {q: emit for q, emit in _EMITTERS.items() if q in scenario.quantities}
    if "invariant" in emitters:
        values = invariant_expectation(scenario.state, scenario.drive, scenario.times)
        emitters["invariant"] = functools.partial(_emit_invariant, values=values)
    report = _compare(scenario, out_dir) if scenario.oracle_enabled else None
    out = _out_dir(out_dir)

    produced: list = []
    for emit in emitters.values():
        produced += emit(scenario, out)

    summary = {"scenario": scenario.name, "hash": scenario.config_hash,
               "seed": scenario.seed, "outputs": produced, "status": "ok"}
    if report is not None:
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
    scenario = load_scenario(config_path, tolerance=tolerance)
    if not scenario.oracle_enabled:  # else load_scenario has checked it
        _check_oracle(scenario)
    return _compare(scenario, out_dir)


def _moments(state: LatticeState) -> tuple:
    """(<N>, Var N) of a state's site distribution."""
    p = state.probabilities
    mean = float(np.sum(state.sites * p))
    return mean, float(np.sum(state.sites.astype(float) ** 2 * p)) - mean ** 2


def _compare(scenario: Scenario, out_dir) -> dict:
    """The comparison report, written to ``out_dir`` (made only then)."""
    state, times, config = scenario.state, scenario.times, scenario.oracle_config
    closed_states = evolve(state, scenario.drive, times, dispersion=scenario.dispersion)
    if not state.ring:
        # the oracle's edge measure on the grid, before it marches the window
        p = np.array([s.probabilities for s in closed_states])
        edge = float(np.max(p[:, :_EDGE_SITES].sum(1) + p[:, -_EDGE_SITES:].sum(1)))
        if edge > config.leak_tolerance:
            raise WindowLeakError(f"boundary probability {edge:.3e} exceeds "
                                  f"{config.leak_tolerance:g}")
    oracle_states = integrate_series(state, scenario.drive, times, config=config,
                                     dispersion=scenario.dispersion)
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
    (_out_dir(out_dir) / "comparison.json").write_text(
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
    x_min, x_max, steps = scenario.map_range
    xs = np.linspace(x_min, x_max, steps)
    try:  # |f1/omega| is largest at one end of the sweep, where a fault lies
        gammas = [HarmonicDrive(drive.f0, x * drive.omega, drive.omega,
                                drive.g0).drift_rate() for x in xs]
    except ValueError as exc:
        _fail("localization_map", ("x_min", "x_max")[abs(x_max) >= abs(x_min)], str(exc))
    out = _out_dir(out_dir)
    _write_csv(out / "localization_map.csv", scenario,
               ["f1_over_omega", "gamma"], (xs, gammas))
    return {"scenario": scenario.name, "points": int(steps),
            "file": "localization_map.csv"}
