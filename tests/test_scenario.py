import json
import logging
import math
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from driventb import WindowLeakError, gaussian_state
from driventb.cli import main
from driventb.propagator import _chis
from driventb.scenario import (_EMITTERS, _SCHEMA, ConfigError, _refail,
                               _window_fault, compare_with_oracle, load_scenario,
                               localization_map, run_scenario)

BLOCH_CFG = """\
[scenario]
name = bloch
seed = 0

[lattice]
window = -48 48

[state]
kind = gaussian
center = 0
sigma = 6
kappa0 = 0.0

[drive]
kind = dc
f0 = 1.0
g0 = 1.0

[time]
t_max = 6.283185307179586
samples = 32

[output]
quantities = observables state_snapshots
snapshot_times = 0.0 6.283185307179586
"""

GAUSSIAN = "kind = gaussian\ncenter = 0\nsigma = 6\nkappa0 = 0.0\n"
HARMONIC = "kind = harmonic\nf1 = {f1}\nomega = {omega}"
FOURIER = "kind = fourier\nmodes = {modes}\nomega = 1"
BAND_M3 = "\n[dispersion]\ncouplings = 0 0.1 0 0.2\nconvention = {convention}\n"


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_ini_round_trip(self, tmp_path):
        scenario = load_scenario(write_cfg(tmp_path, BLOCH_CFG))
        assert scenario.name == "bloch"
        assert scenario.state.window == (-48, 48)
        assert scenario.samples == 32
        assert scenario.drive.f0 == 1.0

    def test_json_equivalent(self, tmp_path):
        payload = {
            "scenario": {"name": "bloch", "seed": 0},
            "lattice": {"window": [-48, 48]},
            "state": {"kind": "gaussian", "center": 0, "sigma": 6, "kappa0": 0.0},
            "drive": {"kind": "dc", "f0": 1.0, "g0": 1.0},
            "time": {"t_max": 6.283185307179586, "samples": 32},
            "output": {"quantities": ["observables"]},
        }
        path = write_cfg(tmp_path, json.dumps(payload), "scenario.json")
        scenario = load_scenario(path)
        assert scenario.state.window == (-48, 48)
        assert scenario.drive.g0 == 1.0

    @pytest.mark.parametrize("mangle,needle", [
        (lambda s: s.replace("window = -48 48", "window = 48 -48"), "window"),
        (lambda s: s.replace("samples = 32", "samples = 1"), "samples"),
        (lambda s: s.replace("t_max = 6.283185307179586", "t_max = -1"), "t_max"),
        (lambda s: s.replace("kind = dc", "kind = warp"), "kind"),
        (lambda s: s.replace("quantities = observables state_snapshots",
                             "quantities = entropy"), "quantities"),
        (lambda s: s.replace("sigma = 6", "sigma = -2"), "sigma"),
        (lambda s: s.replace("f0 = 1.0", "fo = 1.0"), "f0"),
        (lambda s: s + "\n[oracle]\ndt = -0.01\n", r"\[oracle\] dt: unknown key$"),
        (lambda s: s + "\n[oracle]\nerror_per_time = 0\n",
         r"\[oracle\] error_per_time:"),
        (lambda s: s + "\n[oracle]\nleak_tolerance = nan\n",
         r"\[oracle\] leak_tolerance:"),
        (lambda s: s + "\n[oracle]\nboundary = absorbing\n",
         r"\[oracle\] boundary:"),
        (lambda s: s.replace("f0 = 1.0", "f0 = nan"), r"\[drive\] f0:"),
        (lambda s: s.replace("kind = dc", HARMONIC.format(f1=1.0, omega=0)),
         r"\[drive\] omega:"),
        (lambda s: s.replace("kind = dc", HARMONIC.format(f1=2e6, omega=2)),
         r"\[drive\] f1:"),
        (lambda s: s.replace("kind = dc", FOURIER.format(modes="600 800")),
         r"\[drive\] modes:"),
        (lambda s: s.replace("kind = dc", FOURIER.format(modes="1 inf")),
         r"\[drive\] modes:"),
        # with a band of order 3 the drive's phase enters three times over
        (lambda s: s.replace("kind = dc", FOURIER.format(modes="400"))
         + BAND_M3.format(convention="index"), r"\[drive\] modes:.*weight 3"),
        (lambda s: s.replace("kind = dc", HARMONIC.format(f1=3e5, omega=1))
         + BAND_M3.format(convention="power2"), r"\[drive\] f1:.*weight 4"),
        # non-finite values fail at load, not as NaN outputs or a traceback
        (lambda s: s.replace("t_max = 6.283185307179586", "t_max = nan"),
         r"\[time\] t_max: must be finite"),
        (lambda s: s.replace("window = -48 48", "window = -16 inf"),
         r"\[lattice\] window: must be finite"),
        (lambda s: s.replace("samples = 32", "samples = inf"),
         r"\[time\] samples:"),
        (lambda s: s + "\n[oracle]\ntolerance = 0\n", r"\[oracle\] tolerance:"),
        (lambda s: s + "\n[band]\nkappa_points = 0\n",
         r"\[band\] kappa_points:"),
        (lambda s: s.replace("snapshot_times = 0.0", "snapshot_times = -1.0"),
         r"\[output\] snapshot_times:"),
        (lambda s: s.replace("snapshot_times = 0.0", "snapshot_times = 7.0"),
         r"\[output\] snapshot_times:"),
        (lambda s: s.replace("kind = gaussian", "kind = single_site\nsite = 49")
         .replace("center = 0\nsigma = 6\nkappa0 = 0.0\n", ""),
         r"\[state\] site:"),
        # the state is built at load, its constructors' errors named
        (lambda s: s.replace(GAUSSIAN, "kind = amplitudes\nvalues = 1 0 0 1\n"),
         r"\[state\] values:"),
        (lambda s: s.replace(GAUSSIAN, "kind = amplitudes\nvalues = "
                             + " ".join(["0"] * 194) + "\n"),
         r"\[state\] values:"),
        (lambda s: s.replace("sigma = 6", "sigma = 30"), r"\[state\] sigma:"),
        (lambda s: s.replace("seed = 0", "seed = -1"), r"\[scenario\] seed:"),
        (lambda s: s + "\n[localization_map]\nsteps = -3\n",
         r"\[localization_map\] steps:"),
        (lambda s: s + "\n[localization_map]\nsteps = 0\n",
         r"\[localization_map\] steps:"),
        # values at the edges of the supported range
        (lambda s: s.replace("center = 0", "center = 1e300"), r"\[state\] center:"),
        (lambda s: s.replace("sigma = 6", "sigma = 1e300"), r"\[state\] sigma:"),
        (lambda s: s.replace("sigma = 6", "sigma = 1e-300"), r"\[state\] sigma:"),
        (lambda s: s.replace("window = -48 48", "window = -48 536870912"),
         r"\[lattice\] window: sites must satisfy \|n\| < 2\^29"),
        (lambda s: s.replace("f0 = 1.0", "f0 = 1e40"),
         r"\[time\] t_max: on the time grid, eta must satisfy \|eta\| <="),
        (lambda s: s.replace("f0 = 1.0", "f0 = 1e300"), r"\[time\] t_max: phases"),
        (lambda s: s.replace("g0 = 1.0", "g0 = 1e300"), r"\[time\] t_max: phases"),
        (lambda s: s.replace("samples = 32", "samples = 1e300"),
         r"\[time\] samples: must be at most 2\^24"),
        (lambda s: s + "\n[oracle]\nboundary =\n", r"\[oracle\] boundary:"),
    ], ids=["window", "samples", "t_max", "drive-kind", "quantity", "sigma",
            "missing-f0", "oracle-dt", "oracle-error_per_time",
            "oracle-leak_tolerance", "oracle-boundary", "drive-f0",
            "drive-omega", "drive-f1", "drive-modes-range",
            "drive-modes-finite", "drive-modes-band-weight",
            "drive-f1-band-weight", "t_max-nan", "window-inf", "samples-inf",
            "oracle-tolerance", "band-kappa_points", "snapshot-negative",
            "snapshot-past-t_max", "state-site-outside",
            "state-values-count", "state-values-zero", "state-sigma-truncated",
            "seed-negative", "map-steps-negative", "map-steps-zero",
            "center-huge", "sigma-huge", "sigma-tiny", "window-past-2^29",
            "eta-past-float32", "eta-past-phase-range", "chi-squares-overflow",
            "samples-huge", "oracle-boundary-empty"])
    def test_validation_errors_name_the_field(self, tmp_path, mangle, needle):
        path = write_cfg(tmp_path, mangle(BLOCH_CFG))
        with pytest.raises(ConfigError, match=needle):
            load_scenario(path)

    @pytest.mark.parametrize("message,key", [
        ("sigma 3 is too wide", "sigma"), ("site 4 is a key of another kind", "kind"),
        ("Maximum allowed size exceeded", "kind")])
    def test_builder_errors_blame_only_keys_of_the_kind(self, message, key):
        with pytest.raises(ConfigError) as info:
            _refail("state", "gaussian", ValueError(message))
        why = message.partition(" ")[2] if key == "sigma" else message
        assert str(info.value) == f"[state] {key}: {why}"

    def test_name_must_be_one_line(self, tmp_path):
        payload = {"scenario": {"name": "two\nlines"}, "lattice": {"window": [-8, 8]},
                   "state": {"kind": "single_site"},
                   "drive": {"kind": "dc", "f0": 1.0, "g0": 1.0},
                   "time": {"t_max": 1.0, "samples": 4}}
        path = write_cfg(tmp_path, json.dumps(payload), "scenario.json")
        with pytest.raises(ConfigError, match=r"^\[scenario\] name: must be one line$"):
            load_scenario(path)

    @pytest.mark.parametrize("section,value", [
        ("scenario", 5), ("drive", ["dc"]), ("state", "gaussian"),
        ("oracle", None)], ids=["int", "list", "string", "null"])
    def test_json_section_must_be_an_object(self, tmp_path, section, value):
        payload = {
            "lattice": {"window": [-48, 48]},
            "state": {"kind": "gaussian", "sigma": 6},
            "drive": {"kind": "dc", "f0": 1.0, "g0": 1.0},
            "time": {"t_max": 6.0, "samples": 8},
        }
        payload[section] = value
        path = write_cfg(tmp_path, json.dumps(payload), "scenario.json")
        with pytest.raises(ConfigError, match=rf"^\[{section}\] section must "
                                              r"be an object of keys$"):
            load_scenario(path)

    @pytest.mark.parametrize("section,key,value", [
        ("time", "t_max", True), ("drive", "f0", True), ("state", "site", True),
        ("time", "samples", False), ("lattice", "window", [-8, True])],
        ids=["float", "drive-float", "int", "int-false", "floats"])
    def test_json_booleans_are_not_numbers(self, tmp_path, section, key, value):
        payload = {"lattice": {"window": [-8, 8]}, "state": {"kind": "single_site"},
                   "drive": {"kind": "dc", "f0": 1.0, "g0": 1.0},
                   "time": {"t_max": 1.0, "samples": 4}}
        payload[section][key] = value
        path = write_cfg(tmp_path, json.dumps(payload), "scenario.json")
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: not a "
                                              r"number: (True|False)$"):
            load_scenario(path)

    @pytest.mark.parametrize("text,needle", [
        ("[drive]\nkind = dc\n[[x", r"^config parse error: "),
        ('{"drive": {"kind": "dc"}', r"^config parse error: "),
        ("[1, 2]", r"^unknown section \[1, 2\]$"),  # a JSON array reads as INI
        ("5", r"^config parse error: "),
        ('{"warp": {}}', r"^unknown section \[warp\]$"),
        ("[time]\nt_max = 1\nsamples = 4\n", r"^\[drive\] section is required$")],
        ids=["ini-syntax", "json-syntax", "json-array", "json-number",
             "unknown-section", "no-drive"])
    def test_parse_errors(self, tmp_path, text, needle):
        with pytest.raises(ConfigError, match=needle):
            load_scenario(write_cfg(tmp_path, text))

    def test_unknown_key_beside_every_required_key(self, tmp_path):
        cfg = BLOCH_CFG.replace("g0 = 1.0", "g0 = 1.0\ng1 = 2.0")
        with pytest.raises(ConfigError, match=r"^\[drive\] g1: unknown key$"):
            load_scenario(write_cfg(tmp_path, cfg))

    def test_state_is_built_at_load(self, tmp_path):
        cfg = BLOCH_CFG.replace("window = -48 48", "window = -48 48\nring = true")
        state = load_scenario(write_cfg(tmp_path, cfg)).state
        expected = gaussian_state(0.0, 6.0, 0.0, (-48, 48))
        assert state.ring and state.window == (-48, 48)
        assert np.array_equal(state.amplitudes, expected.amplitudes)

    def test_dispersion_restricts_outputs(self, tmp_path):
        cfg = BLOCH_CFG + "\n[dispersion]\ncouplings = 0 0.5\n"
        with pytest.raises(ConfigError, match="observables"):
            load_scenario(write_cfg(tmp_path, cfg))

    def test_dispersion_with_snapshots_is_valid(self, tmp_path):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                "quantities = state_snapshots")
        cfg += "\n[dispersion]\ncouplings = 0 0.5\nconvention = index\n"
        scenario = load_scenario(write_cfg(tmp_path, cfg))
        assert scenario.dispersion is not None

    def test_ring_shorter_than_band_is_config_error(self, tmp_path):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                "quantities = state_snapshots")
        cfg = cfg.replace("window = -48 48", "window = 0 2\nring = true")
        cfg += "\n[dispersion]\ncouplings = 0 0 0 0 0.3\n"
        with pytest.raises(ConfigError, match=r"\[dispersion\] couplings"):
            load_scenario(write_cfg(tmp_path, cfg))

    @pytest.mark.parametrize("lattice,oracle", [
        ("window = -48 48\nring = true", "boundary = open"),
        ("window = -48 48", "enabled = true\nboundary = ring"),
    ], ids=["ring-lattice-open", "open-lattice-ring"])
    def test_oracle_boundary_must_match_the_lattice(self, tmp_path, lattice,
                                                    oracle):
        # the oracle marches the lattice it is given, enabled or not
        cfg = BLOCH_CFG.replace("window = -48 48", lattice) + f"\n[oracle]\n{oracle}\n"
        with pytest.raises(ConfigError, match=r"^\[oracle\] boundary: "):
            run_scenario(write_cfg(tmp_path, cfg), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_window_past_2_24_sites_fails_before_allocating(self, tmp_path):
        assert not _window_fault([-(1 << 23), (1 << 23) - 1])
        path = write_cfg(tmp_path, BLOCH_CFG.replace(
            "window = -48 48", f"window = {-(1 << 23)} {1 << 23}"))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError,
                               match=r"\[lattice\] window: must hold at most 2\^24"):
                load_scenario(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_kappa0_past_the_phase_range_names_kappa0(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG.replace("kappa0 = 0.0", "kappa0 = 1e308"))
        with pytest.raises(ConfigError, match=r"\[state\] kappa0: "):
            load_scenario(path)


class TestRunScenario:
    def test_outputs_and_schema(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG)
        out = tmp_path / "out"
        summary = run_scenario(path, out_dir=out)
        assert summary["status"] == "ok"
        obs_lines = (out / "observables.csv").read_text().splitlines()
        assert obs_lines[0].startswith("# scenario=bloch hash=")
        assert obs_lines[1] == ("t,eta,re_chi,im_chi,u,v,expect_N,var_N,"
                                "re_expect_K,im_expect_K")
        assert len(obs_lines) == 2 + 32
        snap_lines = (out / "snapshot_0000.csv").read_text().splitlines()
        assert snap_lines[1] == "n,re_c,im_c,prob"
        assert len(snap_lines) == 2 + 97
        summary_file = json.loads((out / "summary.json").read_text())
        assert summary_file["outputs"] == summary["outputs"]

    def test_bloch_oscillation_period(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG.replace("kappa0 = 0.0",
                                                     "kappa0 = 1.2"))
        out = tmp_path / "out"
        run_scenario(path, out_dir=out)
        data = np.genfromtxt(out / "observables.csv", delimiter=",",
                             skip_header=2)
        t, n_mean = data[:, 0], data[:, 6]
        # <N> returns to its initial value after one Bloch period
        assert abs(n_mean[-1] - n_mean[0]) < 1e-10
        assert np.max(np.abs(n_mean)) > 0.5  # it did oscillate

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                "quantities = observables classical")
        path = write_cfg(tmp_path, cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_scenario(path, out_dir=out_a)
        run_scenario(path, out_dir=out_b)
        for name in ("observables.csv", "classical.csv", "ensemble.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_invariant_output_is_constant(self, tmp_path):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                "quantities = invariant")
        out = tmp_path / "out"
        run_scenario(write_cfg(tmp_path, cfg), out_dir=out)
        data = np.genfromtxt(out / "invariant.csv", delimiter=",", skip_header=2)
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-7

    def test_invariant_on_a_ring_fails_before_writing(self, tmp_path):
        # N has no meaning on a ring; on this 16-site ring the values ran
        # 0, 0.513, 1.155, -0.190 at t = 0, 10, 20, 30, written as "ok"
        cfg = (BLOCH_CFG.replace("window = -48 48", "window = -8 7\nring = true")
               .replace(GAUSSIAN, "kind = single_site\nsite = 0\n")
               .replace("f0 = 1.0", "f0 = 0.0")
               .replace("t_max = 6.283185307179586", "t_max = 30")
               .replace("samples = 32", "samples = 4")
               .replace("quantities = observables state_snapshots", "quantities = invariant"))
        with pytest.raises(ConfigError, match=r"^\[output\] quantities: 'invariant' "
                                              r"requires an open window$"):
            run_scenario(write_cfg(tmp_path, cfg), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_localization_report_output(self, tmp_path):
        cfg = BLOCH_CFG.replace(
            "kind = dc\nf0 = 1.0\ng0 = 1.0",
            "kind = harmonic\nf0 = 1.0\nf1 = 3.831705970207512\nomega = 1.0\n"
            "g0 = 0.5")
        cfg = cfg.replace("quantities = observables state_snapshots",
                          "quantities = localization_report")
        out = tmp_path / "out"
        run_scenario(write_cfg(tmp_path, cfg), out_dir=out)
        report = json.loads((out / "localization_report.json").read_text())
        assert report["localized"] is True
        assert report["order"] == 1

    def test_band_output(self, tmp_path):
        cfg = BLOCH_CFG.replace(
            "kind = dc\nf0 = 1.0\ng0 = 1.0",
            "kind = harmonic\nf0 = 1.0\nf1 = 1.0\nomega = 1.0\ng0 = 0.25")
        cfg = cfg.replace("quantities = observables state_snapshots",
                          "quantities = band")
        out = tmp_path / "out"
        run_scenario(write_cfg(tmp_path, cfg), out_dir=out)
        data = np.genfromtxt(out / "band.csv", delimiter=",", skip_header=2)
        assert data.shape[1] == 2
        width = data[:, 1].max() - data[:, 1].min()
        assert width == pytest.approx(4 * 0.25 * 0.4400505857449335, abs=1e-3)

    @pytest.mark.parametrize("quantity", ["band", "localization_report"])
    def test_resonant_quantity_fails_before_writing(self, tmp_path, quantity):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                f"quantities = observables {quantity}")
        with pytest.raises(ConfigError, match=r"^\[drive\] kind:"):
            run_scenario(write_cfg(tmp_path, cfg), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    # dc with f0 = 1e-7 reaches 2|chi| = 1.9e7 by t = 1e7, past the Bessel range
    SLOW_DC = {"kind = dc\nf0 = 1.0": "kind = dc\nf0 = 1e-7",
               "t_max = 6.283185307179586": "t_max = 1e7",
               "snapshot_times = 0.0 6.283185307179586": "snapshot_times = 0 1e7"}

    PAST_BESSEL = (r"^\[time\] t_max: on the time grid, \|x\| = \S+ outside "
                   r"supported range \(< 1e\+06\)$")

    @pytest.mark.parametrize("quantities,oracle", [
        ("observables state_snapshots", False), ("invariant", False),
        ("observables", True)], ids=["snapshots", "invariant", "oracle"])
    def test_large_chi_fails_at_load(self, tmp_path, quantities, oracle):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                f"quantities = {quantities}")
        for old, new in self.SLOW_DC.items():
            cfg = cfg.replace(old, new)
        cfg += "\n[oracle]\nenabled = true\n" if oracle else ""
        path = write_cfg(tmp_path, cfg)
        # loading first: a run that got past it would march the oracle to 1e7
        with pytest.raises(ConfigError, match=self.PAST_BESSEL):
            load_scenario(path)
        with pytest.raises(ConfigError, match=self.PAST_BESSEL):
            run_scenario(path, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_large_chi_without_the_propagator_loads(self, tmp_path, monkeypatch):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                "quantities = observables")
        for old, new in self.SLOW_DC.items():
            cfg = cfg.replace(old, new)
        path = write_cfg(tmp_path, cfg)
        assert load_scenario(path).t_max == 1e7

        def no_march(*args, **kwargs):  # marching to t = 1e7 would take hours
            raise AssertionError("the oracle ran")

        monkeypatch.setattr("driventb.scenario.integrate_series", no_march)
        with pytest.raises(ConfigError, match=r"^\[time\] t_max:"):
            compare_with_oracle(path, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_phase_integrals_of_a_band(self, tmp_path):
        text = (CONFIG_DIR / "single_band_m3.cfg").read_text()
        text = text.replace("enabled = true", "enabled = false").replace(
            "quantities = state_snapshots", "quantities = phase_integrals state_snapshots")
        path = write_cfg(tmp_path, text)
        summary = run_scenario(path, out_dir=tmp_path / "out")
        assert summary["outputs"][0] == "phase_integrals.csv"
        assert not (tmp_path / "out" / "observables.csv").exists()
        lines = (tmp_path / "out" / "phase_integrals.csv").read_text().splitlines()
        assert lines[1] == "t,eta,re_chi_3,im_chi_3"
        data = np.loadtxt(lines[2:], delimiter=",")
        scenario = load_scenario(path)
        chi = _chis(scenario.drive, scenario.times, scenario.dispersion)[3]
        assert np.array_equal(data, np.column_stack(
            [scenario.times, scenario.drive.eta(scenario.times), chi.real, chi.imag]))

    def test_phase_integrals_of_tight_binding(self, tmp_path):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                "quantities = observables phase_integrals")
        summary = run_scenario(write_cfg(tmp_path, cfg), out_dir=tmp_path / "out")
        assert summary["outputs"] == ["phase_integrals.csv", "observables.csv"]
        phases, moments = ((tmp_path / "out" / name).read_text().splitlines()
                           for name in summary["outputs"])
        assert phases[1] == "t,eta,re_chi_1,im_chi_1"
        assert moments[1].startswith("t,eta,re_chi,im_chi,")
        assert [row.split(",") for row in phases[2:]] == [
            row.split(",")[:4] for row in moments[2:]]

    # 0, then 200 x 10: 2|chi_m| = 2e5 at t = 1e4 under f0 = 0, within the
    # Bessel range, but the bloch pad 4 + sum_m m N_m is 4,037,024,704 sites
    WIDE_BAND = BLOCH_CFG.replace("window = -48 48", "window = -32 32").replace(
        "kind = dc\nf0 = 1.0\ng0 = 1.0", "kind = dc\nf0 = 0.0\ng0 = 0.0").replace(
        "sigma = 6", "sigma = 2").replace(
        "quantities = observables state_snapshots", "quantities = state_snapshots"
    ).replace("snapshot_times = 0.0 6.283185307179586\n", "") + (
        "\n[dispersion]\ncouplings = 0" + " 10" * 200 + "\n")

    def test_band_pad_past_2_24_fails_at_load(self, tmp_path, monkeypatch):
        def no_apply(*args, **kwargs):
            raise AssertionError("the propagator ran")

        # the function run_scenario propagates with; the run goes first, so
        # that a run past a missing load check reaches this guard
        monkeypatch.setattr("driventb.scenario.evolve", no_apply)
        cfg = self.WIDE_BAND.replace("t_max = 6.283185307179586", "t_max = 1e4")
        path = write_cfg(tmp_path, cfg)
        with pytest.raises(ConfigError, match=r"^\[dispersion\] couplings:"):
            run_scenario(path, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match=r"^\[dispersion\] couplings: .*"
                                              r"by 4037024704 sites"):
            load_scenario(path)
        # at t_max = 1 the pad is 1.7e6 sites, and a ring is not padded at all
        assert load_scenario(write_cfg(tmp_path, self.WIDE_BAND.replace(
            "t_max = 6.283185307179586", "t_max = 1"))).t_max == 1.0
        assert load_scenario(write_cfg(tmp_path, cfg.replace(
            "window = -32 32", "window = -128 127\nring = true"))).t_max == 1e4

    def test_empty_snapshot_times_fail_before_writing(self, tmp_path):
        cfg = BLOCH_CFG.replace("snapshot_times = 0.0 6.283185307179586",
                                "snapshot_times =")
        with pytest.raises(ConfigError, match=r"^\[output\] snapshot_times: "
                                              r"must list at least one time$"):
            run_scenario(write_cfg(tmp_path, cfg), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_leaking_invariant_fails_before_writing(self, tmp_path):
        # a single site on 17 sites reaches the walls by t = 20 (leak 1.685e-4);
        # observables.csv comes before invariant.csv, yet nothing is written
        cfg = BLOCH_CFG.replace("window = -48 48", "window = -8 8").replace(
            GAUSSIAN, "kind = single_site\n").replace("f0 = 1.0", "f0 = 0.1").replace(
            "t_max = 6.283185307179586", "t_max = 20").replace(
            "samples = 32", "samples = 16").replace(
            "quantities = observables state_snapshots",
            "quantities = observables invariant").replace(
            "snapshot_times = 0.0 6.283185307179586\n", "")
        with pytest.raises(WindowLeakError, match=r"^window leak 1\.685e-04 exceeds 1e-08"):
            run_scenario(write_cfg(tmp_path, cfg), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw,value", [
        ("12345678901234567891", 12345678901234567891), ("1e3", 1000),
        ("1.2345678901234567891e19", 12345678901234567891), (" 7 ", 7),
        (12345678901234567891, 12345678901234567891), (2.0, 2)])
    def test_integer_keys_parse_exactly(self, tmp_path, raw, value):
        if isinstance(raw, str):
            path = write_cfg(tmp_path, BLOCH_CFG.replace("seed = 0", f"seed = {raw}"))
        else:
            path = write_cfg(tmp_path, json.dumps({
                "scenario": {"seed": raw}, "lattice": {"window": [-48, 48]},
                "state": {"kind": "gaussian", "sigma": 6},
                "drive": {"kind": "dc", "f0": 1.0, "g0": 1.0},
                "time": {"t_max": 6.0, "samples": 8}}), "scenario.json")
        assert load_scenario(path).seed == value

    @pytest.mark.parametrize("raw", ["1.5", "12345678901234567891.5", "1e-3"])
    def test_non_integers_are_rejected(self, tmp_path, raw):
        path = write_cfg(tmp_path, BLOCH_CFG.replace("seed = 0", f"seed = {raw}"))
        with pytest.raises(ConfigError, match=r"^\[scenario\] seed: not an integer"):
            load_scenario(path)

    def test_seed_override_is_checked(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG)
        with pytest.raises(ConfigError, match=r"^\[scenario\] seed:"):
            run_scenario(path, out_dir=tmp_path / "out", seed=-1)
        assert not (tmp_path / "out").exists()
        scenario = load_scenario(path, seed=7, tolerance=1e-3)
        assert (scenario.seed, scenario.tolerance) == (7, 1e-3)

    @pytest.mark.parametrize("seed,why", [
        (1.9, "not an integer: 1.9"),
        ("abc", "could not convert string to float: 'abc'"),
        (float("inf"), "must be finite"), (True, "not a number: True")],
        ids=["fraction", "text", "inf", "bool"])
    def test_seed_override_is_coerced_like_the_key(self, tmp_path, seed, why):
        path = write_cfg(tmp_path, BLOCH_CFG)
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(f'[scenario] seed: {why}')}$"):
            load_scenario(path, seed=seed)
        assert load_scenario(path, seed=np.int64(5)).seed == 5


class TestCompare:
    def test_dc_comparison_passes(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG)
        report = compare_with_oracle(path, out_dir=tmp_path / "out")
        assert report["passed"]
        assert report["max_amplitude_deviation"] < 1e-6
        assert report["per_time"][0]["amplitude"] == pytest.approx(0.0, abs=1e-12)

    def test_single_band_conventions(self, tmp_path):
        base = """\
[scenario]
name = m3
[lattice]
window = -40 40
[state]
kind = gaussian
sigma = 2.0
kappa0 = 0.3
[drive]
kind = dc
f0 = 1.0
g0 = 0.0
[dispersion]
couplings = 0 0 0 0.3
convention = {conv}
[time]
t_max = 1.3
samples = 4
[output]
quantities = state_snapshots
"""
        good = compare_with_oracle(
            write_cfg(tmp_path, base.format(conv="index"), "good.cfg"),
            out_dir=tmp_path / "a")
        bad = compare_with_oracle(
            write_cfg(tmp_path, base.format(conv="power2"), "bad.cfg"),
            out_dir=tmp_path / "b")
        assert good["max_amplitude_deviation"] < 1e-6
        assert bad["max_amplitude_deviation"] > 1e-2

    @pytest.mark.parametrize("entry", [run_scenario, compare_with_oracle])
    @pytest.mark.parametrize("tolerance,why", [(-1.0, "must be positive"),
                                               (float("nan"), "must be finite")],
                             ids=["negative", "nan"])
    def test_tolerance_override_is_checked(self, tmp_path, entry, tolerance, why):
        path = write_cfg(tmp_path, BLOCH_CFG + "\n[oracle]\nenabled = true\n")
        with pytest.raises(ConfigError, match=rf"^\[oracle\] tolerance: {why}$"):
            entry(path, out_dir=tmp_path / "out", tolerance=tolerance)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", [run_scenario, compare_with_oracle])
    def test_long_oracle_march_fails_at_load(self, tmp_path, monkeypatch, entry):
        # 2|chi| stays below 4, but the first pass would take 3e7 RK4 steps
        cfg = BLOCH_CFG.replace("t_max = 6.283185307179586", "t_max = 1e7")
        cfg = cfg.replace("snapshot_times = 0.0 6.283185307179586",
                          "snapshot_times = 0 1e7")
        path = write_cfg(tmp_path, cfg + "\n[oracle]\nenabled = true\n")

        def no_march(*args, **kwargs):  # marching to t = 1e7 would take hours
            raise AssertionError("the oracle ran")

        monkeypatch.setattr("driventb.scenario.integrate_series", no_march)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"^\[time\] t_max: the oracle's "
                                              r"first pass would take 3e\+07 "
                                              r"RK4 steps \(at most 1e\+07\)$"):
            entry(path, out_dir=tmp_path / "out")
        assert time.perf_counter() - start < 1.0
        assert not (tmp_path / "out").exists()

    def test_long_oracle_march_fails_without_the_oracle_enabled(self, tmp_path,
                                                                monkeypatch):
        # [oracle] enabled is off, so only compare_with_oracle checks the march
        cfg = BLOCH_CFG.replace("t_max = 6.283185307179586", "t_max = 1e7")
        cfg = cfg.replace("snapshot_times = 0.0 6.283185307179586",
                          "snapshot_times = 0 1e7")
        path = write_cfg(tmp_path, cfg)
        assert not load_scenario(path).oracle_enabled

        def no_march(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr("driventb.scenario.integrate_series", no_march)
        with pytest.raises(ConfigError, match=r"^\[time\] t_max: the oracle's "
                                              r"first pass would take 3e\+07 "
                                              r"RK4 steps \(at most 1e\+07\)$"):
            compare_with_oracle(path, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_enabled_oracle_is_checked_once(self, tmp_path, monkeypatch):
        import driventb.scenario as scenario

        path = CONFIG_DIR / "bloch_oscillation.cfg"
        loaded = load_scenario(path)
        assert loaded.oracle_enabled
        grids = []
        check_reach = scenario._check_reach

        def counting(scn, times):
            grids.append(len(times))
            check_reach(scn, times)

        monkeypatch.setattr(scenario, "_check_reach", counting)
        monkeypatch.setattr(scenario, "_compare", lambda scn, out: "compared")
        assert compare_with_oracle(path, out_dir=tmp_path) == "compared"
        # once on the time grid, once on the snapshot times
        assert grids == [loaded.samples, len(loaded.snapshot_times)]


class TestCli:
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("tolerance,why", [("-1", "must be positive"),
                                               ("nan", "must be finite")],
                             ids=["-1", "nan"])
    def test_bad_tolerance_exit_code(self, tmp_path, command, tolerance, why):
        runner = CliRunner()
        path = write_cfg(tmp_path, BLOCH_CFG + "\n[oracle]\nenabled = true\n")
        result = runner.invoke(main, [command, str(path), "--out-dir",
                                      str(tmp_path / "out"), "--tolerance",
                                      tolerance])
        assert result.exit_code == 1, result.output
        assert f"[oracle] tolerance: {why}" in result.output

    def test_run_and_compare_exit_codes(self, tmp_path):
        runner = CliRunner()
        path = write_cfg(tmp_path, BLOCH_CFG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(path), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert "wrote" in result.output

        result = runner.invoke(main, ["compare", str(path), "--out-dir",
                                      str(out)])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

        # an absurd tolerance forces the failure path (exit code 2)
        result = runner.invoke(main, ["compare", str(path), "--out-dir",
                                      str(out), "--tolerance", "1e-30"])
        assert result.exit_code == 2

    def test_config_error_exit_code(self, tmp_path):
        runner = CliRunner()
        path = write_cfg(tmp_path, BLOCH_CFG.replace("kind = dc", "kind = warp"))
        result = runner.invoke(main, ["run", str(path), "--out-dir",
                                      str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "kind" in result.output

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        runner = CliRunner()
        path = write_cfg(tmp_path, BLOCH_CFG)
        target = tmp_path / "from-env"
        monkeypatch.setenv("DRIVENTB_OUT_DIR", str(target))
        result = runner.invoke(main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        assert (target / "observables.csv").exists()

    def test_band_command(self, tmp_path):
        runner = CliRunner()
        cfg = BLOCH_CFG.replace(
            "kind = dc\nf0 = 1.0\ng0 = 1.0",
            "kind = harmonic\nf0 = 1.0\nf1 = 1.0\nomega = 1.0\ng0 = 0.25")
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        result = runner.invoke(main, ["band", str(path), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "band.csv").exists()

    def test_band_command_needs_a_resonant_drive(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG)
        result = CliRunner().invoke(main, ["band", str(path), "--out-dir",
                                           str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "[drive] kind" in result.output
        assert not (tmp_path / "out").exists()

    def test_bad_seed_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG)
        result = CliRunner().invoke(main, ["run", str(path), "--out-dir",
                                           str(tmp_path / "out"), "--seed", "-1"])
        assert result.exit_code == 1
        assert "[scenario] seed" in result.output
        assert not (tmp_path / "out").exists()

    def test_localization_map_command(self, tmp_path):
        runner = CliRunner()
        cfg = BLOCH_CFG.replace(
            "kind = dc\nf0 = 1.0\ng0 = 1.0",
            "kind = harmonic\nf0 = 1.0\nf1 = 1.0\nomega = 1.0\ng0 = 0.5")
        cfg += "\n[localization_map]\nx_min = 0\nx_max = 6\nsteps = 61\n"
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        result = runner.invoke(main, ["localization-map", str(path),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        data = np.genfromtxt(out / "localization_map.csv", delimiter=",",
                             skip_header=2)
        assert data.shape == (61, 2)
        # gamma crosses zero inside the sweep (first zero of J_1)
        assert data[:, 1].min() < 0.0 < data[:, 1].max()

    @pytest.mark.parametrize("drive,needle", [
        ("kind = dc\nf0 = 1.0\ng0 = 1.0",
         r"^\[drive\] kind: localization map requires a harmonic drive$"),
        ("kind = harmonic\nf0 = 1.5\nf1 = 1.0\nomega = 1.0\ng0 = 0.5",
         r"^\[drive\] f0: localization map requires a resonant drive$")],
        ids=["dc", "non-resonant"])
    def test_localization_map_needs_a_resonant_harmonic_drive(self, tmp_path, drive,
                                                              needle):
        path = write_cfg(tmp_path, BLOCH_CFG.replace("kind = dc\nf0 = 1.0\ng0 = 1.0",
                                                     drive))
        with pytest.raises(ConfigError, match=needle):
            localization_map(path, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
        result = CliRunner().invoke(main, ["localization-map", str(path),
                                           "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "[drive]" in result.output

    def test_run_exit_code_on_oracle_divergence(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG + "\n[oracle]\nenabled = true\n")
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", str(path), "--out-dir", str(out),
                                           "--tolerance", "1e-30"])
        assert result.exit_code == 2, result.output
        assert "oracle deviation above tolerance" in result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "oracle-divergence"
        assert not summary["oracle"]["passed"]

    @pytest.mark.parametrize("key,value", [("x_max", "1e7"), ("x_min", "-1e7")])
    def test_localization_map_range_fails_before_writing(self, tmp_path, key, value):
        cfg = BLOCH_CFG.replace(
            "kind = dc\nf0 = 1.0\ng0 = 1.0",
            "kind = harmonic\nf0 = 1.0\nf1 = 1.0\nomega = 1.0\ng0 = 0.5")
        cfg += f"\n[localization_map]\n{key} = {value}\n"
        path = write_cfg(tmp_path, cfg)
        with pytest.raises(ConfigError, match=rf"\[localization_map\] {key}: "):
            localization_map(path, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_ensemble(self, tmp_path):
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                "quantities = classical")
        path = write_cfg(tmp_path, cfg)
        runner = CliRunner()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["run", str(path), "--out-dir", str(out_a),
                                    "--seed", "1"]).exit_code == 0
        assert runner.invoke(main, ["run", str(path), "--out-dir", str(out_b),
                                    "--seed", "2"]).exit_code == 0
        a = (out_a / "ensemble.csv").read_bytes()
        b = (out_b / "ensemble.csv").read_bytes()
        assert a != b


CONFIG_DIR = __import__("pathlib").Path(__file__).resolve().parents[1] / "configs"


def assert_rerun_writes_the_same_bytes(path, tmp_path):
    run_scenario(path, out_dir=tmp_path / "a")
    run_scenario(path, out_dir=tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


class TestShippedConfigs:
    @pytest.mark.parametrize("config", sorted(
        path.name for path in CONFIG_DIR.glob("*.cfg")
        if not load_scenario(path).oracle_enabled))
    def test_rerun_writes_the_same_bytes(self, tmp_path, config):
        assert_rerun_writes_the_same_bytes(CONFIG_DIR / config, tmp_path)

    @pytest.mark.parametrize("config", ["single_band_m3.cfg",
                                        "single_band_m3_power2.cfg"])
    def test_band_rerun_writes_the_same_bytes(self, tmp_path, config):
        # the shipped band configs run the oracle; their closed-form
        # snapshots are rerun from a copy with the oracle off
        text = (CONFIG_DIR / config).read_text()
        assert "enabled = true" in text
        path = write_cfg(tmp_path, text.replace("enabled = true",
                                                "enabled = false"), config)
        assert load_scenario(path).dispersion is not None
        assert_rerun_writes_the_same_bytes(path, tmp_path)

    @pytest.mark.parametrize("config", ["single_band_m3.cfg",
                                        "single_band_m3_power2.cfg"])
    def test_band_rerun_with_the_oracle_writes_the_same_bytes(self, tmp_path,
                                                              config):
        assert load_scenario(CONFIG_DIR / config).oracle_enabled
        assert_rerun_writes_the_same_bytes(CONFIG_DIR / config, tmp_path)
        names = {path.name for path in (tmp_path / "a").iterdir()}
        assert {"comparison.json", "summary.json"} <= names

    def test_bloch_oscillation_with_oracle_gate(self, tmp_path):
        summary = run_scenario(CONFIG_DIR / "bloch_oscillation.cfg",
                               out_dir=tmp_path)
        assert summary["status"] == "ok"
        assert summary["oracle"]["passed"]

    def test_bloch_oscillation_compare_pins_its_static_march(self, tmp_path,
                                                             caplog):
        # a dc drive marches static, each step after a failed pair is sized
        # from the error that pair measured at the largest step it marched
        # (as h^5 in the norm drift), and the zero-length interval at t = 0
        # takes no step: 4 passes, 2286 steps
        with caplog.at_level(logging.DEBUG, logger="driventb.oracle"):
            report = compare_with_oracle(CONFIG_DIR / "bloch_oscillation.cfg",
                                         out_dir=tmp_path)
        assert report["passed"]
        (message,) = [r.getMessage() for r in caplog.records
                      if r.name == "driventb.oracle"]
        assert message.endswith(" 2286 steps marched")
        assert "; static march, " in message

    def test_dynamic_localization_pair(self, tmp_path):
        out_a = tmp_path / "locked"
        out_b = tmp_path / "twin"
        run_scenario(CONFIG_DIR / "dynamic_localization.cfg", out_dir=out_a)
        run_scenario(CONFIG_DIR / "dynamic_localization_twin.cfg", out_dir=out_b)

        locked = np.genfromtxt(out_a / "observables.csv", delimiter=",",
                               skip_header=2)
        t, var = locked[:, 0], locked[:, 7]
        one_period = var[t <= 2 * np.pi + 1e-9]
        assert var.max() < 4.0 * one_period.max()
        report = json.loads((out_a / "localization_report.json").read_text())
        assert report["localized"]

        twin = np.genfromtxt(out_b / "observables.csv", delimiter=",",
                             skip_header=2)
        gamma = 2 * 0.5 * 0.4400505857449335  # 2 g0 J_1(1)
        ratio = twin[-1, 7] / twin[-1, 0] ** 2
        assert ratio == pytest.approx(gamma ** 2 * 0.5, rel=0.05)
        assert not json.loads(
            (out_b / "localization_report.json").read_text())["localized"]

    @pytest.mark.parametrize("name,edge", [("dynamic_localization", "1.228e-06"),
                                           ("dynamic_localization_twin", "5.430e-01")])
    def test_compare_refuses_a_leaking_window_before_the_march(self, tmp_path,
                                                               monkeypatch, name, edge):
        # the closed form's probability on the oracle's edge sites at the grid
        # times; the oracle, marching 8 s and 20 s, found 1.236e-06 and 8.264e-01
        def no_march(*args, **kwargs):
            raise AssertionError("the oracle marched")

        monkeypatch.setattr("driventb.scenario.integrate_series", no_march)
        message = f"boundary probability {edge} exceeds 1e-08"
        with pytest.raises(WindowLeakError, match=f"^{message}$"):
            compare_with_oracle(CONFIG_DIR / f"{name}.cfg", out_dir=tmp_path)
        result = CliRunner().invoke(main, ["compare", str(CONFIG_DIR / f"{name}.cfg"),
                                           "--out-dir", str(tmp_path)])
        assert result.exit_code == 1 and f"Error: {message}" in result.output
        assert not (tmp_path / "comparison.json").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_failing_comparison_writes_nothing(self, tmp_path, command):
        # the window pre-check fails before the output directory or any
        # emitter's file is made, through the API and the CLI
        text = (CONFIG_DIR / "dynamic_localization.cfg").read_text()
        path = write_cfg(tmp_path, text + "\n[oracle]\nenabled = true\n")
        entry = run_scenario if command == "run" else compare_with_oracle
        with pytest.raises(WindowLeakError, match="^boundary probability "):
            entry(path, out_dir=tmp_path / "api")
        result = CliRunner().invoke(main, [command, str(path), "--out-dir",
                                           str(tmp_path / "cli")])
        assert result.exit_code == 1 and "boundary probability" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg"]

    def test_invariant_config(self, tmp_path):
        run_scenario(CONFIG_DIR / "invariant.cfg", out_dir=tmp_path)
        data = np.genfromtxt(tmp_path / "invariant.csv", delimiter=",",
                             skip_header=2)
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-7

    def test_quasienergy_band_config(self, tmp_path):
        run_scenario(CONFIG_DIR / "quasienergy_band.cfg", out_dir=tmp_path)
        data = np.genfromtxt(tmp_path / "band.csv", delimiter=",", skip_header=2)
        width = data[:, 1].max() - data[:, 1].min()
        assert width == pytest.approx(0.4400505857449335, abs=1e-3)

    def test_single_band_m3_conventions(self, tmp_path):
        good = compare_with_oracle(CONFIG_DIR / "single_band_m3.cfg",
                                   out_dir=tmp_path / "a")
        bad = compare_with_oracle(CONFIG_DIR / "single_band_m3_power2.cfg",
                                  out_dir=tmp_path / "b")
        assert good["passed"] and good["max_amplitude_deviation"] < 1e-6
        assert not bad["passed"]
        assert bad["max_amplitude_deviation"] > 1e-2


class TestTabulatedScenario:
    def test_run_with_tabulated_drive(self, tmp_path):
        tt = np.linspace(0.0, 2 * np.pi, 513)
        np.savetxt(tmp_path / "f.txt",
                   np.column_stack([tt, 1.0 - np.cos(tt)]))
        np.savetxt(tmp_path / "g.txt",
                   np.column_stack([tt, 0.5 * np.ones_like(tt)]))
        cfg = """\
[lattice]
window = -32 32
[state]
kind = gaussian
sigma = 4
[drive]
kind = tabulated
f_file = f.txt
g_file = g.txt
periodic = true
[time]
t_max = 12.0
samples = 16
[output]
quantities = observables
"""
        path = write_cfg(tmp_path, cfg, "tab.cfg")
        out = tmp_path / "out"
        summary = run_scenario(path, out_dir=out)
        assert summary["status"] == "ok"
        assert (out / "observables.csv").exists()

    def test_t_max_past_an_aperiodic_table_fails_at_load(self, tmp_path):
        tt = np.linspace(0.0, 4.0, 33)
        np.savetxt(tmp_path / "f.txt", np.column_stack([tt, np.ones_like(tt)]))
        np.savetxt(tmp_path / "g.txt", np.column_stack([tt, np.full(tt.shape, 0.5)]))
        cfg = """\
[lattice]
window = -16 16
[state]
kind = single_site
[drive]
kind = tabulated
f_file = f.txt
g_file = g.txt
[time]
t_max = 5.0
samples = 8
[output]
quantities = observables
"""
        path = write_cfg(tmp_path, cfg, "tab.cfg")
        out = tmp_path / "out"
        needle = r"^\[time\] t_max: t beyond the tabulated horizon$"
        with pytest.raises(ConfigError, match=needle):
            run_scenario(path, out_dir=out)
        result = CliRunner().invoke(main, ["run", str(path), "--out-dir", str(out)])
        assert result.exit_code == 1
        assert "[time] t_max: t beyond the tabulated horizon" in result.output
        assert not out.exists()

    def test_missing_table_file_is_config_error(self, tmp_path):
        cfg = """\
[lattice]
window = -8 8
[state]
kind = single_site
[drive]
kind = tabulated
f_file = nope.txt
g_file = nope.txt
[time]
t_max = 1.0
samples = 4
"""
        with pytest.raises(ConfigError, match="f_file"):
            load_scenario(write_cfg(tmp_path, cfg, "tab.cfg"))


def table_keys(section):
    """Every key _SCHEMA has for a section, the keys of all its kinds included."""
    keys = set(_SCHEMA[section])
    for _, kind_keys in _SCHEMA[section].get("kind", {}).values():
        keys |= set(kind_keys)
    return keys


def coercion(section, key):
    """The coercion kind of a key, in its section or in one of its kinds."""
    if key == "kind":
        return str
    if key in _SCHEMA[section]:
        return _SCHEMA[section][key][0]
    return next(keys[key][0] for _, keys in _SCHEMA[section]["kind"].values()
                if key in keys)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_matches_the_schema():
    block = README.read_text().split("```ini\n")[1].split("```")[0]
    parts = dict(re.findall(r"^\[(\w+)\][^\n]*\n(.*?)(?=^\[|\Z)", block, re.M | re.S))
    assert set(parts) == set(_SCHEMA)
    for section, text in parts.items():
        words = set(re.findall(r"\w+", text))
        assert table_keys(section) <= words, section
        assert set(re.findall(r"^(\w+) =", text, re.M)) <= table_keys(section), section


def test_readme_quick_start_runs(capsys):
    block = README.read_text().split("## Library quick start")[1]
    exec(block.split("```python\n")[1].split("```")[0], {})
    lines = capsys.readouterr().out.splitlines()
    deviation, two_chi, _, band_deviation = lines[:4]
    assert 1e-8 < float(deviation) < 1e-6  # the "~1e-7" beside it
    assert complex(two_chi) == 0
    assert 1e-9 < float(band_deviation) < 1e-8  # "~5e-9"
    assert len(lines) == 6


# The fuzzer: a valid config on at most 33 sites and 8 samples with the oracle
# off, then one to four keys drawn from _SCHEMA set to edge values or dropped.
EDGES = (1e300, -1e300, 1e-300, -1e-300, 0.0, -1.0, 0.5, math.nan, math.inf,
         -math.inf)
# Hypothesis favours the first choices: the sections with physics come first
SECTIONS = sorted(_SCHEMA, key=lambda name: name not in ("state", "drive", "time"))
WORDS = ("", "warp", "open", "ring", "index", "power2", "two\nlines",
         *_SCHEMA["state"]["kind"], *_SCHEMA["drive"]["kind"])
BASE_DRIVES = {"dc": {"f0": 1.0, "g0": 0.5},
               "harmonic": {"f0": 1.0, "f1": 1.5, "omega": 1.0, "g0": 0.5},
               "fourier": {"f0": 2.0, "modes": [0.5, 0.3], "omega": 1.0, "g0": 0.5},
               "tabulated": {"f_file": "f.txt", "g_file": "g.txt", "periodic": True}}
DROP = object()


def fuzzed_keys(cfg):
    """(section, key) for every key of _SCHEMA but [oracle] enabled; [state]
    and [drive] offer "kind" and the keys of the config's kind."""
    pairs = []
    for section in SECTIONS:
        keys = _SCHEMA[section]
        if "kind" in keys:
            kind = cfg.get(section, {}).get("kind")
            keys = ["kind", *keys["kind"].get(kind, (None, {}))[1]]
        pairs += [(section, key) for key in keys if key != "enabled"]
    return pairs


def edge_values(kind):
    """A strategy for the edge values of one coercion kind of _SCHEMA."""
    numbers = st.sampled_from(EDGES)
    return {float: numbers,
            int: st.one_of(numbers, st.sampled_from([2.5, 7])),
            bool: st.sampled_from([True, False, "maybe", 0.5]),
            str: st.sampled_from(WORDS),
            Path: st.sampled_from(["f.txt", "missing.txt", "garbage.txt", ""]),
            "floats": st.lists(numbers, max_size=3),
            "strings": st.lists(st.sampled_from([*_EMITTERS, "entropy"]), max_size=3),
            }[kind]


def base_config(draw):
    sites = draw(st.integers(1, 33))
    state_kind = draw(st.sampled_from(sorted(_SCHEMA["state"]["kind"])))
    drive_kind = draw(st.sampled_from(sorted(BASE_DRIVES)))
    cfg = {"scenario": {"name": "fuzz", "seed": draw(st.integers(0, 3))},
           "lattice": {"window": [-(sites // 2), sites - sites // 2 - 1],
                       "ring": draw(st.booleans())},
           "state": {"kind": state_kind, **{
               "single_site": {"site": 0},
               "gaussian": {"center": 0.0, "sigma": max(sites / 12, 0.1),
                            "kappa0": 0.3},
               "amplitudes": {"values": [1.0, 0.0] * sites}}[state_kind]},
           "drive": {"kind": drive_kind, **BASE_DRIVES[drive_kind]},
           "time": {"t_max": draw(st.sampled_from([1.0, 6.0, 30.0])),
                    "samples": draw(st.integers(2, 8))},
           "oracle": {"enabled": False}}
    quantities = ["phase_integrals", "state_snapshots"]
    if draw(st.booleans()):
        cfg["dispersion"] = {"couplings": [0.0, 0.3, 0.1], "convention": "index"}
    else:
        quantities += [q for q in _EMITTERS if q not in quantities]
    cfg["output"] = {"quantities": draw(st.lists(st.sampled_from(quantities),
                                                 min_size=1, max_size=3, unique=True))}
    return cfg


def write_ini(path, cfg):
    lines = []
    for section, keys in cfg.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if isinstance(value, list):
                value = " ".join(map(str, value))
            lines.append(f"{key} = {str(value).replace(chr(10), ' ')}")
    path.write_text("\n".join(lines) + "\n")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_edge_configs_run_or_fail_at_a_named_key(data):
    """run_scenario returns with every CSV value finite, or raises a
    ConfigError at a key of the table, or refuses a window too small for
    the evolved state (WindowLeakError)."""
    cfg = base_config(data.draw)
    for _ in range(data.draw(st.integers(1, 4))):
        section, key = data.draw(st.sampled_from(fuzzed_keys(cfg)))
        value = data.draw(st.one_of(edge_values(coercion(section, key)), st.just(DROP)))
        if value is DROP:
            cfg.get(section, {}).pop(key, None)
        else:
            cfg.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tt = np.linspace(0.0, 2 * np.pi, 65)
        np.savetxt(tmp / "f.txt", np.column_stack([tt, 1.0 + 0.5 * np.cos(tt)]))
        np.savetxt(tmp / "g.txt", np.column_stack([tt, np.full(tt.shape, 0.5)]))
        (tmp / "garbage.txt").write_bytes(b"\x00\xff not a table\n1 2 3\n")
        path = tmp / "fuzz.cfg"
        if data.draw(st.booleans()):
            path.write_text(json.dumps(cfg))
        else:
            write_ini(path, cfg)
        try:
            summary = run_scenario(path, out_dir=tmp / "out")
        except ConfigError as exc:
            match = re.match(r"\[(\w+)\] (\w+): ", str(exc))
            assert match and match[2] in table_keys(match[1]), str(exc)
            return
        except WindowLeakError:
            return
        for name in summary["outputs"]:
            if name.endswith(".csv"):
                rows = (tmp / "out" / name).read_text().splitlines()[2:]
                values = [float(x) for row in rows for x in row.split(",")]
                assert np.isfinite(values).all(), name
