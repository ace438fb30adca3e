import json

import numpy as np
import pytest
from click.testing import CliRunner

from driventb import gaussian_state
from driventb.cli import main
from driventb.scenario import (ConfigError, compare_with_oracle, load_scenario,
                               run_scenario)

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
        assert scenario.window == (-48, 48)
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
        assert scenario.window == (-48, 48)
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
        (lambda s: s + "\n[oracle]\ndt = -0.01\n", r"\[oracle\] dt:"),
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
    ], ids=["window", "samples", "t_max", "drive-kind", "quantity", "sigma",
            "missing-f0", "oracle-dt", "oracle-error_per_time",
            "oracle-leak_tolerance", "oracle-boundary", "drive-f0",
            "drive-omega", "drive-f1", "drive-modes-range",
            "drive-modes-finite", "drive-modes-band-weight",
            "drive-f1-band-weight", "t_max-nan", "window-inf", "samples-inf",
            "oracle-tolerance", "band-kappa_points", "snapshot-negative",
            "snapshot-past-t_max", "state-site-outside",
            "state-values-count", "state-values-zero", "state-sigma-truncated",
            "seed-negative", "map-steps-negative", "map-steps-zero"])
    def test_validation_errors_name_the_field(self, tmp_path, mangle, needle):
        path = write_cfg(tmp_path, mangle(BLOCH_CFG))
        with pytest.raises(ConfigError, match=needle):
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

    def test_oracle_ring_shorter_than_band_is_config_error(self, tmp_path):
        # an open lattice whose oracle runs on a ring still needs M sites
        cfg = BLOCH_CFG.replace("quantities = observables state_snapshots",
                                "quantities = state_snapshots")
        cfg = cfg.replace("window = -48 48", "window = 0 1")
        cfg += ("\n[dispersion]\ncouplings = 0 0 0 0.3\n"
                "\n[oracle]\nenabled = true\nboundary = ring\n")
        with pytest.raises(ConfigError, match=r"\[dispersion\] couplings"):
            load_scenario(write_cfg(tmp_path, cfg))


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

    def test_seed_override_is_checked(self, tmp_path):
        path = write_cfg(tmp_path, BLOCH_CFG)
        with pytest.raises(ConfigError, match=r"^\[scenario\] seed:"):
            run_scenario(path, out_dir=tmp_path / "out", seed=-1)
        assert not (tmp_path / "out").exists()
        scenario = load_scenario(path, seed=7, tolerance=1e-3)
        assert (scenario.seed, scenario.tolerance) == (7, 1e-3)


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
    @pytest.mark.parametrize("tolerance", [-1.0, float("nan")],
                             ids=["negative", "nan"])
    def test_tolerance_override_is_checked(self, tmp_path, entry, tolerance):
        path = write_cfg(tmp_path, BLOCH_CFG + "\n[oracle]\nenabled = true\n")
        with pytest.raises(ConfigError, match=r"^\[oracle\] tolerance: must be "
                                              r"positive$"):
            entry(path, out_dir=tmp_path / "out", tolerance=tolerance)
        assert not (tmp_path / "out").exists()


class TestCli:
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_bad_tolerance_exit_code(self, tmp_path, command, tolerance):
        runner = CliRunner()
        path = write_cfg(tmp_path, BLOCH_CFG + "\n[oracle]\nenabled = true\n")
        result = runner.invoke(main, [command, str(path), "--out-dir",
                                      str(tmp_path / "out"), "--tolerance",
                                      tolerance])
        assert result.exit_code == 1, result.output
        assert "[oracle] tolerance: must be positive" in result.output

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
