import logging
import re
import tracemalloc

import numpy as np
import pytest

from driventb import (DCDrive, FourierDrive, HarmonicDrive, LatticeState,
                      OracleConfig, SingleBandDispersion, TabulatedDrive,
                      WindowLeakError, bessel_j, evolve, gaussian_state,
                      integrate, integrate_series, monodromy_spectrum,
                      quasienergy_band, single_site)
from driventb import oracle
from driventb.floquet import houston_state
from driventb.oracle import _CHUNK_STEPS, _TABLE_STEPS, _CoMoving, _march, _rk4
from helpers import dense_hamiltonian, dense_rk4, random_state

# an M = 3 band with complex couplings and an on-site term g_0
BAND_M3 = (0.15 - 0.1j, 0.4 - 0.2j, 0.1j, 0.3 + 0.05j)


def _record_marches(monkeypatch):
    """The step count of each checkpoint interval of every _march call (one
    per pass) from here on, in call order."""
    marches = []

    def recorded(psi0, times, counts, *args, **kwargs):
        marches.append(np.array(counts, dtype=int))
        return _march(psi0, times, counts, *args, **kwargs)

    monkeypatch.setattr("driventb.oracle._march", recorded)
    return marches


class TestIntegrate:
    def test_zero_hamiltonian_is_identity(self):
        s = gaussian_state(0, 2.0, 0.4, (-24, 24))
        out = integrate(s, DCDrive(0.0, 0.0), 3.0)
        assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-12

    def test_bloch_period_revival(self):
        s = single_site(0, (-16, 16))
        out = integrate(s, DCDrive(1.0, 1.0), 2 * np.pi)
        assert abs(out.overlap(s)) > 1.0 - 1e-7

    def test_field_free_populations(self):
        s = single_site(0, (-24, 24))
        out = integrate(s, DCDrive(0.0, 1.0), 1.0)
        expected = np.array([bessel_j(n, 2.0) ** 2 for n in out.sites])
        assert np.max(np.abs(out.probabilities - expected)) < 1e-7

    def test_norm_conserved(self):
        s = gaussian_state(0, 2.0, 1.2, (-32, 32))
        out = integrate(s, HarmonicDrive(1.0, 1.0, 1.0, 0.5), 7.0)
        assert abs(out.norm() - 1.0) < 1e-9

    def test_series_checkpoints_are_consistent(self):
        s = gaussian_state(0, 2.0, 0.3, (-32, 32))
        proto = DCDrive(1.0, 0.8)
        states = integrate_series(s, proto, [1.0, 2.0, 3.5])
        direct = integrate(s, proto, 3.5)
        assert np.max(np.abs(states[-1].amplitudes - direct.amplitudes)) < 2e-9

    def test_self_convergence_halving(self):
        # one more halving beyond the accepted step moves amplitudes < 1e-9
        s = gaussian_state(0, 2.0, 0.5, (-16, 16))
        proto = DCDrive(1.0, 1.0)
        sites = s.sites.astype(float)
        steps = 1000
        a = _march(s.amplitudes.astype(complex), [1.0], [steps], proto, sites,
                   False, None)[0][0]
        b = _march(s.amplitudes.astype(complex), [1.0], [2 * steps], proto, sites,
                   False, None)[0][0]
        assert np.max(np.abs(a - b)) < 1e-9

    def test_leak_raises_on_small_window(self):
        s = single_site(0, (-5, 5))
        with pytest.raises(WindowLeakError):
            integrate(s, DCDrive(0.0, 1.0), 3.0)

    def test_time_validation(self):
        s = single_site(0, (-4, 4))
        with pytest.raises(ValueError):
            integrate_series(s, DCDrive(1.0, 1.0), [1.0, 0.5])
        with pytest.raises(ValueError):
            integrate(s, DCDrive(1.0, 1.0), -1.0)

    @pytest.mark.parametrize("times", [[np.nan], [1.0, np.nan], [np.inf]],
                             ids=["nan", "trailing-nan", "inf"])
    def test_non_finite_times_are_rejected(self, times):
        s = single_site(0, (-8, 8))
        with pytest.raises(ValueError, match="^times must be finite, "
                                             "nondecreasing and nonnegative$"):
            integrate_series(s, DCDrive(1.0, 1.0), times)

    def test_empty_times_return_no_states(self):
        s = single_site(0, (-8, 8))
        assert integrate_series(s, DCDrive(1.0, 1.0), []) == []

    @pytest.mark.parametrize("field,value", [
        ("error_per_time", 0.0), ("error_per_time", -1e-8),
        ("error_per_time", np.inf), ("leak_tolerance", -1e-8),
        ("leak_tolerance", np.nan),
    ])
    def test_config_rejects_values_that_cannot_converge(self, field, value):
        # error_per_time = 0 would run all 12 halvings before failing
        with pytest.raises(ValueError, match=f"^{field} "):
            OracleConfig(**{field: value})

    def test_refinement_stalls_past_the_last_pair(self, monkeypatch):
        # one pair at 1e-14 per unit time is more than the first step can meet
        monkeypatch.setattr(oracle, "_MAX_REFINEMENTS", 1)
        s = gaussian_state(0, 2.0, 0.3, (-16, 16))
        with pytest.raises(RuntimeError, match="step refinement stalled"):
            integrate(s, DCDrive(1.0, 1.0), 0.5,
                      config=OracleConfig(error_per_time=1e-14))

    def test_zero_leak_tolerance_is_valid(self):
        assert OracleConfig(leak_tolerance=0.0).leak_tolerance == 0.0

    def test_logs_the_accepted_step(self, caplog):
        s = gaussian_state(0, 2.0, 0.3, (-16, 16))
        with caplog.at_level(logging.DEBUG, logger="driventb.oracle"):
            integrate(s, DCDrive(1.0, 0.8), 0.5)
        records = [r for r in caplog.records if r.name == "driventb.oracle"]
        assert len(records) == 1
        message = records[0].getMessage()
        for needle in ("accepted dt", "refinements", "error", "norm drift",
                       "edge probability"):
            assert needle in message

    @pytest.mark.parametrize("proto,march", [
        (DCDrive(1.0, 0.8), "static"),
        (HarmonicDrive(1.0, 0.7, 0.8, 0.5), "co-moving"),
    ], ids=["dc-open", "harmonic-open"])
    def test_logs_the_march_and_the_steps_marched(self, caplog, monkeypatch,
                                                  proto, march):
        s = gaussian_state(0, 2.0, 0.3, (-16, 16))
        times = [0.3, 0.5]
        marches = _record_marches(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="driventb.oracle"):
            integrate_series(s, proto, times)
        (message,) = [r.getMessage() for r in caplog.records
                      if r.name == "driventb.oracle"]
        refinements = int(re.search(r"after (\d+) refinements", message)[1])
        steps = sum(int(counts.sum()) for counts in marches)
        assert steps > 2 * refinements
        assert message.endswith(f"; {march} march, {steps} steps marched")


class _Stop(Exception):
    """Raised from a patched oracle helper to end a march before it steps."""


def _stop(*args, **kwargs):
    raise _Stop


class TestMarchBounds:
    def test_first_pass_step_bound(self, monkeypatch):
        s = gaussian_state(0, 2.0, 0.3, (-32, 32))
        monkeypatch.setattr("driventb.oracle._march", _stop)
        # the default dt is 1 / (2 g + f) = 1/3 here: 3e7 steps to t = 1e7
        with pytest.raises(ValueError, match=r"first pass would take 3e\+07"):
            integrate_series(s, DCDrive(1.0, 1.0), [1.0, 1e7])

    def test_every_pass_step_bound(self, monkeypatch):
        # the first pass fits in _MAX_STEPS, its check at twice the steps not
        s = gaussian_state(0, 2.0, 0.3, (-16, 16))
        marches = _record_marches(monkeypatch)
        monkeypatch.setattr("driventb.oracle._MAX_STEPS", 5)
        with pytest.raises(ValueError, match=r"^the oracle's pass 2 would take 6 "
                                             r"RK4 steps \(at most 5e\+00\)$"):
            integrate(s, DCDrive(1.0, 1.0), 1.0)
        assert [list(counts) for counts in marches] == [[3]]

    def test_a_diverged_pair_hits_the_pass_bound(self, monkeypatch):
        # RK4 at 40 times its stability limit overflows, and the step sized
        # from the error of that pair needs far more than _MAX_STEPS
        monkeypatch.setattr(oracle, "_default_dt", lambda *args: 2.0)
        s = single_site(0, (-40, 40))
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"^the oracle's pass 3 would take 1.46e\+31 "):
            integrate(s, DCDrive(0.0, 30.0), 20.0)

    def test_every_interval_doubles_its_steps(self, caplog, monkeypatch):
        # each interval is far shorter than the first step, so a halved step
        # would march one step per interval in both runs of the pair
        times = np.linspace(0.0, 1.0, 5000)[1:]
        marches = _record_marches(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="driventb.oracle"):
            integrate_series(single_site(0, (-16, 16)), DCDrive(1.0, 1.0), times)
        (message,) = [r.getMessage() for r in caplog.records
                      if r.name == "driventb.oracle"]
        assert float(re.search(r": error (\S+) ", message)[1]) > 0.0
        coarse, fine = marches
        assert np.array_equal(fine, 2 * coarse)

    def test_static_tables_run_rk4_once_per_run_of_equal_steps(self,
                                                                monkeypatch):
        # linspace spans differ in their last bits, so consecutive intervals
        # of one pass alternate between a few step sizes; a table of a static
        # pass runs RK4 on one column per run of equal steps, for its symbols
        # and for its wall block alike
        times = np.linspace(0.0, 2.0, 41)[1:]
        spans = np.diff(np.concatenate(([0.0], times)))
        columns = []

        def counted(z, one, mul):
            columns.append(z.shape[1] if mul is np.multiply else z.shape[-1])
            return _rk4(z, one, mul)

        monkeypatch.setattr("driventb.oracle._rk4", counted)
        marches = _record_marches(monkeypatch)
        integrate_series(gaussian_state(0, 2.0, 0.3, (-32, 32)),
                         DCDrive(1.0, 0.8), times)
        runs = []
        for counts in marches:
            steps = np.repeat(spans / counts, counts)
            for lo in range(0, steps.size, _TABLE_STEPS):
                h = steps[lo:lo + _TABLE_STEPS]
                runs.append(1 + int(np.count_nonzero(h[1:] != h[:-1])))
        assert 1 < len(set(spans)) < times.size // 4
        assert columns == [n for n in runs for _ in range(2)]
        assert 1 < max(runs) < _TABLE_STEPS

    @staticmethod
    def _second_table(monkeypatch):
        # the tables built so far; building a second raises _Stop
        tables = []
        table = _CoMoving.table

        def second_table(*args):
            if tables:
                raise _Stop
            tables.append(args)
            return table(*args)

        monkeypatch.setattr(_CoMoving, "table", second_table)
        return tables

    def test_constancy_test_memory_is_bounded(self, monkeypatch):
        # a 1e5-step dc interval on a 65-site window, stopped at its second
        # table: the samples that tell a static march are per table
        s = single_site(0, (-32, 32))
        tables = self._second_table(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(_Stop):
                _march(s.amplitudes.astype(complex), [1.0], [10 ** 5],
                       DCDrive(1.0, 1.0), s.sites.astype(float), False, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tables) == 1
        assert peak <= 1 << 20

    @pytest.mark.parametrize("proto", [
        DCDrive(1.0, 1.0), HarmonicDrive(1.0, 0.7, 0.8, 0.5),
    ], ids=["step-map", "co-moving"])
    def test_pass_memory_is_bounded_across_checkpoints(self, monkeypatch,
                                                       proto):
        # a 1e5-step pass over 1,000 checkpoints on a 65-site window, static
        # or not, stopped at its second table: no array may hold a value per
        # step of the whole pass
        s = single_site(0, (-32, 32))
        tables = self._second_table(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(_Stop):
                _march(s.amplitudes.astype(complex),
                       list(np.linspace(0.0, 1.0, 1001)[1:]), np.full(1000, 100),
                       proto, s.sites.astype(float), False, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tables) == 1
        assert peak <= 1 << 20

    def test_one_table_per_block_of_steps_across_checkpoints(self, monkeypatch):
        # tables of _TABLE_STEPS steps run across the checkpoint intervals
        marches = _record_marches(monkeypatch)
        passes = []
        table = _CoMoving.table

        def counted(*args):
            passes.append(len(marches))
            return table(*args)

        monkeypatch.setattr(_CoMoving, "table", counted)
        integrate_series(gaussian_state(0, 2.0, 0.3, (-24, 24)),
                         HarmonicDrive(1.0, 0.7, 0.8, 0.5),
                         np.linspace(0.3, 3.0, 10),
                         config=OracleConfig(error_per_time=1e-12))
        steps = [int(counts.sum()) for counts in marches]
        assert max(steps) > 2 * _TABLE_STEPS
        assert np.bincount(passes, minlength=len(marches) + 1)[1:].tolist() \
            == [-(-n // _TABLE_STEPS) for n in steps]

    @pytest.mark.parametrize("steps_flat,march", [
        (3 * _TABLE_STEPS + 5, "co-moving"),
        (_TABLE_STEPS, "co-moving"),
        (3 * _TABLE_STEPS + 10, "static"),
    ], ids=["late-block", "block-edge", "flat"])
    def test_constancy_test_sees_every_block(self, steps_flat, march):
        # f is flat for steps_flat of 3 _TABLE_STEPS + 10 steps of h = 1, then
        # ramps: a ramp that starts in any later table makes the pass co-moving
        nsteps = 3 * _TABLE_STEPS + 10
        tt = np.array([0.0, steps_flat, nsteps + 1.0])
        proto = TabulatedDrive(tt, np.array([0.9, 0.9, 1.5]), np.full(3, 0.6))
        memo = {"steps": 0, "marches": set()}
        s = single_site(0, (-8, 8))
        _march(s.amplitudes.astype(complex), [float(nsteps)], [nsteps], proto,
               s.sites.astype(float), False, None, memo)
        assert memo["marches"] == {march}


class TestPasses:
    """After a failed pair the next coarse step is sized from the largest
    step the coarse run marched, with the norm drift as h^5 on a static
    march and as h^4 on a co-moving one; only the fine run of a pair records
    edges. Open windows, from a Gaussian to under one Bloch period."""

    DRIVES = {"harmonic": (HarmonicDrive(1.0, 0.5, 0.7, 0.45), 0.9, "co-moving"),
              "fourier": (FourierDrive(1.0, (0.3, 0.4), 1.0, 0.45), 0.6,
                          "co-moving"),
              "dc": (DCDrive(1.0, 0.7), 0.9, "static")}

    def _integrate(self, monkeypatch, caplog, name):
        # (steps, edges asked for, edge returned, march kinds so far) of each
        # _march call, the integration's memo and its DEBUG line
        proto, frac, _ = self.DRIVES[name]
        runs, memos = [], []

        def recorded(psi0, times, counts, protocol, sites, ring, dispersion,
                     memo, *args, **kwargs):
            out = _march(psi0, times, counts, protocol, sites, ring,
                         dispersion, memo, *args, **kwargs)
            runs.append((int(np.sum(counts)), kwargs.get("edges", True), out[1],
                         set(memo["marches"])))
            memos.append(memo)
            return out

        monkeypatch.setattr("driventb.oracle._march", recorded)
        with caplog.at_level(logging.DEBUG, logger="driventb.oracle"):
            integrate_series(gaussian_state(0, 2.5, 0.2, (-40, 40)), proto,
                             np.linspace(0.0, frac * 2 * np.pi / proto.f0, 10)[1:])
        (message,) = [r.getMessage() for r in caplog.records
                      if r.name == "driventb.oracle"]
        (memo,) = {id(m): m for m in memos}.values()
        return runs, memo, message

    @pytest.mark.parametrize("name", list(DRIVES))
    def test_accepts_after_two_refinements(self, monkeypatch, caplog, name):
        runs, memo, message = self._integrate(monkeypatch, caplog, name)
        passes = memo["passes"]
        assert len(passes) == 4 if name != "dc" else len(passes) <= 4
        assert [steps for steps, *_ in passes] == [steps for steps, *_ in runs]
        for before, (steps, error, drift) in zip([None] + passes, passes):
            assert (error is None) == (drift is None)
            if error is not None:
                assert steps == 2 * before[0]
        proto, frac, _ = self.DRIVES[name]
        *_, (steps, error, drift) = passes
        assert error < 1e-8 * frac * 2 * np.pi / proto.f0 and drift < 1e-9
        listed = ", ".join(str(n) if e is None else f"{n} ({e:.3g}, {d:.3g})"
                           for n, e, d in passes)
        assert f"; passes (error, drift) {listed}; " in message

    @pytest.mark.parametrize("name", ["harmonic", "dc"])
    def test_pairs_take_one_march_kind_and_coarse_runs_record_no_edges(
            self, monkeypatch, caplog, name):
        runs, memo, _ = self._integrate(monkeypatch, caplog, name)
        kind = self.DRIVES[name][2]
        assert all(kinds == {kind} for *_, kinds in runs)
        for (_, edges, edge, _), (_, error, _) in zip(runs, memo["passes"]):
            assert edges == (error is not None)
            assert (edge > 0.0) == edges


class TestRing:
    def test_bloch_wave_follows_houston_closed_form(self):
        # the seam-twisted ring must reproduce the infinite-lattice motion
        # of a Bloch wave at arbitrary (incommensurate) times
        L = 16
        proto = HarmonicDrive(1.0, 0.8, 1.0, 0.4)
        kappa = 2 * np.pi * 3 / L
        psi0 = houston_state(kappa, proto, 0.0, (0, L - 1), ring=True)
        t = 2.153
        num = integrate(psi0, proto, t)
        ref = houston_state(kappa, proto, t, (0, L - 1), ring=True)
        assert np.max(np.abs(num.amplitudes - ref.amplitudes)) < 1e-7

    def test_bloch_wave_follows_houston_closed_form_across_checkpoints(self):
        # each checkpoint interval starts under the seam flux e^{-i L eta_t}
        # reached so far, which L eta(1.0) ~ 5.2 rad makes far from trivial
        L = 16
        proto = HarmonicDrive(1.0, 0.8, 1.0, 0.4)
        kappa = 2 * np.pi * 3 / L
        psi0 = houston_state(kappa, proto, 0.0, (0, L - 1), ring=True)
        times = [1.0, 2.153, 3.4]
        states = integrate_series(psi0, proto, times)
        for t, num in zip(times, states):
            ref = houston_state(kappa, proto, t, (0, L - 1), ring=True)
            assert np.max(np.abs(num.amplitudes - ref.amplitudes)) < 1e-7

    def test_ring_norm_exact_under_wrap(self):
        L = 12
        s = LatticeState(0, np.ones(L, dtype=complex) / np.sqrt(L), ring=True)
        out = integrate(s, DCDrive(1.0, 1.0), 3.0)
        assert abs(out.norm() - 1.0) < 1e-9

    def test_ring_shorter_than_band_raises(self):
        s = LatticeState(0, np.ones(2, dtype=complex) / np.sqrt(2), ring=True)
        dispersion = SingleBandDispersion(BAND_M3)
        with pytest.raises(ValueError, match="band order 3"):
            integrate_series(s, DCDrive(1.0, 0.0), [0.5], dispersion=dispersion)


def _tabulated_drive():
    tt = np.linspace(0.0, 2.0, 41)
    return TabulatedDrive(tt, 0.8 + 0.3 * np.sin(2.0 * tt),
                          0.5 + 0.25 * np.cos(3.0 * tt))


def _flat_then_ramp_drive():
    # f and g are flat up to t = 0.8 (past the first chunk of the
    # across-chunks march) and ramp after it
    tt = np.array([0.0, 0.8, 2.0])
    return TabulatedDrive(tt, np.array([0.9, 0.9, 1.5]),
                          np.array([0.6, 0.6, 0.2]))


class TestMarchMatchesDenseRK4:
    """_march against a stage-by-stage RK4 on the dense truncated co-moving
    H'(t, eta), to 1e-13, with the RK4 stage values of eta from eta = 0 at
    t = 0 and psi = e^{-i eta N} phi; a static H on an open 1-d window is
    tallied "static", every other march "co-moving". H' has no field term,
    and a ring's is plainly circulant. _march must return the eta it gained."""

    # (drive, dispersion, sites, ring, block, start site of an open window)
    CASES = {
        "tight-binding-open": (HarmonicDrive(0.9, 0.6, 1.3, 0.5), None, 21,
                               False, False, 4),
        "band-open": (HarmonicDrive(0.9, 0.6, 1.3, 0.5),
                      SingleBandDispersion(BAND_M3), 21, False, False, 4),
        "band-ring": (HarmonicDrive(0.9, 0.6, 1.3, 0.5),
                      SingleBandDispersion(BAND_M3), 10, True, False, None),
        "block-ring": (HarmonicDrive(0.9, 0.6, 1.3, 0.5), None, 8, True, True,
                       None),
        "tabulated-g-open": (_tabulated_drive(), None, 21, False, False, 4),
        "dc-open": (DCDrive(0.9, 0.6), None, 21, False, False, 4),
        "band-dc-open": (DCDrive(0.9, 0.0), SingleBandDispersion(BAND_M3), 21,
                         False, False, 4),
        "band2-offset-dc-open": (
            DCDrive(0.9, 0.0), SingleBandDispersion((0.2, 0.4 - 0.1j, 0.15j)),
            21, False, False, 4),
        "dc-ring": (DCDrive(0.9, 0.6), None, 10, True, False, None),
        "flat-then-ramp-open": (_flat_then_ramp_drive(), None, 21, False,
                                False, 4),
        # on the wall, where a step cropped from the infinite lattice errs
        "wall": (HarmonicDrive(0.9, 0.6, 1.3, 0.5),
                 SingleBandDispersion(BAND_M3), 21, False, False, 0),
        # a window shorter than the 4M-site wall block, and one shorter than M
        "wall-short": (HarmonicDrive(0.9, 0.6, 1.3, 0.5),
                       SingleBandDispersion(BAND_M3), 9, False, False, 0),
        "wall-tiny": (HarmonicDrive(0.9, 0.6, 1.3, 0.5),
                      SingleBandDispersion(BAND_M3), 2, False, False, 0),
        # static wall rows, and bands whose hops skip offsets
        "dc-wall": (DCDrive(0.9, 0.6), None, 21, False, False, 0),
        "band-dc-wall-short": (DCDrive(0.9, 0.0), SingleBandDispersion(BAND_M3),
                               9, False, False, 0),
        "band-dc-wall-tiny": (DCDrive(0.9, 0.0), SingleBandDispersion(BAND_M3),
                              2, False, False, 0),
        "band-sparse-dc-open": (DCDrive(0.9, 0.0),
                                SingleBandDispersion((0.0, 0.0, 0.0, 0.3)), 21,
                                False, False, 4),
        "onsite-only-dc-open": (DCDrive(0.9, 0.0),
                                SingleBandDispersion((0.2, 0.0)), 21, False,
                                False, 4),
        # a sparse band's pruned maps under a varying eta
        "band-sparse-open": (HarmonicDrive(0.9, 0.6, 1.3, 0.5),
                             SingleBandDispersion((0.0, 0.0, 0.0, 0.3)), 21,
                             False, False, 4),
        "band-sparse-wall": (HarmonicDrive(0.9, 0.6, 1.3, 0.5),
                             SingleBandDispersion((0.0, 0.0, 0.0, 0.3)), 21,
                             False, False, 0),
        "band-sparse-ring": (HarmonicDrive(0.9, 0.6, 1.3, 0.5),
                             SingleBandDispersion((0.0, 0.0, 0.0, 0.3)), 10,
                             True, False, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("t1,nsteps", [
        (0.8, _CHUNK_STEPS + 7), (0.1, 1), (0.0, 1),
    ], ids=["across-chunks", "one-step", "zero-span"])
    def test_march(self, case, t1, nsteps):
        proto, dispersion, size, ring, block, start = self.CASES[case]
        labels = np.arange(size, dtype=float) - size // 2

        def band(t):
            return (0.0, float(proto.g(t))) if dispersion is None \
                else dispersion.couplings

        def comoving(t, eta):
            return dense_hamiltonian(
                labels, 0.0, [g * np.exp(-1j * m * eta)
                              for m, g in enumerate(band(t))],
                1.0 if ring else None)

        if ring or block:
            rng = np.random.default_rng(3)
            shape = (size, size) if block else (size,)
            psi0 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            psi0 /= np.linalg.norm(psi0, axis=0)
        else:
            # spreading into the low edge, so the edge peaks at the last step
            psi0 = np.eye(size)[start]
        memo = {"steps": 0, "marches": set()}
        (psi,), edge, eta1 = _march(psi0, [t1], [nsteps], proto, labels, ring,
                                    dispersion, memo)
        # the march is static where f and g are flat on an open 1-d window
        grid = 0.5 * (t1 / nsteps) * np.arange(2 * nsteps + 1)
        static = not (ring or block) and all(
            np.ptp(v) == 0.0 for v in (proto.f(grid), proto.g(grid)))
        phi, ref_edge, eta = dense_rk4(psi0, 0.0, t1, nsteps, comoving, proto.f)
        phase = np.exp(-1j * eta * labels)
        ref = phase.reshape(phase.shape + (1,) * (phi.ndim - 1)) * phi
        assert memo["steps"] == nsteps
        assert memo["marches"] == {"static" if static else "co-moving"}
        assert np.max(np.abs(psi - ref)) < 1e-13
        assert abs(eta1 - eta) < 1e-14
        if ring or block:
            assert edge == 0.0
        else:
            assert abs(edge - ref_edge) < 1e-13

    @pytest.mark.parametrize("case", ["band-ring", "block-ring", "wall",
                                      "dc-wall"])
    def test_march_across_checkpoints(self, case):
        # one march over unequal spans: its first table mixes three step
        # sizes, checkpoints fall at steps 32 (twice: a zero span), 128 and
        # mid-table, and the referee restarts at each checkpoint from the
        # absolute eta, with the ring's plain circulant H'
        proto, dispersion, size, ring, block, start = self.CASES[case]
        labels = np.arange(size, dtype=float) - size // 2
        counts = [32, 0, 96, 7, 37]
        times = list(np.cumsum([0.25, 0.0, 0.5, 0.05, 0.3]))

        def comoving(eta0):
            def hamiltonian(t, eta):
                band = (0.0, float(proto.g(t))) if dispersion is None \
                    else dispersion.couplings
                return dense_hamiltonian(
                    labels, 0.0, [g * np.exp(-1j * m * (eta0 + eta))
                                  for m, g in enumerate(band)],
                    1.0 if ring else None)
            return hamiltonian

        if ring or block:
            rng = np.random.default_rng(5)
            shape = (size, size) if block else (size,)
            psi0 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            psi0 /= np.linalg.norm(psi0, axis=0)
        else:
            psi0 = np.eye(size)[start]

        def gauge(psi, eta):
            phase = np.exp(1j * eta * labels)
            return phase.reshape(phase.shape + (1,) * (psi.ndim - 1)) * psi

        memo = {"steps": 0, "marches": set()}
        states, edge, eta1 = _march(psi0, times, counts, proto, labels, ring,
                                    dispersion, memo)
        phi, eta, ref_edge = psi0, 0.0, 0.0
        for t_prev, t_next, n, psi in zip([0.0] + times, times, counts, states):
            if n:
                phi, e, gained = dense_rk4(phi, t_prev, t_next, n,
                                           comoving(eta), proto.f)
                eta, ref_edge = eta + gained, max(ref_edge, e)
            assert np.max(np.abs(psi - gauge(phi, -eta))) < 1e-13
        assert memo["steps"] == sum(counts)
        assert abs(eta1 - eta) < 1e-14
        assert abs(edge - (0.0 if ring or block else ref_edge)) < 1e-13

    @pytest.mark.parametrize("band,rows", [
        ((0.0, 0.0, 0.0, 0.3), 9), ((0.1, 0.0, 0.2, 0.0, 0.3j), 17),
        ((0.2, 0.0), 1), ((0.0, 0.6), 9),
    ], ids=["sparse-m3", "even-m4", "onsite-only", "tight-binding"])
    def test_step_map_keeps_the_hop_lattice(self, band, rows):
        # diagonals at offsets no chain of hops reaches hold only FFT noise
        comoving = _CoMoving(np.asarray(band, dtype=complex), (21,), False)
        assert len(comoving.rows) == rows


class TestMonodromy:
    def test_flat_band_when_ac_is_off(self):
        proto = HarmonicDrive(1.0, 0.0, 1.0, 0.5)
        _, eps = monodromy_spectrum(proto, 16)
        assert np.max(np.abs(eps)) < 1e-6

    def test_matches_closed_form_band(self):
        proto = HarmonicDrive(1.0, 1.0, 1.0, 0.25)
        kappa, eps = monodromy_spectrum(proto, 16)
        band = quasienergy_band(proto)
        assert np.max(np.abs(eps - band.epsilon(kappa))) < 1e-4

    def test_requires_resonance(self):
        with pytest.raises(ValueError):
            monodromy_spectrum(HarmonicDrive(1.0, 1.0, 0.7, 0.5), 16)

    def test_requires_enough_sites(self):
        with pytest.raises(ValueError):
            monodromy_spectrum(HarmonicDrive(1.0, 1.0, 1.0, 0.5), 4)

    def test_rejects_a_fractional_ring(self):
        with pytest.raises(ValueError, match="^ring_sites .* not 8.7$"):
            monodromy_spectrum(HarmonicDrive(1.0, 1.0, 1.0, 0.5), 8.7)


class _NoPhaseIntegrals:
    """A drive whose phase integrals raise: the oracle may sample f and g."""

    def __init__(self, drive):
        self.drive = drive

    def __getattr__(self, name):
        if name in ("eta", "chi", "int_exp_eta", "uv", "phase"):
            def refuse(*args, **kwargs):
                raise AssertionError(f"the oracle called {name}")
            return refuse
        return getattr(self.drive, name)


class TestIndependence:
    """The oracle marches eta itself, so it calls no phase integral."""

    @pytest.mark.parametrize("proto,state,dispersion", [
        (HarmonicDrive(1.0, 0.8, 1.0, 0.4), gaussian_state(0, 2.0, 0.3, (-16, 16)),
         None),
        (HarmonicDrive(1.0, 0.8, 1.0, 0.4),
         random_state(np.random.default_rng(5), (0, 11), ring=True), None),
        (DCDrive(0.9, 0.0), gaussian_state(0, 2.0, 0.3, (-20, 20)),
         SingleBandDispersion((0, 0, 0, 0.3))),
    ], ids=["open", "ring", "band-open"])
    def test_integrate_series(self, proto, state, dispersion):
        times = [0.7, 1.5]
        plain = integrate_series(state, proto, times, dispersion=dispersion)
        alone = integrate_series(state, _NoPhaseIntegrals(proto), times,
                                 dispersion=dispersion)
        plain.append(integrate(state, proto, 1.1, dispersion=dispersion))
        alone.append(integrate(state, _NoPhaseIntegrals(proto), 1.1,
                               dispersion=dispersion))
        for a, b in zip(plain, alone):
            assert np.array_equal(a.amplitudes, b.amplitudes)
            assert a.leak == b.leak

    def test_monodromy_spectrum(self):
        proto = HarmonicDrive(1.0, 1.0, 1.0, 0.25)
        for plain, alone in zip(monodromy_spectrum(proto, 16),
                                monodromy_spectrum(_NoPhaseIntegrals(proto), 16)):
            assert np.array_equal(plain, alone)


class TestStrongDrive:
    """Closed form against the oracle at f1/omega = 100 and 300: a resonant
    harmonic drive (n = 1, omega = 1, g0 = 0.5) from one site to t = 2T,
    within the oracle's own error_per_time * t plus the window leak; at both
    ratios also a non-resonant one and a two-mode Fourier drive."""

    @staticmethod
    def check(proto, sites):
        state = single_site(0, (-(sites // 2), sites // 2))
        times = [proto.period, 2.0 * proto.period]
        config = OracleConfig()
        oracle = integrate_series(state, proto, times, config=config)
        for t, ref, closed in zip(times, oracle, evolve(state, proto, times)):
            bound = config.error_per_time * t + closed.leak
            assert np.max(np.abs(closed.amplitudes - ref.amplitudes)) <= bound

    @pytest.mark.parametrize("ratio,sites", [(100.0, 49), (300.0, 33)])
    def test_closed_form_matches_the_oracle(self, ratio, sites):
        self.check(HarmonicDrive(1.0, ratio, 1.0, 0.5), sites)

    @pytest.mark.parametrize("proto,sites", [
        pytest.param(HarmonicDrive(0.5, 100.0, 1.0, 0.5), 49, id="non-resonant-harmonic"),
        pytest.param(FourierDrive(1.0, (-100.0, -50.0), 1.0, 0.5), 49,
                     id="two-mode-fourier"),
        pytest.param(HarmonicDrive(0.5, 300.0, 1.0, 0.5), 33,
                     id="non-resonant-harmonic-300"),
        pytest.param(FourierDrive(1.0, (-300.0, -150.0), 1.0, 0.5), 33,
                     id="two-mode-fourier-300"),
    ])
    def test_other_drives_match_the_oracle(self, proto, sites):
        self.check(proto, sites)
