"""The array %.17g formatter behind every CSV, against Python's own."""

from decimal import ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driventb.scenario as scenario
from driventb.scenario import _format_rows, _write_csv, load_scenario, run_scenario
from helpers import write_csv_reference

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
TIE = 1133089860033075.75  # 17 digits then exactly 5: Python rounds half to even
NEAR_TIE = -8.382642261404347650000091  # 9e-7 from a tie, formatted by arrays


def percent(block):
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(block).tolist()).encode()


def needs_python(x: float) -> bool:
    """A value the formatter may leave to Python's: not finite, |x| outside
    [1e-280, 1e280], or its 17-digit remainder within 1e-9 of one half."""
    if x == 0.0:
        return False
    if not np.isfinite(x) or not 1e-280 <= abs(x) <= 1e280:
        return True
    with localcontext() as ctx:
        ctx.prec = 1200
        exact = abs(Decimal(x))
        scaled = exact.scaleb(16 - exact.adjusted())
        rest = scaled - scaled.to_integral_value(rounding=ROUND_FLOOR)
        return abs(rest - Decimal("0.5")) <= Decimal("1.001e-9")


def as_block(cols_raw):
    """Raw bytes as float64 bit patterns in rows of ``cols`` values."""
    cols, raw = cols_raw
    return np.frombuffer(raw, dtype=np.float64).reshape(-1, cols)


# six values of every float64 bit pattern alike, in rows of 1 to 3: 91 % of
# the patterns have |x| in [1e-280, 1e280], so 57 % of the blocks are all fast
blocks = st.tuples(st.sampled_from([1, 2, 3]),
                   st.binary(min_size=48, max_size=48)).map(as_block)


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(blocks)
@example([[0.0, -0.0]])
@example([[5e-324]])
@example([[1e-280, -1e280]])
@example([[np.nextafter(1e-280, 0.0)], [np.nextafter(1e280, np.inf)]])
@example([[np.inf, 1.0], [np.nan, -np.inf]])
@example([[TIE, 0.5]])
@example([[NEAR_TIE]])
def test_matches_percent_g(block):
    block = np.array(block, dtype=float)
    text = _format_rows(block)
    if text is None:
        assert any(needs_python(x) for x in block.ravel())
    else:
        assert text == percent(block)


def test_powers_of_ten_and_their_neighbours():
    tens = 10.0 ** np.arange(-279, 280)
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                             [1e-280, 1e280, 1e16, 1e17, 1e-4, 1e-5]])
    ties = [x for x in values if needs_python(x)]
    assert ties == [999999999999999.875]  # the neighbour below 1e15
    block = np.stack([values, -values], axis=1)[values != ties[0]]
    assert _format_rows(block) == percent(block)


def test_ties_and_near_ties():
    assert not needs_python(NEAR_TIE) and needs_python(TIE)
    assert _format_rows(np.array([[NEAR_TIE, 1.0]])) == percent([[NEAR_TIE, 1.0]])
    assert _format_rows(np.array([[TIE, 1.0]])) is None


def assert_writes_like_python(monkeypatch):
    """Every _write_csv call writes the bytes of the all-Python reference."""
    calls = []

    def checked(path, scn, header, columns, comment=""):
        _write_csv(path, scn, header, columns, comment)
        reference = path.with_suffix(".reference")
        write_csv_reference(reference, scn, header, columns, comment)
        assert path.read_bytes() == reference.read_bytes(), path.name
        reference.unlink()
        calls.append(path.name)

    monkeypatch.setattr(scenario, "_write_csv", checked)
    return calls


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_shipped_outputs_match_percent_g(tmp_path, monkeypatch, config):
    calls = assert_writes_like_python(monkeypatch)
    # the oracle writes no CSV; its verdicts are covered elsewhere
    monkeypatch.setattr(scenario, "_compare", lambda scn, out: {
        "max_amplitude_deviation": 0.0, "passed": True})
    path = CONFIG_DIR / config
    run_scenario(path, out_dir=tmp_path / "run")
    loaded = load_scenario(path)
    scenario._emit_snapshots(loaded, tmp_path)
    if loaded.drive.resonance_order() is not None:
        scenario._emit_band(loaded, tmp_path)
    if isinstance(loaded.drive, scenario.HarmonicDrive):
        scenario.localization_map(path, out_dir=tmp_path)
    assert calls


def test_fallback_blocks_keep_their_place(tmp_path, monkeypatch):
    calls = assert_writes_like_python(monkeypatch)
    scn = load_scenario(CONFIG_DIR / "invariant.cfg")
    rng = np.random.default_rng(7)
    columns = rng.standard_normal((3, 5000)) * 10.0 ** rng.integers(-8, 8, (3, 5000))
    # one value of each kind Python formats, spread over the four blocks
    # among values the arrays format
    for row, value in zip((10, 1500, 2800, 4100, 4101, 4999),
                          (np.nan, np.inf, -np.inf, 5e-324, 1e300, TIE)):
        columns[row % 3, row] = value
    columns[0, 3000] = -0.0
    scenario._write_csv(tmp_path / "mixed.csv", scn, ["a", "b", "c"], columns,
                        comment=" t=1")
    assert calls == ["mixed.csv"]
    text = (tmp_path / "mixed.csv").read_text()
    assert "nan" in text and "-inf" in text and "4.9406564584124654e-324" in text
