"""Command line front end.

    driventb run <config>                closed-form pipelines -> CSV/JSON
    driventb compare <config>            closed form vs brute-force oracle
    driventb band <config>               quasienergy band -> band.csv
    driventb localization-map <config>   gamma_n over an f1/omega sweep

The output directory defaults to ./driventb-out, overridable with
--out-dir or the DRIVENTB_OUT_DIR environment variable. Exit codes:
0 success, 1 configuration or runtime error, 2 oracle deviation above
tolerance (the comparison report is still written).
"""

from __future__ import annotations

import sys

import click

from .scenario import (_emit_band, compare_with_oracle, load_scenario,
                       localization_map, run_scenario)


@click.group()
def main():
    """Driven tight-binding lattice simulator."""


_out_dir_option = click.option(
    "--out-dir", envvar="DRIVENTB_OUT_DIR", default="driventb-out",
    show_default=True, type=click.Path(file_okay=False),
    help="Directory for emitted files (env: DRIVENTB_OUT_DIR).")


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@_out_dir_option
@click.option("--seed", type=int, default=None, help="Override [scenario] seed.")
@click.option("--tolerance", type=float, default=None,
              help="Override the oracle comparison tolerance.")
def run(config, out_dir, seed, tolerance):
    """Run a scenario and emit its configured outputs."""
    try:
        summary = run_scenario(config, out_dir=out_dir, seed=seed,
                               tolerance=tolerance)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    for name in summary["outputs"]:
        click.echo(f"wrote {out_dir}/{name}")
    if summary["status"] != "ok":
        click.echo(f"oracle deviation above tolerance "
                   f"(max {summary['oracle']['max_amplitude_deviation']:.3e})",
                   err=True)
        sys.exit(2)
    click.echo(f"scenario {summary['scenario']} ok (hash {summary['hash']})")


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@_out_dir_option
@click.option("--tolerance", type=float, default=None,
              help="Override the comparison tolerance.")
def compare(config, out_dir, tolerance):
    """Compare the closed-form evolution against the oracle integrator."""
    try:
        report = compare_with_oracle(config, out_dir=out_dir, tolerance=tolerance)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    click.echo(f"{'t':>10}  {'max |dc|':>12}  {'|d<N>|':>12}  {'|dVarN|':>12}")
    for row in report["per_time"]:
        click.echo(f"{row['t']:10.4f}  {row['amplitude']:12.3e}  "
                   f"{row['mean_N']:12.3e}  {row['var_N']:12.3e}")
    click.echo(f"max amplitude deviation {report['max_amplitude_deviation']:.3e} "
               f"(tolerance {report['tolerance']:g})")
    click.echo(f"report: {out_dir}/comparison.json")
    if not report["passed"]:
        click.echo("FAIL: deviation above tolerance", err=True)
        sys.exit(2)
    click.echo("PASS")


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@_out_dir_option
def band(config, out_dir):
    """Emit the quasienergy band (kappa, eps_kappa) of a resonant drive."""
    try:
        scenario = load_scenario(config)
        name, = _emit_band(scenario, out_dir)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"wrote {out_dir}/{name} ({scenario.kappa_points} points)")


@main.command("localization-map")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@_out_dir_option
def localization_map_cmd(config, out_dir):
    """Sweep f1/omega and emit the drift rate gamma_n."""
    try:
        info = localization_map(config, out_dir=out_dir)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"wrote {out_dir}/{info['file']} ({info['points']} points)")


if __name__ == "__main__":
    main()
