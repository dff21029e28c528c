"""conifold-lab command line interface.

Subcommands:
  run CONFIG.json       batch experiment sweeps, exit code 0 iff all pass
  weights               exceptional-weight table for a link as JSON rows
  regions               weight-region classification grid as CSV
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .experiments import (REGION_ATLAS_COLUMNS, _check_formats, csv_text, region_atlas_rows,
                          run_config_file)
from .link_spectra import cone_link
from .weight_calculus import exceptional_weights


@click.group()
def main():
    """Weighted Sobolev calculus on conifolds: desk-scale verification of
    uniform estimates on parametric connect sums."""


@main.command("run")
@click.argument("config", type=click.Path(exists=True))
@click.option("--emit", "formats", default="csv,json",
              help="comma list of output formats: csv,json,plotdata")
@click.option("--out", "out_dir", default=".", help="output directory")
@click.option("--seed", type=int, default=None, help="override the config seed")
def run_cmd(config, formats, out_dir, seed):
    """Run the experiments in CONFIG and write result tables."""
    fmts = tuple(f.strip() for f in formats.split(",") if f.strip())
    try:
        _check_formats(fmts)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--emit'") from exc
    try:
        code, results = run_config_file(config, formats=fmts, out_dir=out_dir, seed=seed)
    except ValueError as exc:  # raised before any experiment runs
        raise click.UsageError(str(exc)) from exc
    for res in results:
        status = "pass" if res.passed else "FAIL"
        click.echo(f"[{status}] {res.experiment}: {res.summary}")
    if code != 0:
        failing = [r.experiment for r in results if not r.passed]
        click.echo(f"failing experiments: {', '.join(failing)}", err=True)
    sys.exit(code)


def _interval(_ctx, _param, value):
    """The option value 'lo:hi' as two floats (None stays None)."""
    if value is None:
        return None
    try:
        lo, hi = (float(x) for x in value.split(":"))
    except ValueError:
        raise click.BadParameter(f"expected lo:hi, got {value!r}") from None
    return lo, hi


@main.command("weights")
@click.option("--link", "link_spec", default="sphere:2", show_default=True,
              help="link spec, e.g. sphere:2, sphere:3:0.5, torus:1,2")
@click.option("--m", "m", type=int, default=3, show_default=True,
              help="cone dimension (link dimension + 1)")
@click.option("--range", "gamma_range", default="-4:3", show_default=True,
              callback=_interval, help="open gamma interval lo:hi")
def weights_cmd(link_spec, m, gamma_range):
    """Exceptional weights of the Laplacian on the cone over LINK."""
    try:
        weights = exceptional_weights(cone_link(link_spec, m), m, gamma_range)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    rows = [{"gamma": w.gamma, "mult": w.mult, "eigenvalue": w.source_eigenvalue}
            for w in weights]
    click.echo(json.dumps(rows, indent=1))


@main.command("regions")
@click.option("--kind", type=click.Choice(["AC", "CS", "CSAC"]), default="AC",
              show_default=True)
@click.option("--m", "m", type=int, default=3, show_default=True)
@click.option("--link", "link_spec", default="sphere:2", show_default=True)
@click.option("--grid", "step", type=float, default=0.25, show_default=True,
              help="weight grid step")
@click.option("--range", "weight_range", default=None, callback=_interval,
              help="weight interval lo:hi (default: (2-m)-1.5 to 1.5)")
@click.option("--out", "out_path", default="-",
              help="CSV path (parent directories are created) or - for stdout")
def regions_cmd(kind, m, link_spec, step, weight_range, out_path):
    """Classification grid (injective/surjective/index/kernel) per weight cell."""
    lo, hi = weight_range or (None, None)
    try:
        rows = region_atlas_rows(kind, m, link_spec, step, lo, hi)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    text = csv_text(REGION_ATLAS_COLUMNS, rows)
    if out_path == "-":
        click.echo(text, nl=False)
    else:
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
