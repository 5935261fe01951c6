"""Command-line interface.

Subcommands: estimate (full pipeline), offset (print estimated shift),
analyze (from saved matrices), heatmap, timeseries, synth. Exit codes:
0 success, 1 configuration, I/O or usage error, 2 data-quality abort.
"""

from __future__ import annotations

import contextlib
import datetime
import logging
import os
import sys

import click
import numpy as np

from . import congestion as cg
from . import export as ex
from . import matching, network, pipeline, synth
from .errors import ConfigError, DataQualityError, TracePatternError

logger = logging.getLogger(__name__)


@contextlib.contextmanager
def _exit_codes():
    """Map a failure to its exit code, told in one stderr line."""
    try:
        yield
    except DataQualityError as exc:
        click.echo(f"data-quality abort: {exc}", err=True)
        sys.exit(2)
    except (TracePatternError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)


class _Group(click.Group):
    """The command group: the failures of parsing its own options and of
    resolving, parsing and running a subcommand all pass _exit_codes."""

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


def _load_config_file(path):
    if path is None:
        return {}
    import yaml  # only a config file needs it; it costs startup time

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        mark = getattr(exc, "problem_mark", None)  # where a YAML syntax error is
        where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        why = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"config file {path}{where}: {why}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must be a mapping")
    return data


def _build_run_config(config_file, overrides):
    data = _load_config_file(config_file)
    data.update({k: v for k, v in overrides.items() if v is not None})
    for required in ("traces_path", "network_path", "out_dir"):
        if not data.get(required):
            raise ConfigError(f"missing required setting {required}")
    known = {f.name for f in pipeline.RunConfig.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return pipeline.RunConfig(**data)


@click.group(cls=_Group, no_args_is_help=False)
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose):
    """Road-level traffic patterns from car-hailing GPS traces."""
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


def _run_options(fn):
    opts = [
        click.option("--traces", "traces_path", type=click.Path(), help="Trace CSV (optionally .gz)."),
        click.option("--network", "network_path", type=click.Path(), help="Road network GeoJSON."),
        click.option("--out", "out_dir", type=click.Path(), help="Output directory."),
        click.option("--config", "config_file", type=click.Path(exists=True),
                     help="YAML config; flags take precedence."),
        click.option("--tz-offset", "tz_offset_s", type=int, help="Local timezone offset, seconds."),
        click.option("--chunk-size", type=int),
        click.option("--max-dist-km", type=float, help="Matching gate, km."),
        click.option("--pair-dt-max", "pair_dt_max_s", type=float, help="Max pair gap, seconds."),
        click.option("--anomaly-kmh", type=float, help="Speed anomaly threshold, km/h."),
        click.option("--missing-fraction", type=float, help="Missing-value filter threshold."),
        click.option("--offset", type=(float, float), default=None,
                     help="Explicit correction offset: dlat dlon, degrees."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@main.command()
@_run_options
def estimate(config_file, **overrides):
    """Run the full pipeline: ingest, correct, match, aggregate, analyze."""
    config = _build_run_config(config_file, overrides)
    manifest = pipeline.run_pipeline(config)
    c = manifest["counts"]
    click.echo(f"parsed {c['parsed']} rows ({c['skipped_rows']} skipped), "
               f"matched {c['matched']}, unmatched {c['unmatched']}")
    click.echo(f"offset used: ({manifest['offset']['dlat']:+.6f}, "
               f"{manifest['offset']['dlon']:+.6f})° [{manifest['offset']['source']}]")
    click.echo(f"outputs in {config.out_dir}")


@main.command()
@click.option("--traces", "traces_path", type=click.Path(exists=True), required=True)
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--sample-size", type=int, default=matching.DEFAULT_MIN_SAMPLE, show_default=True)
def offset(traces_path, network_path, sample_size):
    """Estimate and print the coordinate shift; no other processing."""
    cfg = pipeline.RunConfig(traces_path=traces_path, network_path=network_path,
                             out_dir="", offset_sample_size=sample_size)
    cfg.validate()
    net = network.load_network(network_path)
    off, _ = pipeline.ingest_range(cfg, net)
    click.echo(f"{off.dlat:+.6f} {off.dlon:+.6f}")


@main.command()
@click.option("--flow", "flow_path", type=click.Path(exists=True), required=True)
@click.option("--speed", "speed_path", type=click.Path(exists=True), required=True,
              help="Raw speed matrix CSV (will be cleaned here).")
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--config", "config_file", type=click.Path(exists=True),
              help="YAML config for thresholds and date_groups.")
@click.option("--anomaly-kmh", type=float, default=None)
@click.option("--missing-fraction", type=float, default=None)
def analyze(flow_path, speed_path, network_path, out_dir, config_file,
            anomaly_kmh, missing_fraction):
    """Congestion and dispersion analysis from saved matrices."""
    cfg = _build_run_config(config_file, {
        "traces_path": flow_path, "network_path": network_path, "out_dir": out_dir,
        "anomaly_kmh": anomaly_kmh, "missing_fraction": missing_fraction})
    pipeline.analyze_saved(cfg, flow_path, speed_path)
    click.echo(f"analysis written to {out_dir}")


@main.command()
@click.option("--matrix", "matrix_path", type=click.Path(exists=True), required=True)
@click.option("--network", "network_path", type=click.Path(exists=True), required=True)
@click.option("--interval", required=True, help="Interval label, e.g. 2016-10-01T08:00.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def heatmap(matrix_path, network_path, interval, out_path):
    """Export one interval of a matrix as a GeoJSON heatmap layer."""
    matrix = ex.read_matrix_csv(matrix_path)
    net = network.load_network(network_path)
    doc = ex.export_heatmap(matrix, net, interval)
    ex.write_json(doc, out_path)
    click.echo(f"wrote {len(doc['features'])} features to {out_path}")


@main.command()
@click.option("--series", "series_path", type=click.Path(exists=True), required=True,
              help="network_series.csv from estimate/analyze.")
@click.option("--scenario", required=True, help="Date-group name from the config.")
@click.option("--config", "config_file", type=click.Path(exists=True),
              help="YAML config with date_groups.")
@click.option("--measure", type=click.Choice(["dc", "cf"]), default="dc", show_default=True)
@click.option("--normalize", is_flag=True, help="Per-day min-max normalization.")
@click.option("--out-dir", type=click.Path(), required=True)
def timeseries(series_path, scenario, config_file, measure, normalize, out_dir):
    """Per-scenario daily-overlay time series as CSV and SVG."""
    days, series = pipeline.read_network_series(series_path)
    data = _load_config_file(config_file)
    date_groups = data.get("date_groups", {})
    pipeline.check_date_groups(date_groups)
    groups = pipeline.resolve_groups(date_groups, days)
    if scenario not in groups:
        raise ConfigError(f"unknown scenario {scenario!r}; have {sorted(groups)}")
    chosen = sorted(groups[scenario])
    if not chosen:
        raise ConfigError(f"scenario {scenario!r} matches no days in the series")
    mat = series[measure][[days.index(d) for d in chosen]]
    suffix = measure + ("_norm" if normalize else "")
    if normalize:
        mat = np.stack([cg.min_max_normalize(r)[0] for r in mat])
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"timeseries_{scenario}_{suffix}.csv")
    svg_path = os.path.join(out_dir, f"timeseries_{scenario}_{suffix}.svg")
    ex.export_timeseries(mat, chosen, csv_path, svg_path,
                         f"{measure.upper()} by slot ({scenario})", measure.upper())
    click.echo(f"wrote {csv_path} and {svg_path}")


@main.command("synth")
@click.option("--config", "config_file", type=click.Path(exists=True),
              help="YAML scenario description (keys match Scenario fields).")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--write-truth", is_flag=True, help="Also write ground-truth matrices.")
def synth_cmd(config_file, seed, out_dir, write_truth):
    """Generate a synthetic scenario with known ground truth."""
    data = _load_config_file(config_file)
    if seed is not None:
        data["seed"] = seed
    try:
        # YAML reads a quoted date as a string and a tuple as a list
        if "start_date" in data and not isinstance(data["start_date"], datetime.date):
            data["start_date"] = datetime.date.fromisoformat(data["start_date"])
        for name in ("demand_profile", "injected_offset"):
            if name in data:
                data[name] = tuple(data[name])
        scenario = synth.Scenario(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario config: {exc}") from None
    gen = synth.generate(scenario)
    net_path, trace_path = synth.write_scenario(gen, out_dir)
    if write_truth:
        ex.write_matrix_csv(gen.truth.flow, os.path.join(out_dir, "truth_flow.csv"))
        ex.write_matrix_csv(gen.truth.speed, os.path.join(out_dir, "truth_speed.csv"))
    click.echo(f"{gen.truth.n_orders} orders, {gen.truth.n_pings} pings -> "
               f"{net_path}, {trace_path}")


if __name__ == "__main__":
    main()
