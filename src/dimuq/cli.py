"""Command-line entry point: ingest data, evaluate models, run sweeps and
uncertainty studies, and emit plot-ready CSV/JSON reports.

Exit codes: 0 success, 2 input/schema error, 3 config/protocol error,
4 numerical failure. Outputs are byte-identical across reruns with the same
config and seed; the only timestamp lives in the run manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
# train_head_model, train_ensemble_model, ensemble_predict, fit_scaler and
# apply_scaler are not called here: perfbench/layers.py wraps these names on
# this module. The calls go through the harness's registry and scale_split,
# where the same functions are wrapped.
from .bnn import (DEFAULT_DRAWS, ensemble_predict, save_snapshot, train_ensemble_model,
                  train_head_model)
from .data import apply_scaler, encode, fit_scaler, generate_synthetic, load_csv
from .errors import (
    ConfigError,
    DimuqError,
    LevelError,
    ParseError,
    ProtocolError,
    SchemaError,
    numeric_cause,
)
from .harness import (
    FAMILY_NAMES,
    HyperGrid,
    Protocol,
    build_model,
    ci_preset,
    comparison_table,
    eval_report_to_json,
    fit_fraction,
    fraction_sweep,
    read_config,
    run_evaluation,
    sweep_fractions,
    sweep_report_to_csv,
    sweep_report_to_json,
    uq_report_to_csv,
    uq_report_to_json,
    uq_trend_study,
    worker_pool,
)
from .metrics import ParityTable, csv_text, json_text, rmse
from .schema import default_schema, load_schema

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_INPUT_ERRORS = (SchemaError, ParseError, LevelError)


def _exit_code(exc: DimuqError) -> int:
    """Input errors exit 2; numerical failures, also when they are the cause
    of a search or protocol error, exit 4; every other error exits 3."""
    if isinstance(exc, _INPUT_ERRORS):
        return EXIT_INPUT
    if numeric_cause(exc) is not None:
        return EXIT_NUMERIC
    return EXIT_CONFIG


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _make_manifest(command: str, config_path, data_path, seed) -> dict:
    """The document of a run's ``manifest.json``: content hashes, a run id
    that depends on nothing else, and the one timestamp of the outputs."""
    config_hash = _sha256_file(config_path) if config_path else None
    data_hash = _sha256_file(data_path) if data_path else None
    run_id = hashlib.sha256(
        f"{command}|{config_hash}|{data_hash}|{seed}".encode()
    ).hexdigest()[:16]
    return {
        "command": command,
        "config_path": str(config_path) if config_path else None,
        "config_sha256": config_hash,
        "data_sha256": data_hash,
        "seed": seed,
        "package_version": __version__,
        "run_id": run_id,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _write(out_dir: Path, name: str, content: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(content, encoding="utf-8")


# the models `dimuq uq` fits, in the order it reports them
_UQ_FAMILIES = ("gpr", "bnn_head", "bnn_ensemble")


@dataclass(frozen=True)
class _Config:
    """A config file's top-level keys; each block is read by its own type."""

    data: str | None = None
    schema: str | None = None
    preset: str | None = None
    synthetic: dict = field(default_factory=dict)
    protocol: dict = field(default_factory=dict)
    families: list = field(default_factory=list)
    sweep_fractions: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 10))
    uq: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Synthetic:
    n: int = 800
    noise_sigma: float = 0.05
    seed: int = 7


@dataclass(frozen=True)
class _FamilySpec:
    family: str
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ProtocolError(f"unknown model family {self.family!r}; "
                                f"known: {sorted(FAMILY_NAMES)}")


@dataclass(frozen=True)
class _Uq:
    """The ``uq`` block; ``seeds`` defaults to ``[protocol.seed]``. Its
    per-model blocks hold registry parameters, but no seed or draw count."""

    seeds: tuple[int, ...]
    models: tuple[str, ...] = ()
    draws: int = DEFAULT_DRAWS
    parity_fraction: float = 0.8
    fractions: tuple[float, ...] = ()
    gpr: dict = field(default_factory=dict)
    bnn_head: dict = field(default_factory=dict)
    bnn_ensemble: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.models and not self.fractions:
            raise ProtocolError("uq lists no models and no fractions")
        unknown = sorted(set(self.models) - set(_UQ_FAMILIES))
        if unknown:
            raise ProtocolError(f"unknown uq model(s) {unknown}; known: {list(_UQ_FAMILIES)}")
        if not 0.0 < self.parity_fraction < 1.0:  # the parity run needs train and test rows
            raise ProtocolError("uq.parity_fraction must be in (0, 1)")
        if any(not 0.0 < f < 1.0 for f in self.fractions):
            raise ProtocolError("uq.fractions must lie in (0, 1)")
        if not self.seeds or min(self.seeds) < 0:
            raise ProtocolError("uq.seeds must list at least one seed, each >= 0")
        for family in _UQ_FAMILIES:
            if {"seed", "n_draws"} & set(getattr(self, family)):
                raise ProtocolError(f"uq.{family} sets no seed or n_draws: protocol.seed, "
                                    "uq.seeds and uq.draws do")
        # draws is the one draw count, for the parity run and the trend study
        object.__setattr__(self, "bnn_ensemble", {**self.bnn_ensemble, "n_draws": self.draws})


def _load_config(path) -> _Config:
    try:
        with open(path, encoding="utf-8") as handle:
            return read_config(_Config, json.load(handle), "config")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _load_table(data_path, schema_path):
    """The CSV's records under the schema file, or the default schema."""
    schema = load_schema(schema_path) if schema_path else default_schema()
    return load_csv(data_path, schema)


def _setup(args):
    """(config, design matrix, protocol, out directory, manifest) of an
    ``evaluate``, ``sweep`` or ``uq`` run. The data come from the data path
    or the synthetic block. A bad config fails first, then data, then protocol."""
    config = _load_config(args.config)
    data_path = args.data or config.data
    if data_path:
        matrix = encode(_load_table(data_path, args.schema or config.schema))
    else:
        synthetic = read_config(_Synthetic, config.synthetic, "synthetic")
        matrix = encode(generate_synthetic(**vars(synthetic)))
    flags = {key: getattr(args, key) for key in ("seed", "workers")
             if getattr(args, key) is not None}
    protocol = read_config(Protocol, {**config.protocol, **flags}, "protocol")
    preset = args.preset or config.preset
    if preset == "ci":
        protocol = ci_preset(protocol)
    elif preset not in (None, "full"):
        raise ProtocolError(f"unknown preset {preset!r}")
    manifest = _make_manifest(args.command, args.config, data_path, protocol.seed)
    return config, matrix, protocol, Path(args.out), manifest


def _family_specs(config: _Config) -> list[tuple[str, HyperGrid]]:
    if not config.families:
        raise ProtocolError("config lists no model families")
    specs = [read_config(_FamilySpec, entry, f"families[{i}]")
             for i, entry in enumerate(config.families)]
    return [(spec.family, HyperGrid(family=spec.family, axes=spec.grid)) for spec in specs]


# -- commands -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    table = _load_table(args.data, args.schema)
    matrix = encode(table)
    out_dir = Path(args.out)

    rows = ([*features, target] for features, target in zip(matrix.features, matrix.targets))
    _write(out_dir, "encoded_matrix.csv",
           csv_text([*matrix.column_labels, table.schema.target.name], rows))

    inventories = {}
    for col in table.schema.columns:
        if col.is_categorical:
            counts = {level: 0 for level in col.levels}
            for row in table.rows:
                counts[row[col.name]] += 1
            inventories[col.name] = counts
    manifest = _make_manifest("ingest", None, args.data, None)
    summary = {
        "rows": matrix.n_rows,
        "encoded_width": matrix.width,
        "column_labels": list(matrix.column_labels),
        "level_inventories": inventories,
        "run_id": manifest["run_id"],
    }
    _write(out_dir, "summary.json", json_text(summary))
    _write(out_dir, "manifest.json", json_text(manifest))
    print(f"ingested {matrix.n_rows} rows, encoded width {matrix.width}")
    return EXIT_OK


def _each_family(specs, run, out_dir: Path, manifest: dict) -> tuple[list, int]:
    """Call ``run(family, settings)`` for every pair of ``specs``: a grid in
    ``evaluate`` and ``sweep``, a model block in ``uq``. A family whose run
    raises is recorded in ``failures.json`` and the others still run; the
    manifest is always written. Returns the successful runs' results and the
    first failure's exit code (``EXIT_OK`` when none failed)."""
    results = []
    failures = []  # (failure record, exit code) per failed family
    for family, settings in specs:
        try:
            results.append(run(family, settings))
        except DimuqError as exc:
            failures.append(({"family": family, "error": f"{type(exc).__name__}: {exc}"},
                             _exit_code(exc)))
    _write(out_dir, "manifest.json", json_text(manifest))
    if not failures:
        return results, EXIT_OK
    records = [record for record, _ in failures]
    _write(out_dir, "failures.json", json_text(records))
    first, code = failures[0]
    print(f"error: {first['error']}", file=sys.stderr)
    return results, code


def cmd_evaluate(args) -> int:
    config, matrix, protocol, out_dir, manifest = _setup(args)
    specs = _family_specs(config)

    def evaluate(family, grid):
        report = run_evaluation(family, grid, matrix, protocol, pool=pool)
        _write(out_dir, f"report_{family}.json", eval_report_to_json(report))
        print(f"{family}: average test RMSE {report.average:.5f} mm "
              f"({report.n_successes} iterations, {len(report.failures)} failed)")
        return report

    # one pool for every family; its workers start at the first submit
    n_tasks = len(specs) * protocol.outer_iterations * protocol.inner_iterations
    with worker_pool(protocol.workers, n_tasks) as pool:
        reports, code = _each_family(specs, evaluate, out_dir, manifest)
    if reports:
        _write(out_dir, "comparison.csv", comparison_table(reports))
    return code


def cmd_sweep(args) -> int:
    config, matrix, protocol, out_dir, manifest = _setup(args)
    specs = _family_specs(config)
    fractions = sweep_fractions(config.sweep_fractions)

    def sweep(family, grid):
        report = fraction_sweep(family, grid, matrix, fractions, protocol, pool=pool)
        _write(out_dir, f"sweep_{family}.json", sweep_report_to_json(report))
        _write(out_dir, f"sweep_{family}.csv", sweep_report_to_csv(report))
        measured, predicted = min(report.reports, key=lambda r: r.minimum).best_parity
        _write(out_dir, f"parity_{family}.csv", ParityTable(measured, predicted).to_csv())
        print(f"{family}: swept {len(report.fractions)} fractions")

    # one pool for every family and fraction
    n_tasks = (len(specs) * len(fractions)
               * protocol.outer_iterations * protocol.inner_iterations)
    with worker_pool(protocol.workers, n_tasks) as pool:
        return _each_family(specs, sweep, out_dir, manifest)[1]


def cmd_uq(args) -> int:
    config, matrix, protocol, out_dir, manifest = _setup(args)
    uq = read_config(_Uq, {"seeds": [protocol.seed], **config.uq}, "uq")
    specs = [(family, getattr(uq, family)) for family in _UQ_FAMILIES if family in uq.models]
    if uq.fractions:  # the trend study runs first and, like each model, fails alone
        specs.insert(0, ("uq_trend", uq.bnn_ensemble))
    for family, params in specs:  # built before anything trains, so a bad parameter fails first
        build_model("bnn_ensemble" if family == "uq_trend" else family, params,
                    seed=protocol.seed)

    def run(family, params):
        if family == "uq_trend":
            report = uq_trend_study(params, matrix, uq.fractions,
                                    uq.seeds, scaler_method=protocol.scaler_method)
            _write(out_dir, "uq_trend.json", uq_report_to_json(report))
            _write(out_dir, "uq_trend.csv", uq_report_to_csv(report))
            print(f"uq trend: {len(report.fractions)} fractions x {len(report.seeds)} seeds")
            return
        model, test, (means, aleatoric, epistemic) = fit_fraction(
            family, params, matrix, uq.parity_fraction, protocol.seed, protocol.scaler_method)
        _write(out_dir, f"parity_{family}.csv",
               ParityTable(test.targets, means, aleatoric, epistemic).to_csv())
        if hasattr(model, "network"):
            _write(out_dir, f"loss_trace_{family}.csv",
                   csv_text(("epoch", "nll", "kl", "total"), model.network.loss_trace))
            save_snapshot(model.network, out_dir / f"snapshot_{family}.npz")
        print(f"{family}: test RMSE {rmse(means, test.targets):.5f} mm")

    return _each_family(specs, run, out_dir, manifest)[1]


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimuq",
        description="Dimensional-deviation regression with uncertainty reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="parse a CSV and emit the encoded matrix")
    ingest.add_argument("--data", required=True)
    ingest.add_argument("--schema")
    ingest.add_argument("--out", required=True)
    ingest.set_defaults(func=cmd_ingest)

    for name, func, help_text in (
        ("evaluate", cmd_evaluate, "run the full protocol for configured families"),
        ("sweep", cmd_sweep, "sweep training fractions"),
        ("uq", cmd_uq, "uncertainty studies and probabilistic parity tables"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--data", help="override the config's data path")
        cmd.add_argument("--schema", help="override the config's schema path")
        cmd.add_argument("--out", required=True)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--workers", type=int)
        cmd.add_argument("--preset", choices=("full", "ci"))
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimuqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
