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
from dataclasses import dataclass
from pathlib import Path


from . import __version__
from .bnn import (
    EnsembleConfig,
    HeadConfig,
    decompose_uncertainty,
    ensemble_predict,
    save_snapshot,
    train_ensemble_model,
    train_head_model,
)
from .data import apply_scaler, encode, fit_scaler, generate_synthetic, load_csv
from .errors import (
    ConditioningError,
    ConfigError,
    DimuqError,
    LayoutMismatchError,
    LevelError,
    ParseError,
    ProtocolError,
    SchemaError,
    SearchError,
    TrainingError,
)
from .gpr import GprRegressor, KernelParams
from .harness import (
    Fractions,
    HyperGrid,
    Protocol,
    ci_preset,
    comparison_table,
    dual_mc_split,
    eval_report_to_json,
    fraction_sweep,
    run_evaluation,
    sweep_report_to_csv,
    sweep_report_to_json,
    uq_report_to_csv,
    uq_report_to_json,
    uq_trend_study,
)
from .metrics import parity_table, rmse
from .schema import default_schema, load_schema

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_INPUT_ERRORS = (SchemaError, ParseError, LevelError)
_CONFIG_ERRORS = (ConfigError, ProtocolError, SearchError, LayoutMismatchError)
_NUMERIC_ERRORS = (TrainingError, ConditioningError)


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str | None
    config_sha256: str | None
    data_sha256: str | None
    seed: int | None
    package_version: str
    run_id: str
    created_utc: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _make_manifest(command: str, config_path, data_path, seed) -> RunManifest:
    config_hash = _sha256_file(config_path) if config_path else None
    data_hash = _sha256_file(data_path) if data_path else None
    run_id = hashlib.sha256(
        f"{command}|{config_hash}|{data_hash}|{seed}".encode()
    ).hexdigest()[:16]
    return RunManifest(
        command=command,
        config_path=str(config_path) if config_path else None,
        config_sha256=config_hash,
        data_sha256=data_hash,
        seed=seed,
        package_version=__version__,
        run_id=run_id,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def _write(out_dir: Path, name: str, content: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(content, encoding="utf-8")


def _dataclass_config(cls, params: dict):
    try:
        return cls(**params)
    except TypeError as exc:
        raise ProtocolError(f"bad {cls.__name__} parameters: {exc}") from exc


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _resolve_data(config: dict, data_override=None, schema_override=None):
    """Return (DesignMatrix, data_path_or_None) from config or CLI overrides."""
    data_path = data_override or config.get("data")
    if data_path:
        schema_path = schema_override or config.get("schema")
        schema = load_schema(schema_path) if schema_path else default_schema()
        table = load_csv(data_path, schema)
        return encode(table), data_path
    synthetic = config.get("synthetic", {})
    table = generate_synthetic(
        n=int(synthetic.get("n", 800)),
        noise_sigma=float(synthetic.get("noise_sigma", 0.05)),
        seed=int(synthetic.get("seed", 7)),
    )
    return encode(table), None


def _resolve_protocol(config: dict, args) -> Protocol:
    doc = dict(config.get("protocol", {}))
    fractions = doc.pop("fractions", [0.8, 0.2, 0.0])
    if not isinstance(fractions, (list, tuple)) or len(fractions) != 3:
        raise ProtocolError("protocol.fractions must be [train, test, holdout]")
    protocol = Protocol(
        outer_iterations=int(doc.pop("outer_iterations", 3)),
        inner_iterations=int(doc.pop("inner_iterations", 50)),
        fractions=Fractions(*[float(f) for f in fractions]),
        k=int(doc.pop("k", 5)),
        seed=int(doc.pop("seed", 2022)),
        scaler_method=str(doc.pop("scaler_method", "zscore")),
        grid_mode=str(doc.pop("grid_mode", "per_inner")),
        workers=int(doc.pop("workers", 1)),
    )
    if doc:
        raise ProtocolError(f"unknown protocol key(s): {sorted(doc)}")
    from dataclasses import replace
    if args.seed is not None:
        protocol = replace(protocol, seed=int(args.seed))
    if args.workers is not None:
        protocol = replace(protocol, workers=int(args.workers))
    preset = args.preset or config.get("preset")
    if preset == "ci":
        protocol = ci_preset(protocol)
    elif preset not in (None, "full"):
        raise ProtocolError(f"unknown preset {preset!r}")
    return protocol


def _family_specs(config: dict) -> list[tuple[str, HyperGrid]]:
    specs = config.get("families")
    if not specs:
        raise ProtocolError("config lists no model families")
    out = []
    for entry in specs:
        family = entry.get("family")
        if not family:
            raise ProtocolError("each families[] entry needs a 'family' key")
        out.append((str(family), HyperGrid(family=str(family),
                                           axes=entry.get("grid", {}))))
    return out


# -- commands -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    schema = load_schema(args.schema) if args.schema else default_schema()
    table = load_csv(args.data, schema)
    matrix = encode(table)
    out_dir = Path(args.out)

    lines = [",".join([*matrix.column_labels, table.schema.target.name])]
    for i in range(matrix.n_rows):
        cells = [format(v, ".10g") for v in matrix.features[i]]
        cells.append(format(matrix.targets[i], ".10g"))
        lines.append(",".join(cells))
    _write(out_dir, "encoded_matrix.csv", "\n".join(lines) + "\n")

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
        "run_id": manifest.run_id,
    }
    _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write(out_dir, "manifest.json", manifest.to_json())
    print(f"ingested {matrix.n_rows} rows, encoded width {matrix.width}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    matrix, data_path = _resolve_data(config, args.data, args.schema)
    protocol = _resolve_protocol(config, args)
    specs = _family_specs(config)
    out_dir = Path(args.out)
    manifest = _make_manifest("evaluate", args.config, data_path, protocol.seed)

    reports = []
    failures = []  # (failure record, exit code) per failed family
    for family, grid in specs:
        try:
            report = run_evaluation(family, grid, matrix, protocol)
        except DimuqError as exc:
            code = EXIT_NUMERIC if isinstance(exc, _NUMERIC_ERRORS) else EXIT_CONFIG
            failures.append(({"family": family, "error": f"{type(exc).__name__}: {exc}"},
                             code))
            continue
        reports.append(report)
        _write(out_dir, f"report_{family}.json", eval_report_to_json(report))
        print(f"{family}: average test RMSE {report.average:.5f} mm "
              f"({report.n_successes} iterations, {len(report.failures)} failed)")
    if reports:
        _write(out_dir, "comparison.csv", comparison_table(reports))
    _write(out_dir, "manifest.json", manifest.to_json())
    if failures:
        records = [record for record, _ in failures]
        _write(out_dir, "failures.json",
               json.dumps(records, indent=2, sort_keys=True) + "\n")
        first, code = failures[0]
        print(f"error: {first['error']}", file=sys.stderr)
        return code
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    matrix, data_path = _resolve_data(config, args.data, args.schema)
    protocol = _resolve_protocol(config, args)
    specs = _family_specs(config)
    fractions = config.get("sweep_fractions",
                           [round(0.1 * i, 1) for i in range(1, 10)])
    out_dir = Path(args.out)
    manifest = _make_manifest("sweep", args.config, data_path, protocol.seed)

    for family, grid in specs:
        report = fraction_sweep(family, grid, matrix, fractions, protocol,
                                keep_best_predictions=True)
        _write(out_dir, f"sweep_{family}.json", sweep_report_to_json(report))
        _write(out_dir, f"sweep_{family}.csv", sweep_report_to_csv(report))
        best = min(report.reports, key=lambda r: r.minimum)
        if best.best_parity is not None:
            measured, predicted = best.best_parity
            _write(out_dir, f"parity_{family}.csv",
                   parity_table(measured, predicted).to_csv())
        print(f"{family}: swept {len(report.fractions)} fractions")
    _write(out_dir, "manifest.json", manifest.to_json())
    return EXIT_OK


def _uq_parity_runs(uq_config: dict, matrix, protocol, out_dir: Path) -> None:
    """Fit the probabilistic models once at the configured fraction and emit
    parity tables (and loss traces / snapshots for the network models)."""
    fraction = float(uq_config.get("parity_fraction", 0.8))
    plan = dual_mc_split(matrix.n_rows, Fractions(fraction, 1.0 - fraction, 0.0),
                         protocol.seed, 0)
    train = matrix.take(plan.train)
    test = matrix.take(plan.test)
    scaler = fit_scaler(train, protocol.scaler_method)
    train_scaled = apply_scaler(scaler, train)
    test_features = apply_scaler(scaler, test).features
    models = uq_config.get("models", [])
    draws = int(uq_config.get("draws", 200))
    if "gpr" in models:
        params = dict(uq_config.get("gpr", {}))
        gpr = GprRegressor(
            init=KernelParams(
                amplitude=float(params.get("amplitude", 1.0)),
                length_scale=float(params.get("length_scale", 1.0)),
                noise_level=float(params.get("noise_level", 1.0)),
            ),
            n_restarts=int(params.get("n_restarts", 0)),
            seed=protocol.seed,
        ).fit(train_scaled)
        dist = gpr.predict_dist(test_features)
        _write(out_dir, "parity_gpr.csv",
               parity_table(test.targets, dist.means, aleatoric=dist.stddevs).to_csv())
        print(f"gpr: test RMSE {rmse(dist.means, test.targets):.5f} mm")
    if "bnn_head" in models:
        params = dict(uq_config.get("bnn_head", {}))
        epochs = int(params.pop("epochs", 4000))
        network = train_head_model(train_scaled, _dataclass_config(HeadConfig, params),
                                   epochs=epochs, seed=protocol.seed)
        dist = network.predict_dist(test_features)
        _write(out_dir, "parity_bnn_head.csv",
               parity_table(test.targets, dist.means, aleatoric=dist.stddevs).to_csv())
        _write(out_dir, "loss_trace_bnn_head.csv", _loss_trace_csv(network.loss_trace))
        save_snapshot(network, out_dir / "snapshot_bnn_head.npz")
        print(f"bnn_head: test RMSE {rmse(dist.means, test.targets):.5f} mm")
    if "bnn_ensemble" in models:
        params = dict(uq_config.get("bnn_ensemble", {}))
        epochs = int(params.pop("epochs", 3000))
        network = train_ensemble_model(train_scaled,
                                       _dataclass_config(EnsembleConfig, params),
                                       epochs=epochs, seed=protocol.seed)
        ensemble = ensemble_predict(network, test_features, n_draws=draws,
                                    seed=protocol.seed)
        decomposition = decompose_uncertainty(ensemble)
        _write(out_dir, "parity_bnn_ensemble.csv",
               parity_table(test.targets, ensemble.mixture_means(),
                            aleatoric=decomposition.aleatoric,
                            epistemic=decomposition.epistemic).to_csv())
        _write(out_dir, "loss_trace_bnn_ensemble.csv", _loss_trace_csv(network.loss_trace))
        save_snapshot(network, out_dir / "snapshot_bnn_ensemble.npz")
        print(f"bnn_ensemble: test RMSE "
              f"{rmse(ensemble.mixture_means(), test.targets):.5f} mm")


def _loss_trace_csv(trace) -> str:
    lines = ["epoch,nll,kl,total"]
    for epoch, nll, kl, total in trace:
        lines.append(f"{epoch},{nll:.10g},{kl:.10g},{total:.10g}")
    return "\n".join(lines) + "\n"


def cmd_uq(args) -> int:
    config = _load_config(args.config)
    matrix, data_path = _resolve_data(config, args.data, args.schema)
    protocol = _resolve_protocol(config, args)
    uq_config = dict(config.get("uq", {}))
    out_dir = Path(args.out)
    manifest = _make_manifest("uq", args.config, data_path, protocol.seed)

    draws = int(uq_config.get("draws", 200))
    if draws < 2:
        raise ProtocolError("uq.draws must be >= 2 (the decomposition needs spread)")

    if uq_config.get("fractions"):
        ensemble_params = dict(uq_config.get("bnn_ensemble", {}))
        epochs = int(ensemble_params.pop("epochs", 1000))
        report = uq_trend_study(
            _dataclass_config(EnsembleConfig, ensemble_params), matrix,
            uq_config["fractions"], uq_config.get("seeds", [protocol.seed]),
            n_draws=draws, epochs=epochs, scaler_method=protocol.scaler_method,
        )
        _write(out_dir, "uq_trend.json", uq_report_to_json(report))
        _write(out_dir, "uq_trend.csv", uq_report_to_csv(report))
        print(f"uq trend: {len(report.fractions)} fractions x {len(report.seeds)} seeds")

    _uq_parity_runs(uq_config, matrix, protocol, out_dir)
    _write(out_dir, "manifest.json", manifest.to_json())
    return EXIT_OK


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
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
