"""Command line entry points.

Five commands share one JSON config file plus a handful of override flags:

  train    fit the undefended and noise-augmented backbones, write weights
           and clean metrics
  certify  certify the smoothed model on the full test pool
  fcr      certify sampled test sets and report the certified fraction
  sweep    fcr across a noise-parameter axis, bucketed by budget thresholds
  attack   attack both models over a budget grid

Seed precedence: --seed flag, then the ELEGANT_SEED environment variable,
then the config file, then the default of 0.  Exit codes: 0 success,
2 bad configuration, 3 missing or malformed data/models, 4 certification
produced no certified test set at all.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import logging
import os
import sys
import typing
from dataclasses import asdict, replace

import numpy as np

from .attack import DEFAULT_GRID, evaluate_under_attack
from .data import DataError, load_dataset, make_splits, normalize_attributes
from .fairness import METRICS, BiasThreshold, bias_value, prediction_metrics
from .fixtures import bundled_fixture_dir, make_german_like, make_small
from .gnn import BACKBONES, TrainConfig, TrainingDivergedError, load_model, predict_classes, save_model, train
from .pipeline import CERTIFIED, certify_and_predict, fcr_run
from .smoothing import SmoothingConfig

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


DEFAULTS = {
    "dataset": {"fixture": "sbm-german", "fixture_seed": None, "edges": None, "attributes": None, "labels": None},
    "backbone": "gcn",
    "seed": 0,
    "jobs": 1,
    "out": ".",
    "metric": SmoothingConfig.metric,
    "eta": {"mode": "relative", "multiplier": 1.25, "value": None},
    "splits": {"train_frac": 0.3, "val_frac": 0.45, "vul_frac": 0.05},
    # the library's fields and defaults; seed, eta and metric come from the top level
    "train": {k: v for k, v in asdict(TrainConfig()).items() if k != "seed"},
    "smoothing": {k: v for k, v in asdict(SmoothingConfig()).items() if k not in ("eta", "metric", "master_seed")},
    "fcr": {"ratio": 0.9, "count": 100, "seeds": None},
    "sweep": {"axis": "sigma", "values": None, "thresholds": None},
    "attack": {"grid": [list(cell) for cell in DEFAULT_GRID], "eta_multiplier": 1.5},
}

# One cast rule for every config value (_typed): an int takes an integral number (2.0 becomes 2), a float
# a finite number, a bool only a JSON boolean, a str only a string.  DEFAULTS gives each key's type, this
# table those whose default is null or a list: T | None also takes null, tuple[...] one item per type.
TYPES = {
    **{f"dataset.{key}": str | None for key in ("fixture", "edges", "attributes", "labels")},
    "dataset.fixture_seed": int | None, "eta.value": float | None, "fcr.seeds": list[int] | None,
    "sweep.values": list[float] | None, "sweep.thresholds": list[float] | None, "attack.grid": list[tuple[int, float]],
}
TYPE_WORDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}

# per-test-set fields of fcr.json, a subset of CertificationReport.to_json_dict()
FCR_PER_SET_KEYS = ("outcome", "eps_A", "eps_X", "bias", "accuracy", "n_outer_positive")

SWEEP_VALUES = {
    "sigma": [5e-3, 5e-2, 5e-1, 5.0],
    "beta": [0.6, 0.7, 0.8, 0.9],
}
SWEEP_THRESHOLDS = {
    "sigma": [0.0, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0],
    "beta": [0, 1, 2, 4, 8, 16],
}


def _typed(key: str, value, kind):
    """value cast to kind, a DEFAULTS type or a TYPES entry; ConfigError names key (key[i] in a list) and value."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if type(None) in args:
        return None if value is None else _typed(key, value, args[0])
    if type(value) is list and (origin is list or origin is tuple and len(value) == len(args)):
        return [_typed(f"{key}[{i}]", v, args[i] if origin is tuple else args[0]) for i, v in enumerate(value)]
    if {bool: type(value) is bool, str: type(value) is str, float: type(value) in (int, float) and abs(value) <= sys.float_info.max,
            int: type(value) is int or (type(value) is float and value.is_integer())}.get(kind, False):
        return kind(value)
    word = f"a list of {len(args)} items" if origin is tuple else TYPE_WORDS[origin or kind]
    raise ConfigError(f"{key} must be {word}, got {value!r}")


def _merge(cfg: dict, override, defaults: dict = DEFAULTS, prefix: str = "") -> dict:
    """cfg with override's values, each typed against its default by _typed; blocks merge key by key."""
    if type(override) is not dict:
        raise ConfigError(f"{prefix[:-1] or 'config root'} must be {TYPE_WORDS[dict]}, got {override!r}")
    out = dict(cfg)
    for key, value in override.items():
        dotted = prefix + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {dotted!r}")
        kind = TYPES.get(dotted, type(defaults[key]))
        out[key] = _merge(cfg[key], value, defaults[key], dotted + ".") if kind is dict else _typed(dotted, value, kind)
    return out


def build_config(path: str | None, args: argparse.Namespace) -> dict:
    """Merge defaults, config file, environment, and flags (last wins), each value typed by _merge."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config file {path}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        cfg = _merge(cfg, user)
    env_seed = os.environ.get("ELEGANT_SEED")
    if env_seed is not None:
        try:
            cfg = _merge(cfg, {"seed": int(env_seed)})
        except ValueError as exc:
            raise ConfigError(f"ELEGANT_SEED must be an integer, got {env_seed!r}") from exc
    eta, mult = getattr(args, "eta", None), getattr(args, "eta_mult", None)
    flags = {name: getattr(args, name, None) for name in ("seed", "jobs", "out", "backbone", "metric")}
    flags["sweep"] = {name: getattr(args, name) for name in ("axis", "values", "thresholds") if getattr(args, name, None) is not None}
    if eta is not None or mult is not None:
        # either flag replaces the whole eta block; --eta-mult sets the attack's multiplier too
        cfg["eta"] = {}
        flags["eta"] = {"mode": "absolute", "value": eta} if mult is None else {"mode": "relative", "multiplier": mult}
        flags["attack"] = {} if mult is None else {"eta_multiplier": mult}
    cfg = _merge(cfg, {key: value for key, value in flags.items() if value is not None})
    if cfg["backbone"] not in BACKBONES:
        raise ConfigError(f"backbone must be {' or '.join(BACKBONES)}, got {cfg['backbone']!r}")
    if cfg["metric"] not in METRICS:
        raise ConfigError(f"metric must be {' or '.join(METRICS)}, got {cfg['metric']!r}")
    if cfg["jobs"] < 1:
        raise ConfigError(f"jobs must be a positive integer, got {cfg['jobs']!r}")
    return cfg


def load_world(cfg: dict):
    """Dataset plus node splits for this config; attributes min-max scaled.

    A key the chosen dataset would ignore raises ConfigError naming it: the
    file keys beside a fixture, fixture_seed beside any but a generator.
    """
    ds = cfg["dataset"]
    name, seed = ds["fixture"], ds["fixture_seed"]
    generators = {"sbm-german": make_german_like, "sbm-small": make_small}
    if name and name not in (*generators, "sbm200"):
        raise ConfigError(f"unknown fixture {name!r}")
    files = [f"dataset.{key}" for key in ("edges", "attributes", "labels") if ds[key] is not None]
    if name and files:
        raise ConfigError(f"dataset.fixture {name!r} conflicts with {', '.join(files)}; set \"fixture\": null to load files")
    if seed is not None and name not in generators:
        raise ConfigError(f"dataset.fixture_seed conflicts with dataset.fixture {json.dumps(name)}; only {' and '.join(generators)} take a seed")
    if name in generators:
        # fixture_seed None means the generator's own default seed
        g, X, labels = generators[name]() if seed is None else generators[name](seed=seed)
    elif name:
        root = bundled_fixture_dir(name)
        g, X, labels = load_dataset(*(os.path.join(root, f) for f in ("edges.txt", "features.csv", "labels.csv")))
    else:
        for key in ("edges", "attributes", "labels"):
            if not ds[key]:
                raise ConfigError(f"dataset config needs {key!r} (or a fixture name)")
        g, X, labels = load_dataset(ds["edges"], ds["attributes"], ds["labels"])
    X = normalize_attributes(X)
    sp = cfg["splits"]
    try:
        split = make_splits(g, cfg["seed"], sp["train_frac"], sp["val_frac"], sp["vul_frac"])
    except DataError as exc:
        raise ConfigError(f"splits: {exc}") from exc
    if not split.vulnerable:
        raise ConfigError(
            "vulnerable set is empty under this vul_frac and pool size; certification needs at least one node"
        )
    return g, X, labels, split


def _model_paths(cfg: dict):
    return os.path.join(cfg["out"], "model.bin"), os.path.join(cfg["out"], "model_noise.bin")


def load_models(cfg: dict, d: int):
    """The vanilla and noise-augmented models; each must take d attributes."""
    paths = _model_paths(cfg)
    for p in paths:
        if not os.path.exists(p):
            raise DataError(f"missing model file {p}; run the train command first")
    models = tuple(load_model(p) for p in paths)
    for p, model in zip(paths, models):
        if model.d != d:
            raise DataError(f"{p}: model takes {model.d} attributes, the dataset has {d}")
    return models


def resolve_eta(cfg: dict, vanilla, g, X, labels, split, multiplier_override=None) -> BiasThreshold:
    """Absolute threshold straight from config, or relative to the vanilla bias."""
    spec = cfg["eta"]
    mode = spec["mode"]
    if mode == "absolute":
        if spec["value"] is None:
            raise ConfigError("absolute eta needs a 'value'")
        return BiasThreshold.absolute(spec["value"])
    if mode != "relative":
        raise ConfigError(f"eta mode must be absolute or relative, got {mode!r}")
    mult = multiplier_override if multiplier_override is not None else spec["multiplier"]
    cls = predict_classes(vanilla, g, X)
    vanilla_bias = bias_value(cls, labels, split.test_pool, cfg["metric"])
    eta = BiasThreshold.relative(mult, vanilla_bias)
    logger.info("relative eta: %.4g * vanilla bias %.4g = %.4g", mult, vanilla_bias, eta.eta)
    return eta


def smoothing_config(cfg: dict, eta: BiasThreshold) -> SmoothingConfig:
    """The config's smoothing block plus eta, metric and seed."""
    return SmoothingConfig(**cfg["smoothing"], eta=eta.eta, metric=cfg["metric"], master_seed=cfg["seed"])


def _prepare(cfg: dict, eta_multiplier=None):
    """What every certifying command starts from: (world, vanilla, noise, eta, scfg).

    world is load_world's (g, X, labels, split); eta_multiplier overrides a
    relative eta's configured multiplier.
    """
    world = g, X, labels, split = load_world(cfg)
    vanilla, noise = load_models(cfg, X.shape[1])
    eta = resolve_eta(cfg, vanilla, *world, multiplier_override=eta_multiplier)
    return world, vanilla, noise, eta, smoothing_config(cfg, eta)


def _fcr(cfg: dict, world, noise, scfg: SmoothingConfig, eta: BiasThreshold):
    try:
        return fcr_run(noise, *world, scfg, ratio=cfg["fcr"]["ratio"], count=cfg["fcr"]["count"], jobs=cfg["jobs"], eta=eta)
    except DataError as exc:
        raise ConfigError(f"fcr: {exc}") from exc


def _nine_digits(obj):
    """Round every float to 9 significant digits for stable artifacts."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _nine_digits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nine_digits(v) for v in obj]
    return obj


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_nine_digits(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def write_csv(path: str, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fieldnames)
        for row in rows:
            w.writerow([_fmt_cell(row[k]) for k in fieldnames])


def cmd_train(cfg: dict) -> int:
    g, X, labels, split = load_world(cfg)
    tc = TrainConfig(seed=cfg["seed"], **cfg["train"])
    logger.info("training %s on %d nodes / %d edges", cfg["backbone"], g.n, g.n_edges)
    try:
        vanilla = train(g, X, labels, split, tc, backbone=cfg["backbone"])
        noise = train(g, X, labels, split, tc, backbone=cfg["backbone"], augment=True)
    except TrainingDivergedError as exc:
        raise ConfigError(f"training diverged ({exc}) with train.lr={tc.lr:g}; try a smaller train.lr") from exc
    vanilla_path, noise_path = _model_paths(cfg)
    save_model(vanilla, vanilla_path)
    save_model(noise, noise_path)

    metrics = {
        name: prediction_metrics(predict_classes(model, g, X), labels, split.test_pool)
        for name, model in (("vanilla", vanilla), ("noise_augmented", noise))
    }
    metrics["meta"] = {
        "backbone": cfg["backbone"],
        "seed": cfg["seed"],
        "n": g.n,
        "edges": g.n_edges,
        "split_sizes": {
            "train": len(split.train),
            "validation": len(split.validation),
            "test_pool": len(split.test_pool),
            "vulnerable": len(split.vulnerable),
        },
        "evaluated_on": "test_pool, clean data",
    }
    write_json(os.path.join(cfg["out"], "metrics.json"), metrics)
    logger.info(
        "clean pool metrics: vanilla acc %.3f / bias_sp %.3f, noise-augmented acc %.3f / bias_sp %.3f",
        metrics["vanilla"]["accuracy"],
        metrics["vanilla"]["delta_sp"],
        metrics["noise_augmented"]["accuracy"],
        metrics["noise_augmented"]["delta_sp"],
    )
    return 0


def cmd_certify(cfg: dict) -> int:
    world, _, noise, eta, scfg = _prepare(cfg)
    report = certify_and_predict(noise, *world, world[-1].test_pool, scfg, jobs=cfg["jobs"], eta=eta)
    write_json(os.path.join(cfg["out"], "certify.json"), report.to_json_dict())
    logger.info("certification outcome: %s", report.outcome)
    return 0


def cmd_fcr(cfg: dict) -> int:
    world, _, noise, eta, scfg = _prepare(cfg)
    result = _fcr(cfg, world, noise, scfg, eta)
    payload = result.summary()
    reports = [r.to_json_dict() for r in result.reports]
    payload["per_set"] = [{k: d[k] for k in FCR_PER_SET_KEYS} for d in reports]
    payload["eta"] = reports[0]["config"]["eta"]
    payload["config"] = reports[0]["config"]
    payload["conventions"] = reports[0]["conventions"]
    seeds = cfg["fcr"]["seeds"]
    if seeds:
        per_seed = [_fcr(cfg, world, noise, replace(scfg, master_seed=s), eta).fcr for s in seeds]
        payload["fcr_per_seed"] = per_seed
        payload["fcr_std_across_seeds"] = float(np.std(np.array(per_seed)))
    write_json(os.path.join(cfg["out"], "fcr.json"), payload)
    logger.info("fraction of certified test sets: %.4f", result.fcr)
    if result.fcr == 0.0:
        logger.error("no test set certified; treat the configuration as failed")
        return 4
    return 0


def threshold_fractions(budgets, thresholds, count) -> dict:
    """Fraction of sampled sets whose certified budget clears each threshold.

    Threshold zero counts every certified set; positive thresholds require a
    strictly larger budget, so along an ascending threshold grid the
    fractions can only stay flat or fall.
    """
    out = {}
    for t in thresholds:
        hits = len(budgets) if t == 0 else sum(1 for b in budgets if b > t)
        out[f"thr_{t:g}"] = hits / count
    return out


def cmd_sweep(cfg: dict) -> int:
    axis = cfg["sweep"]["axis"]
    if axis not in SWEEP_VALUES:
        raise ConfigError(f"sweep axis must be {' or '.join(SWEEP_VALUES)}, got {axis!r}")
    values = cfg["sweep"]["values"] or SWEEP_VALUES[axis]
    thresholds = cfg["sweep"]["thresholds"] or SWEEP_THRESHOLDS[axis]
    world, _, noise, eta, base = _prepare(cfg)
    rows = []
    for v in values:
        result = _fcr(cfg, world, noise, replace(base, **{axis: v}), eta)
        budgets = [
            (r.budgets.eps_X if axis == "sigma" else r.budgets.eps_A)
            for r in result.reports
            if r.outcome == CERTIFIED
        ]
        row = {axis: v}
        row.update(threshold_fractions(budgets, thresholds, result.count))
        rows.append(row)
        logger.info("sweep %s=%g: fcr %.4f", axis, v, result.fcr)
    fields = [axis] + [f"thr_{t:g}" for t in thresholds]
    write_csv(os.path.join(cfg["out"], "sweep.csv"), fields, rows)
    return 0


def cmd_attack(cfg: dict) -> int:
    world, vanilla, noise, eta, scfg = _prepare(cfg, eta_multiplier=cfg["attack"]["eta_multiplier"])
    rows, meta = evaluate_under_attack(vanilla, noise, *world, cfg["attack"]["grid"], scfg, eta=eta, jobs=cfg["jobs"])
    fields = ["budget_edges", "budget_l2", "model", "accuracy", "delta_sp", "delta_eo", "outcome", "within_certified"]
    write_csv(os.path.join(cfg["out"], "attack.csv"), fields, rows)
    write_json(os.path.join(cfg["out"], "attack.json"), meta)
    return 0


COMMANDS = {
    "train": (cmd_train, "fit the undefended and noise-augmented backbones"),
    "certify": (cmd_certify, "certify the smoothed model on the full test pool"),
    "fcr": (cmd_fcr, "certify sampled test sets and report the certified fraction"),
    "sweep": (cmd_sweep, "fcr across a noise-parameter axis"),
    "attack": (cmd_attack, "attack both models over a budget grid"),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed (overrides ELEGANT_SEED and the config)")
    p.add_argument("--jobs", type=int, help="worker threads for certification")
    p.add_argument("--out", help="artifact directory (default from config, '.')")
    p.add_argument("--backbone", choices=list(BACKBONES), help="classifier architecture")
    p.add_argument("--metric", choices=list(METRICS), help="bias metric")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--eta", type=float, help="absolute bias threshold")
    group.add_argument("--eta-mult", type=float, dest="eta_mult", help="threshold = multiplier * vanilla bias")


def _csv_floats(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elegant", description="Certified fairness defense for graph node classifiers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--axis", choices=list(SWEEP_VALUES), help="parameter to sweep")
            p.add_argument("--values", type=_csv_floats, help="comma-separated parameter values")
            p.add_argument("--thresholds", type=_csv_floats, help="comma-separated budget thresholds")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args.config, args)
        try:
            os.makedirs(cfg["out"], exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out directory {cfg['out']}: {exc.strerror}") from exc
        return COMMANDS[args.command][0](cfg)
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
