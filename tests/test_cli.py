"""End-to-end command line runs on the bundled dataset."""

import csv
import json
import os
import shutil

import numpy as np
import pytest

from elegant.cli import DEFAULTS, build_config, load_world, main, make_parser
from elegant.fixtures import bundled_fixture_dir
from elegant.gnn import GcnModel, load_model, save_model


def _write_config(path, extra=None):
    cfg = {
        "dataset": {"fixture": "sbm200"},
        "smoothing": {"n_outer": 60, "n_inner": 40},
        "fcr": {"ratio": 0.5, "count": 3},
        "attack": {"grid": [[1, 0.1]]},
    }
    for key, value in (extra or {}).items():
        cfg[key] = value
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Train once on the bundled graph; later commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg = _write_config(root / "config.json")
    out = str(root / "run")
    rc = main(["train", "--config", cfg, "--out", out])
    assert rc == 0
    return {"config": cfg, "out": out, "root": root}


def test_train_artifacts(workdir):
    out = workdir["out"]
    for name in ("model.bin", "model_noise.bin", "metrics.json"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    for block in ("vanilla", "noise_augmented"):
        for field in ("accuracy", "delta_sp", "delta_eo"):
            assert isinstance(metrics[block][field], float)
        assert 0.5 <= metrics[block]["accuracy"] <= 1.0
    meta = metrics["meta"]
    assert meta["backbone"] == "gcn"
    assert meta["n"] == 200
    assert meta["split_sizes"]["train"] + meta["split_sizes"]["validation"] + meta["split_sizes"]["test_pool"] == 200


def test_certify_writes_report(workdir):
    rc = main(["certify", "--config", workdir["config"], "--out", workdir["out"]])
    assert rc == 0
    with open(os.path.join(workdir["out"], "certify.json")) as fh:
        report = json.load(fh)
    assert report["outcome"] in ("CERTIFIED", "ABSTAIN")
    assert report["config"]["n_outer"] == 60
    assert report["config"]["n_inner"] == 40
    if report["outcome"] == "CERTIFIED":
        assert report["eps_A"] >= 0
        assert report["eps_X"] > 0


@pytest.fixture(scope="module")
def fcr_json(workdir):
    """One `elegant fcr` run on the trained models, its fcr.json read at once, so later runs into the same directory do not change it."""
    assert main(["fcr", "--config", workdir["config"], "--out", workdir["out"]]) == 0
    with open(os.path.join(workdir["out"], "fcr.json")) as fh:
        return json.load(fh)


def test_fcr_artifact_schema(fcr_json):
    fcr = fcr_json
    assert fcr["count"] == 3
    assert 0.0 <= fcr["fcr"] <= 1.0
    assert len(fcr["per_set"]) == 3
    for entry in fcr["per_set"]:
        assert entry["outcome"] in ("CERTIFIED", "ABSTAIN")
    eta = fcr["eta"]
    assert eta["provenance"] == "relative"
    assert eta["multiplier"] == 1.25
    assert eta["value"] == pytest.approx(1.25 * eta["vanilla_bias"])
    assert fcr["config"]["beta"] == 0.9
    assert fcr["conventions"]["d_convention"] == "deduplicated"


def test_fcr_certifies_the_bundled_graph(fcr_json):
    # the defaults were tuned so this fixture certifies; guard the regression
    assert fcr_json["fcr"] == 1.0
    assert fcr_json["mean_eps_A"] >= 1.0


def test_fcr_seeds_report_each_seed_and_their_spread(workdir, tmp_path):
    # a run directory of its own, so the shared one's artifacts stay as they are
    out = tmp_path / "run"
    out.mkdir()
    for name in ("model.bin", "model_noise.bin"):
        shutil.copy(os.path.join(workdir["out"], name), out / name)
    # at sigma 1.0 seed 2 certifies 2 of the 3 sets and seed 0 all 3, so the entries are not one run repeated
    smoothing = {"n_outer": 60, "n_inner": 40, "sigma": 1.0}
    cfg = _write_config(tmp_path / "config.json", {"smoothing": smoothing, "fcr": {"ratio": 0.5, "count": 3, "seeds": [2, 0]}})
    assert main(["fcr", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    with open(out / "fcr.json") as fh:
        fcr = json.load(fh)
    per_seed = fcr["fcr_per_seed"]
    assert len(per_seed) == 2 and per_seed[0] != per_seed[1]
    assert per_seed[1] == fcr["fcr"]  # seed 0 is the config's own
    assert fcr["fcr_std_across_seeds"] == pytest.approx(np.std(per_seed), abs=1e-9)


def test_sweep_csv_columns_nonincreasing(workdir):
    rc = main(
        [
            "sweep",
            "--config",
            workdir["config"],
            "--out",
            workdir["out"],
            "--axis",
            "beta",
            "--values",
            "0.8,0.9",
            "--thresholds",
            "0,1,2",
        ]
    )
    assert rc == 0
    with open(os.path.join(workdir["out"], "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["beta"] for r in rows] == ["0.8", "0.9"]
    for row in rows:
        cells = [float(row[f"thr_{t}"]) for t in (0, 1, 2)]
        assert all(0.0 <= c <= 1.0 for c in cells)
        assert cells == sorted(cells, reverse=True)


def test_attack_artifacts(workdir):
    rc = main(["attack", "--config", workdir["config"], "--out", workdir["out"]])
    assert rc == 0
    with open(os.path.join(workdir["out"], "attack.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one grid cell, undefended + smoothed
    assert rows[0]["model"] == "gcn"
    assert rows[1]["model"] == "smoothed-gcn"
    assert rows[0]["budget_edges"] == "1"
    with open(os.path.join(workdir["out"], "attack.json")) as fh:
        meta = json.load(fh)
    assert meta["attacker"] == "substitute"
    with open(os.path.join(workdir["out"], "metrics.json")) as fh:
        vanilla_bias = json.load(fh)["vanilla"]["delta_sp"]
    # the attack threshold uses its own multiplier, not the certify default
    assert meta["eta"] == pytest.approx(1.5 * vanilla_bias, rel=1e-6)
    assert meta["metric"] == "sp"


def test_eta_mult_flag_sets_the_attack_multiplier(workdir, tmp_path, monkeypatch):
    monkeypatch.delenv("ELEGANT_SEED", raising=False)
    assert build_config(None, _args(["attack"]))["attack"]["eta_multiplier"] == 1.5
    assert build_config(None, _args(["attack", "--eta-mult", "3.0"]))["attack"]["eta_multiplier"] == 3.0
    out = _copy_models(workdir, tmp_path)
    assert main(["attack", "--config", workdir["config"], "--out", str(out), "--eta-mult", "3.0"]) == 0
    with open(out / "attack.json") as fh:
        meta = json.load(fh)
    with open(os.path.join(workdir["out"], "metrics.json")) as fh:
        vanilla_bias = json.load(fh)["vanilla"]["delta_sp"]
    assert meta["eta"] == pytest.approx(3.0 * vanilla_bias, rel=1e-6)


def _copy_models(workdir, tmp_path):
    """A fresh run directory holding workdir's trained models."""
    out = tmp_path / "run"
    out.mkdir()
    for name in ("model.bin", "model_noise.bin"):
        (out / name).write_bytes(open(os.path.join(workdir["out"], name), "rb").read())
    return out


def _attack_eta(workdir, tmp_path, argv, **extra):
    """The threshold attack.json records for an attack run on workdir's models under a config with extra top-level keys and flags argv."""
    run = tmp_path / f"attack{len(list(tmp_path.glob('attack*')))}"
    run.mkdir()
    out, cfg = _copy_models(workdir, run), _write_config(run / "c.json", extra)
    assert main(["attack", "--config", cfg, "--out", str(out), *argv]) == 0
    with open(out / "attack.json") as fh:
        return json.load(fh)["eta"]


def _certify_with(workdir, tmp_path, code=0, argv=(), **extra):
    """certify.json of a certify run on workdir's models under a config with extra top-level keys and flags argv (None unless it exits with code 0)."""
    out = _copy_models(workdir, tmp_path)
    cfg = _write_config(tmp_path / "c.json", extra)
    assert main(["certify", "--config", cfg, "--out", str(out), *argv]) == code
    if code == 0:
        with open(out / "certify.json") as fh:
            return json.load(fh)


def test_absolute_eta_from_config_file(workdir, tmp_path):
    report = _certify_with(workdir, tmp_path, eta={"value": 0.1})
    assert report["eta"] == 0.1
    assert report["config"]["eta"]["provenance"] == "absolute"


def test_a_config_eta_value_is_the_threshold_of_every_command(workdir, tmp_path):
    report = _certify_with(workdir, tmp_path, eta={"value": 0.3})
    assert report["eta"] == 0.3
    assert report["config"]["eta"] == {"value": 0.3, "provenance": "absolute", "multiplier": None, "vanilla_bias": None}
    assert _attack_eta(workdir, tmp_path, [], eta={"value": 0.3}) == 0.3


def test_eta_flags_win_over_a_config_eta_value(workdir, tmp_path):
    with open(os.path.join(workdir["out"], "metrics.json")) as fh:
        vanilla_bias = json.load(fh)["vanilla"]["delta_sp"]
    report = _certify_with(workdir, tmp_path, argv=["--eta-mult", "2"], eta={"value": 0.3})
    assert report["config"]["eta"]["provenance"] == "relative"
    assert report["eta"] == pytest.approx(2 * vanilla_bias, rel=1e-6)
    assert _attack_eta(workdir, tmp_path, ["--eta-mult", "2"], eta={"value": 0.3}) == pytest.approx(2 * vanilla_bias, rel=1e-6)
    # --eta is absolute for attack too, whatever its multiplier
    assert _attack_eta(workdir, tmp_path, ["--eta", "0.2"]) == 0.2


def test_smoothing_values_keep_their_default_types(workdir, tmp_path):
    report = _certify_with(workdir, tmp_path, smoothing={"sigma": 1, "n_outer": 60.0, "n_inner": 40, "strict": False})
    assert report["config"]["sigma"] == 1.0 and isinstance(report["config"]["sigma"], float)
    assert report["config"]["n_outer"] == 60 and isinstance(report["config"]["n_outer"], int)
    assert report["config"]["strict"] is False


@pytest.mark.parametrize(
    "key, value, want",
    [("n_outer", 60.5, "an integer"), ("n_inner", True, "an integer"), ("strict", "no", "true or false"), ("strict", 0, "true or false"), ("sigma", "1", "a number")],
)
def test_smoothing_values_that_do_not_fit_their_type_are_config_errors(workdir, tmp_path, capsys, key, value, want):
    _certify_with(workdir, tmp_path, 2, smoothing={"n_outer": 60, "n_inner": 40, key: value})
    assert f"smoothing.{key} must be {want}, got {value!r}" in capsys.readouterr().err


def test_train_values_are_cast_as_smoothing_values_are(tmp_path, capsys):
    def train(block):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": {"fixture": "sbm-small"}, "train": block}))
        return main(["train", "--config", str(path), "--out", str(tmp_path / "run")])

    # integral floats for int fields, an int for the float lr
    assert train({"epochs": 2.0, "hidden": 8.0, "lr": 1}) == 0
    assert load_model(str(tmp_path / "run" / "model.bin")).h == 8
    for key, value, want in (("epochs", 2.5, "an integer"), ("hidden", False, "an integer"), ("dropout", "0.1", "a number")):
        assert train({key: value}) == 2
        assert f"train.{key} must be {want}, got {value!r}" in capsys.readouterr().err


def test_fcr_exit_code_when_nothing_certifies(workdir, tmp_path):
    # a zero absolute threshold can never be met by a strict inequality
    rc = main(["fcr", "--config", workdir["config"], "--out", workdir["out"], "--eta", "0.0"])
    assert rc == 4


def test_exit_code_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["train", "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"smoothing": {"wat": 1}}))
    assert main(["train", "--config", str(nested)]) == 2

    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    assert main(["train", "--config", str(garbled)]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_exit_code_missing_models(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "empty")])
    assert rc == 3
    assert "train command" in capsys.readouterr().err


def _write_model_pair(out, write):
    """Call write(path) for both model files of an output directory."""
    out.mkdir()
    for name in ("model.bin", "model_noise.bin"):
        write(out / name)


def test_exit_code_weights_not_matching_meta(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    gcn = GcnModel.init(np.random.default_rng(0), d=8, hidden=4)
    meta = {"backbone": "sage", "d": 8, "hidden": 4, "classes": 2, "layers": 2, "activation": "relu"}

    def write(path):
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **gcn.params())

    _write_model_pair(tmp_path / "run", write)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "model.bin" in err and "sage" in err


def test_exit_code_unreadable_model_file(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    _write_model_pair(tmp_path / "text", lambda path: path.write_text("not a model\n"))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "text")]) == 3
    assert "model.bin: not a model file" in capsys.readouterr().err

    def no_meta(path):
        with open(path, "wb") as fh:
            np.savez(fh, W1=np.zeros((8, 4)))

    _write_model_pair(tmp_path / "bare", no_meta)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "bare")]) == 3
    assert "model.bin: not a model file" in capsys.readouterr().err


def test_exit_code_model_width_not_matching_dataset(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    _, X, _, _ = load_world(build_config(cfg, make_parser().parse_args(["certify"])))
    model = GcnModel.init(np.random.default_rng(0), d=X.shape[1] + 1, hidden=4)
    _write_model_pair(tmp_path / "run", lambda path: save_model(model, path))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "model.bin" in err and f"{X.shape[1] + 1} attributes" in err


def test_exit_code_missing_dataset_files(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset": {
                    "fixture": None,
                    "edges": str(tmp_path / "nope.txt"),
                    "attributes": str(tmp_path / "nope.csv"),
                    "labels": str(tmp_path / "nope2.csv"),
                }
            }
        )
    )
    assert main(["train", "--config", str(cfg)]) == 3


def _write_file_dataset(tmp_path, attributes="1.0,2.0\n3.0,4.0\n5.0,6.0\n", labels="0,0,0\n1,1,1\n2,1,0\n"):
    """A three-node dataset in files plus a config that points at them."""
    (tmp_path / "e.txt").write_text("0 1\n1 2\n")
    (tmp_path / "x.csv").write_text(attributes)
    (tmp_path / "y.csv").write_text(labels)
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset": {
                    "fixture": None,
                    "edges": str(tmp_path / "e.txt"),
                    "attributes": str(tmp_path / "x.csv"),
                    "labels": str(tmp_path / "y.csv"),
                }
            }
        )
    )
    return str(cfg)


def test_exit_code_non_finite_attributes(tmp_path, capsys):
    cfg = _write_file_dataset(tmp_path, attributes="1.0,2.0\n3.0,inf\n5.0,6.0\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "x.csv" in err and "node 1" in err


@pytest.mark.parametrize("empty", ["attributes", "labels"])
def test_exit_code_empty_dataset_file(tmp_path, capsys, empty):
    cfg = _write_file_dataset(tmp_path, **{empty: ""})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert {"attributes": "x.csv", "labels": "y.csv"}[empty] in err


@pytest.mark.parametrize(
    "dataset, keys",
    [
        ({"edges": "nope.txt", "attributes": "nope.csv", "labels": "nope2.csv"}, "dataset.edges, dataset.attributes, dataset.labels"),
        ({"fixture": "sbm200", "labels": "y.csv"}, "dataset.labels"),
        ({"fixture": "sbm200", "fixture_seed": 3}, "dataset.fixture_seed"),
        ({"fixture": None, "fixture_seed": 0, "edges": "e.txt", "attributes": "x.csv", "labels": "y.csv"}, "dataset.fixture_seed"),
    ],
)
def test_dataset_keys_the_chosen_dataset_would_ignore_are_config_errors(tmp_path, capsys, dataset, keys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": dataset}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert keys in err and "dataset.fixture" in err
    assert not (tmp_path / "run" / "model.bin").exists()


def test_unknown_fixture_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"fixture": "mystery"}}))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_diverging_training_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"fixture": "sbm-small"}, "train": {"lr": 1e300}}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "non-finite loss at epoch" in errors[0] and "train.lr=1e+300" in errors[0]


def _args(argv):
    return make_parser().parse_args(argv)


def test_fixture_seed_reaches_the_generator(tmp_path, monkeypatch):
    monkeypatch.delenv("ELEGANT_SEED", raising=False)

    def world(fixture, seed=None):
        ds = {"fixture": fixture} if seed is None else {"fixture": fixture, "fixture_seed": seed}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": ds}))
        g, X, labels, _ = load_world(build_config(str(path), _args(["train"])))
        return g.edge_array().tobytes(), X.tobytes(), labels.y.tobytes(), labels.s.tobytes()

    # an explicit seed, 0 included, picks the world; no seed keeps each fixture's default
    assert world("sbm-small", 0) != world("sbm-small", 7)
    assert world("sbm-small") == world("sbm-small", 7)
    assert world("sbm-german") == world("sbm-german", 0)


def test_seed_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"seed": 5}))

    monkeypatch.delenv("ELEGANT_SEED", raising=False)
    assert build_config(None, _args(["train"]))["seed"] == 0
    assert build_config(str(cfg_file), _args(["train"]))["seed"] == 5

    monkeypatch.setenv("ELEGANT_SEED", "9")
    assert build_config(str(cfg_file), _args(["train"]))["seed"] == 9
    assert build_config(str(cfg_file), _args(["train", "--seed", "3"]))["seed"] == 3


def test_bad_env_seed(monkeypatch):
    monkeypatch.setenv("ELEGANT_SEED", "many")
    assert main(["train"]) == 2


def test_eta_flags_are_exclusive():
    with pytest.raises(SystemExit):
        _args(["certify", "--eta", "0.1", "--eta-mult", "1.5"])


def test_eta_flag_overrides_config(monkeypatch):
    monkeypatch.delenv("ELEGANT_SEED", raising=False)
    cfg = build_config(None, _args(["certify", "--eta", "0.2"]))
    assert cfg["eta"] == {"multiplier": 1.25, "value": 0.2}
    cfg = build_config(None, _args(["certify", "--eta-mult", "2.0"]))
    assert cfg["eta"] == {"multiplier": 2.0, "value": None}


def test_sweep_flags_land_in_the_config(tmp_path, monkeypatch):
    monkeypatch.delenv("ELEGANT_SEED", raising=False)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"sweep": {"axis": "beta", "values": [0.7], "thresholds": [0, 4]}}))
    assert build_config(str(cfg_file), _args(["sweep"]))["sweep"] == {"axis": "beta", "values": [0.7], "thresholds": [0, 4]}
    argv = ["sweep", "--axis", "sigma", "--values", "0.5,5", "--thresholds", ""]
    assert build_config(str(cfg_file), _args(argv))["sweep"] == {"axis": "sigma", "values": [0.5, 5.0], "thresholds": []}


def test_load_world_from_explicit_files(tmp_path, monkeypatch):
    monkeypatch.delenv("ELEGANT_SEED", raising=False)
    root = bundled_fixture_dir("sbm200")
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(
        json.dumps(
            {
                "dataset": {
                    "fixture": None,
                    "edges": os.path.join(root, "edges.txt"),
                    "attributes": os.path.join(root, "features.csv"),
                    "labels": os.path.join(root, "labels.csv"),
                }
            }
        )
    )
    cfg = build_config(str(cfg_file), _args(["train"]))
    g, X, labels, split = load_world(cfg)
    assert g.n == 200
    assert X.min() >= 0.0 and X.max() <= 1.0
    assert len(split.vulnerable) >= 1


def test_jobs_must_be_positive():
    assert main(["train", "--jobs", "0"]) == 2


@pytest.mark.parametrize("jobs", [0, -3, 2.5, "4", True])
def test_jobs_from_config_file_must_be_a_positive_int(tmp_path, capsys, jobs):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"jobs": jobs}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    want = "a positive integer" if type(jobs) is int else "an integer"
    assert f"jobs must be {want}, got {jobs!r}" in capsys.readouterr().err


def _leaves(block, prefix=""):
    """(dotted key, default) for every leaf of a DEFAULTS block."""
    for key, default in block.items():
        if isinstance(default, dict):
            yield from _leaves(default, f"{prefix}{key}.")
        else:
            yield prefix + key, default


def _nested(key, value):
    """The config that sets one dotted key."""
    block, _, leaf = key.rpartition(".")
    return {block: {leaf: value}} if block else {leaf: value}


@pytest.mark.parametrize("key, default", list(_leaves(DEFAULTS)), ids=[key for key, _ in _leaves(DEFAULTS)])
def test_every_config_key_rejects_a_value_of_another_type(tmp_path, capsys, key, default):
    # an object fits no key, true only a boolean one and "x" only a string one
    for value in ({"x": 1}, "x" if isinstance(default, bool) else True):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(_nested(key, value)))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.endswith(f", got {value!r}\n") and err.count("\n") == 1


BAD_VALUES = [
    # values that ran as something else
    ("train", {"dataset": {"fixture": "sbm-small", "fixture_seed": 7.9}}, [], "dataset.fixture_seed must be an integer, got 7.9"),
    ("fcr", {"fcr": {"ratio": 0.5, "count": 3, "seeds": [1.5]}}, [], "fcr.seeds[0] must be an integer, got 1.5"),
    ("attack", {"attack": {"grid": [[1.5, 0.1]]}}, [], "attack.grid[0][0] must be an integer, got 1.5"),
    ("attack", {"attack": {"grid": [[1]]}}, [], "attack.grid[0] must be a list of 2 items, got [1]"),
    ("certify", {"eta": {"value": "0.1"}}, [], "eta.value must be a number, got '0.1'"),
    ("certify", {"eta": {"multiplier": "2"}}, [], "eta.multiplier must be a number, got '2'"),
    ("sweep", {"sweep": {"values": [0.1, "0.2"]}}, [], "sweep.values[1] must be a number, got '0.2'"),
    # values that stopped with a traceback
    ("train", {"seed": 2.5}, [], "seed must be an integer, got 2.5"),
    ("train", {"seed": "3"}, [], "seed must be an integer, got '3'"),
    ("train", {"splits": {"vul_frac": "0.05"}}, [], "splits.vul_frac must be a number, got '0.05'"),
    ("fcr", {"fcr": {"count": 2.5}}, [], "fcr.count must be an integer, got 2.5"),
    ("fcr", {"fcr": {"ratio": "0.9"}}, [], "fcr.ratio must be a number, got '0.9'"),
    ("sweep", {"sweep": {"thresholds": "abc"}}, [], "sweep.thresholds must be a list, got 'abc'"),
    ("train", {"backbone": ["gcn"]}, [], "backbone must be a string, got ['gcn']"),
    ("train", {"out": 5}, [], "out must be a string, got 5"),
    ("certify", {"smoothing": 3}, [], "smoothing must be an object, got 3"),
    # non-finite numbers
    ("certify", {"smoothing": {"n_outer": 60, "n_inner": 40, "sigma": float("inf")}}, [], "smoothing.sigma must be a number, got inf"),
    ("certify", {"smoothing": {"n_outer": 60, "n_inner": 40, "sigma": float("nan")}}, [], "smoothing.sigma must be a number, got nan"),
    ("certify", {}, ["--eta", "inf"], "eta.value must be a number, got inf"),
    ("certify", {}, ["--eta", "nan"], "eta.value must be a number, got nan"),
    ("attack", {}, ["--eta-mult", "inf"], "eta.multiplier must be a number, got inf"),
    ("certify", {"eta": {"value": 2**1024}}, [], f"eta.value must be a number, got {2**1024}"),
    ("sweep", {}, ["--values", "0.1,inf"], "sweep.values[1] must be a number, got inf"),
    # a key that is gone: eta.value alone decides absolute or relative
    ("certify", {"eta": {"mode": "absolute", "value": 0.3}}, [], "unknown config key 'eta.mode'"),
    ("attack", {"eta": {"mode": "relative"}}, [], "unknown config key 'eta.mode'"),
    # ranges that the library checks
    ("train", {"splits": {"train_frac": 0.9}}, [], "splits: train_frac + val_frac must stay below 1, got 0.9 + 0.45"),
    ("fcr", {"fcr": {"ratio": 1.5, "count": 3}}, [], "fcr: ratio must lie in (0, 1], got 1.5"),
    ("train", {"train": {"train_noise_flip_prob": 1.5}}, [], "train_noise_flip_prob must lie in [0, 1], got 1.5"),
    ("train", {"train": {"train_noise_flip_prob": -0.1}}, [], "train_noise_flip_prob must lie in [0, 1], got -0.1"),
    ("train", {"train": {"weight_decay": -1.0}}, [], "weight_decay must be nonnegative and finite, got -1.0"),
    ("train", {"train": {"train_noise_std": -1.0}}, [], "train_noise_std must be nonnegative and finite, got -1.0"),
]


@pytest.mark.parametrize("command, config, argv, message", BAD_VALUES, ids=[message for *_, message in BAD_VALUES])
def test_bad_config_values_exit_2_with_one_error_line(workdir, tmp_path, capsys, command, config, argv, message):
    out = _copy_models(workdir, tmp_path)
    cfg = _write_config(tmp_path / "c.json", config)
    assert main([command, "--config", cfg, "--out", str(out), *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_paths_exit_2_with_one_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["train", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: config file {tmp_path}: Is a directory\n"
    assert main(["train", "--out", str(taken)]) == 2
    assert capsys.readouterr().err == f"error: out directory {taken}: File exists\n"


def test_integral_floats_run_as_integers(workdir, tmp_path):
    ints = {"seed": 0, "jobs": 1, "smoothing": {"n_outer": 60, "n_inner": 40, "k_max": 8}, "fcr": {"ratio": 0.5, "count": 3}, "attack": {"grid": [[1, 0.1]]}}
    floats = {"seed": 0.0, "jobs": 1.0, "smoothing": {"n_outer": 60.0, "n_inner": 40.0, "k_max": 8.0}, "fcr": {"ratio": 0.5, "count": 3.0}, "attack": {"grid": [[1.0, 0.1]]}}
    runs = []
    for name, extra in (("ints", ints), ("floats", floats)):
        (tmp_path / name).mkdir()
        _certify_with(workdir, tmp_path / name, **extra)
        runs.append((tmp_path / name / "run" / "certify.json").read_bytes())
    assert runs[0] == runs[1]
