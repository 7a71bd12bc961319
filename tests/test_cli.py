"""End-to-end command line runs on the bundled dataset."""

import csv
import json
import os

import numpy as np
import pytest

from elegant.cli import ConfigError, build_config, load_world, main, make_parser, resolve_eta
from elegant.fixtures import bundled_fixture_dir
from elegant.gnn import GcnModel, save_model


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


def test_fcr_artifact_schema(workdir):
    rc = main(["fcr", "--config", workdir["config"], "--out", workdir["out"]])
    assert rc == 0
    with open(os.path.join(workdir["out"], "fcr.json")) as fh:
        fcr = json.load(fh)
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


def test_fcr_certifies_the_bundled_graph(workdir):
    # the defaults were tuned so this fixture certifies; guard the regression
    with open(os.path.join(workdir["out"], "fcr.json")) as fh:
        fcr = json.load(fh)
    assert fcr["fcr"] == 1.0
    assert fcr["mean_eps_A"] >= 1.0


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


def _certify_with(workdir, tmp_path, **extra):
    """certify.json of a certify run on workdir's models under a config with extra top-level keys."""
    out = tmp_path / "run"
    out.mkdir()
    for name in ("model.bin", "model_noise.bin"):
        (out / name).write_bytes(open(os.path.join(workdir["out"], name), "rb").read())
    cfg = _write_config(tmp_path / "c.json", extra)
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "certify.json") as fh:
        return json.load(fh)


def test_absolute_eta_from_config_file(workdir, tmp_path):
    report = _certify_with(workdir, tmp_path, eta={"mode": "absolute", "value": 0.1})
    assert report["eta"] == 0.1
    assert report["config"]["eta"]["provenance"] == "absolute"


def test_absolute_eta_without_value_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("ELEGANT_SEED", raising=False)
    cfg = build_config(_write_config(tmp_path / "c.json", {"eta": {"mode": "absolute"}}), _args(["certify"]))
    with pytest.raises(ConfigError, match="absolute eta needs a 'value'"):
        resolve_eta(cfg, None, None, None, None, None)  # the absolute branch reads no model or data


def test_smoothing_values_keep_their_default_types(workdir, tmp_path):
    report = _certify_with(workdir, tmp_path, smoothing={"sigma": 1, "n_outer": 60.0, "n_inner": 40})
    assert report["config"]["sigma"] == 1.0 and isinstance(report["config"]["sigma"], float)
    assert report["config"]["n_outer"] == 60 and isinstance(report["config"]["n_outer"], int)


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


def test_unknown_fixture_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"fixture": "mystery"}}))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def _args(argv):
    return make_parser().parse_args(argv)


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
    assert cfg["eta"] == {"mode": "absolute", "value": 0.2}
    cfg = build_config(None, _args(["certify", "--eta-mult", "2.0"]))
    assert cfg["eta"] == {"mode": "relative", "multiplier": 2.0}


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
    assert "jobs must be a positive integer" in capsys.readouterr().err
