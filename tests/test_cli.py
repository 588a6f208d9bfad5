"""End-to-end tests for the command-line interface (in-process)."""

import argparse
import json
import math
from pathlib import Path

import pytest

from evidkit.cli import main
from evidkit.datasets import load_csv, make_toy4, save_csv
from evidkit.metrics import RecordColumns, save_records
from evidkit.network import dense_specs, init_network, save_checkpoint


def write_cfg(tmp_path, name="cfg.json", **over):
    doc = {
        "name": "cli-tiny",
        "train_data": {"kind": "toy4", "d": 2, "seed": 0},
        "hidden_dims": [4],
        "loss": "ev_mse",
        "activation": "relu",
        "epochs": 3,
        "batch_size": 2,
        "seed": 1,
    }
    doc.update(over)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def some_records(path, ood=False, softmax=False):
    max_softmax = [0.9, 0.8, 0.5] if softmax else [math.nan] * 3
    save_records(
        RecordColumns([0, 1, 0], [0, 1, 1], [0.1, 0.4, 0.9], [5.0, 0.5, 0.05], max_softmax, [ood] * 3),
        path,
    )


# --- parsing and exit codes --------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_unknown_command_and_missing_args_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["gen-data", "--kind", "toy4"]) == 1  # missing --out
    assert "--out" in capsys.readouterr().err


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys):
    main(["--help"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["frobnicate"]) == 1
    assert main(["report", "--records", str(tmp_path / "none.csv")]) == 1
    assert "records file not found" in capsys.readouterr().err
    assert main(["gen-data", "--kind", "toy4", "--out", str(tmp_path / "t.csv")]) == 0
    assert main(["--help"]) == 0
    assert built == []


# --- gen-data ------------------------------------------------------------------


def test_gen_data_toy4(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert main(["gen-data", "--kind", "toy4", "--out", str(out), "--seed", "3"]) == 0
    assert "wrote 4 samples (K=4, D=2, ood=False)" in capsys.readouterr().out
    ds = load_csv(out)
    assert ds.n == 4 and ds.k == 4 and not ds.ood
    assert (tmp_path / "toy.csv.meta.json").exists()


def test_gen_data_blobs_with_shift_is_ood(tmp_path):
    out = tmp_path / "ood.csv"
    code = main(
        [
            "gen-data", "--kind", "blobs", "--out", str(out),
            "--k", "2", "--n-per-class", "4", "--shift", "30,30",
        ]
    )
    assert code == 0
    ds = load_csv(out)
    assert ds.ood and ds.n == 8 and ds.k == 2


def test_gen_data_bad_shift_exits_one(tmp_path, capsys):
    code = main(
        ["gen-data", "--kind", "blobs", "--out", str(tmp_path / "x.csv"), "--shift", "a,b"]
    )
    assert code == 1
    assert "comma-separated numbers" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--stddev", "--radius", "--shift"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_data_names_a_non_finite_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    text = f"{value},0" if flag == "--shift" else value
    assert main(["gen-data", "--kind", "blobs", "--out", str(out), flag, text]) == 1
    assert f"error: dataset.{flag[2:]}: must be " in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_refuses_a_flag_its_kind_does_not_read(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert main(["gen-data", "--kind", "toy4", "--out", str(out), "--k", "9"]) == 1
    assert capsys.readouterr().err == "error: dataset.k: only blobs data takes k\n"
    assert not out.exists()


# --- train ----------------------------------------------------------------------


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert "final test accuracy:" in capsys.readouterr().out
    for f in ("epochs.csv", "checkpoint.json", "records.csv", "metrics.json"):
        assert (out / f).exists()
    assert not (out / "ood_records.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["name"] == "cli-tiny"
    assert set(metrics["census"]) == {"le_0.01", "le_0.1", "le_1.0", "gt_1.0"}
    assert "auroc_vacuity" not in metrics
    assert len(RecordColumns.load(out / "records.csv")) == 4


def test_train_with_ood_writes_auroc(tmp_path):
    blob = {"kind": "blobs", "k": 2, "n_per_class": 5, "stddev": 0.5, "seed": 3}
    cfg = write_cfg(
        tmp_path,
        train_data=blob,
        ood_data={**blob, "seed": 4, "shift": [30.0, 30.0]},
        epochs=2,
    )
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "ood_records.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["auroc_vacuity"] <= 1.0
    assert "mean_vacuity_ood" in metrics


def test_train_summarizes_an_ood_flagged_test_set(tmp_path):
    # its mean vacuity is that of every test record, as sweep reports it
    blob = {"kind": "blobs", "k": 3, "n_per_class": 10, "seed": 3}
    cfg = write_cfg(
        tmp_path, train_data=blob, test_data={**blob, "seed": 4, "shift": [3, -4]}, epochs=2
    )
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    records = RecordColumns.load(out / "records.csv")
    assert len(records) == 30 and records.is_ood.all()
    assert json.loads((out / "metrics.json").read_text())["mean_vacuity"] == records.mean_vacuity


@pytest.mark.parametrize("ood_shift", [[3, -4], None], ids=["ood-flagged", "ood-unflagged"])
def test_train_scores_ood_by_each_record_flag_as_report_does(tmp_path, ood_shift):
    # the test set is shifted, so flagged OOD. With a flagged OOD set no
    # record is in-distribution, and there is no AUROC; with an unflagged
    # one, the test records are the positives. train wrote
    # auroc(ood vacuity, test vacuity) for both.
    blob = {"kind": "blobs", "k": 3, "n_per_class": 10, "seed": 3}
    ood = {**blob, "seed": 5, "stddev": 3.0}
    cfg = write_cfg(
        tmp_path, train_data=blob, test_data={**blob, "seed": 4, "shift": [3, -4]},
        ood_data=ood if ood_shift is None else {**ood, "shift": ood_shift}, epochs=2,
    )
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    got = json.loads((out / "metrics.json").read_text())["auroc_vacuity"]
    files = ["--records", str(out / "records.csv"), "--ood-records", str(out / "ood_records.csv")]
    if ood_shift is not None:
        assert got is None
        assert main(["report", *files, "--out", str(tmp_path / "rep")]) == 1
    else:
        assert main(["report", *files, "--out", str(tmp_path / "rep")]) == 0
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["score_kind"] == "vacuity" and got == summary["auroc"] != 0.5


def test_train_config_errors_exit_one(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "none.json")]) == 1
    assert "config file not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, learning_rate=0.1)
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error: learning_rate: unknown field\n" in capsys.readouterr().err
    # a value of the wrong JSON type is named by its field, not a traceback;
    # so is a list entry of the wrong type and a non-finite float
    blobs = {"kind": "blobs", "k": 2, "d": 2}
    for over, field in (
        (dict(hidden_dims=5), "hidden_dims"),
        (dict(epochs="2"), "epochs"),
        (dict(optimizer={"lr": "0.1"}), "optimizer.lr"),
        (dict(train_data={"kind": "blobs", "k": "3"}), "train_data.k"),
        (dict(zero_ev_taus=["a"]), "zero_ev_taus"),
        (dict(zero_ev_taus=[float("nan")]), "zero_ev_taus"),
        (dict(hidden_dims=["a"]), "hidden_dims"),
        (dict(hidden_dims=[2.5]), "hidden_dims"),
        (dict(train_data=blobs | {"means": [[0.0, "x"], [1.0, 1.0]]}), "train_data.means"),
        (dict(train_data=blobs | {"means": [[0.0, float("inf")], [1.0, 1.0]]}), "train_data.means"),
        (dict(train_data=blobs | {"means": [[0.0, 0.0], [1.0]]}), "train_data.means"),
        (dict(test_data=blobs | {"shift": [0.0, float("nan")]}), "test_data.shift"),
    ):
        cfg = write_cfg(tmp_path, **over)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert f"error: {field}: expected " in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("momentum", -3, "must be in [0, 1)"),
        ("beta1", 1.5, "must be in [0, 1)"),
        ("beta2", 1.0, "must be in [0, 1)"),
        ("eps", 0.0, "must be > 0"),
    ],
)
def test_train_rejects_out_of_range_optimizer_settings(
    tmp_path, capsys, field, value, message
):
    cfg = write_cfg(tmp_path, optimizer={"kind": "adam_like", "lr": 0.01, field: value})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert f"error: optimizer.{field}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_train_divergence_exits_two(tmp_path, capsys):
    import numpy as np

    cfg = write_cfg(tmp_path, optimizer={"kind": "sgd_momentum", "lr": 1e160}, epochs=5)
    with np.errstate(over="ignore"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_train_divergence_found_by_an_epoch_evaluation_exits_two(tmp_path, capsys):
    import numpy as np

    # one mini-batch per epoch, so the epoch's evaluation of the training set
    # is the first to meet the logits its step overflowed
    blobs = {"kind": "blobs", "k": 3, "n_per_class": 10, "seed": 1}
    cfg = write_cfg(
        tmp_path, train_data=blobs, batch_size=32, optimizer={"kind": "sgd_momentum", "lr": 1e300}
    )
    with np.errstate(over="ignore"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == "error: non-finite logits at epoch 0, evaluating train_data\n"


def test_train_refuses_a_shift_on_toy4_data(tmp_path, capsys):
    cfg = write_cfg(tmp_path, train_data={"kind": "toy4", "shift": [50, 50]})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == "error: train_data.shift: only blobs data takes shift\n"
    assert not (tmp_path / "r").exists()
    out = tmp_path / "toy.csv"
    assert main(["gen-data", "--kind", "toy4", "--out", str(out), "--shift", "50,50"]) == 1
    assert capsys.readouterr().err == "error: dataset.shift: only blobs data takes shift\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"kind": "toy4", "path": "nowhere.csv", "k": 9, "n_per_class": 3},
            "train_data.k: only blobs data takes k",
        ),
        (
            {"kind": "csv", "path": "t.csv", "seed": 5, "k": 7, "d": 9},
            "train_data.d: only toy4 or blobs data takes d",
        ),
        ({"kind": "csv", "path": "adir"}, "train_data.path: dataset file not found: adir"),
    ],
    ids=["toy4-k-n_per_class-path", "csv-seed-k-d", "csv-directory"],
)
def test_train_refuses_data_fields_it_would_ignore_or_not_read(
    tmp_path, monkeypatch, capsys, data, message
):
    monkeypatch.chdir(tmp_path)
    save_csv(make_toy4(2, 0), "t.csv")
    (tmp_path / "adir").mkdir()
    cfg = write_cfg(tmp_path, train_data=data)
    assert main(["train", "--config", str(cfg), "--out", "r"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r").exists()


# --- evaluate --------------------------------------------------------------------


def test_evaluate_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    data = tmp_path / "toy.csv"
    assert main(["gen-data", "--kind", "toy4", "--out", str(data), "--seed", "0"]) == 0
    capsys.readouterr()
    records_out = tmp_path / "eval_records.csv"
    code = main(
        [
            "evaluate",
            "--checkpoint", str(out / "checkpoint.json"),
            "--data", str(data),
            "--activation", "relu",
            "--out", str(records_out),
        ]
    )
    assert code == 0
    assert "evaluated 4 samples" in capsys.readouterr().out
    assert len(RecordColumns.load(records_out)) == 4


def test_evaluate_class_mismatch_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path)  # toy4: K=4 logits
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    data = tmp_path / "b.csv"
    assert main(["gen-data", "--kind", "blobs", "--out", str(data), "--k", "2",
                 "--n-per-class", "3"]) == 0
    capsys.readouterr()
    code = main(
        ["evaluate", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data)]
    )
    assert code == 1
    assert "4 logits but dataset has 2 classes" in capsys.readouterr().err


def test_evaluate_a_directory_as_data_exits_one_naming_the_field(tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(init_network(dense_specs(2, [4], 4), seed=0), ckpt)
    out = tmp_path / "r.csv"
    code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(tmp_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: data.path: dataset file not found: {tmp_path}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "--records", "adir", "--out", "r"], "records file not found: adir"),
        (["train", "--config", "adir", "--out", "r"], "config file not found: adir"),
        (["train", "--config", "cfg.json/x", "--out", "r"], "config file not found: cfg.json/x"),
        (["sweep", "--config", "adir", "--grid", "0", "--out", "r"], "config file not found: adir"),
        (["gradcheck", "--config", "adir"], "config file not found: adir"),
        (
            ["evaluate", "--checkpoint", "adir", "--data", "t.csv", "--out", "r"],
            "checkpoint file not found: adir",
        ),
        (
            ["evaluate", "--checkpoint", "ckpt.json", "--data", "u.csv", "--out", "r"],
            "sidecar file not found: u.csv.meta.json",
        ),
    ],
    ids=[
        "report-records", "train-config", "train-config-under-a-file",
        "sweep-config", "gradcheck-config", "evaluate-checkpoint", "evaluate-data-sidecar",
    ],
)
def test_an_input_path_that_is_no_file_exits_one_naming_its_role(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    write_cfg(tmp_path)
    save_checkpoint(init_network(dense_specs(2, [4], 4), seed=0), "ckpt.json")
    save_csv(make_toy4(2, 0), "t.csv")
    save_csv(make_toy4(2, 0), "u.csv")
    (tmp_path / "u.csv.meta.json").unlink()
    (tmp_path / "u.csv.meta.json").mkdir()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not (tmp_path / "r").exists()


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _first_layer(doc, layer):
    return {**doc, "layers": [layer] + doc["layers"][1:]}


# edits of a valid checkpoint, each of which must fail as one named error
MALFORMED_CHECKPOINTS = {
    "json-list": (lambda doc: [doc], "checkpoint {bad}: expected a JSON object"),
    "no-layers": (lambda doc: _without(doc, "layers"), "checkpoint layers: required"),
    "layers-not-a-list": (lambda doc: {**doc, "layers": 3}, "checkpoint layers: expected list"),
    "null-seed": (lambda doc: {**doc, "seed": None}, "checkpoint seed: expected int, got None"),
    "layer-without-in_dim": (
        lambda doc: _first_layer(doc, _without(doc["layers"][0], "in_dim")),
        "checkpoint layer 0 in_dim: required",
    ),
    "hidden-a-string": (
        lambda doc: _first_layer(doc, {**doc["layers"][0], "hidden": "no"}),
        "checkpoint layer 0 hidden: expected bool, got 'no'",
    ),
    "fractional-in_dim": (
        lambda doc: _first_layer(doc, {**doc["layers"][0], "in_dim": 2.5}),
        "checkpoint layer 0 in_dim: expected int, got 2.5",
    ),
    # both used to load: NumPy took true for 1.0 and reshaped any nesting
    "weights-all-true": (
        lambda doc: _first_layer(doc, {**doc["layers"][0], "weights": [True] * 6}),
        "checkpoint layer 0 weights: expected list[finite float], got [True, True",
    ),
    "weights-nested": (
        lambda doc: _first_layer(doc, {**doc["layers"][0], "weights": [[1.0] * 2] * 3}),
        "checkpoint layer 0 weights: expected list[finite float], got [[1.0, 1.0]",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_evaluate_malformed_checkpoint_exits_one_naming_the_field(tmp_path, capsys, case):
    edit, message = MALFORMED_CHECKPOINTS[case]
    good = tmp_path / "good.json"
    save_checkpoint(init_network(dense_specs(2, [3], 4), seed=0), good)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(good.read_text()))))
    data = tmp_path / "toy.csv"
    assert main(["gen-data", "--kind", "toy4", "--out", str(data)]) == 0
    evaluate = ["evaluate", "--data", str(data), "--out", str(tmp_path / "records.csv")]
    assert main(evaluate + ["--checkpoint", str(good)]) == 0
    capsys.readouterr()
    assert main(evaluate + ["--checkpoint", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message.format(bad=bad)}")


# a dataset sidecar or a checkpoint that save_csv or save_checkpoint would
# not write; each fails as one error line naming the file, and the field when
# there is one (the sidecar cases used to end in tracebacks or a label error)
BAD_FILES = {
    "sidecar-k-a-string": ("sidecar", '{"k": "3"}', ": k: expected int, got '3'"),
    "sidecar-a-json-list": ("sidecar", "[1, 2]", ": expected a JSON object"),
    "sidecar-k-a-bool": ("sidecar", '{"k": true}', ": k: expected int, got True"),
    "sidecar-not-json": ("sidecar", "{not json", ": invalid JSON"),
    "sidecar-not-utf8": ("sidecar", b'{"name": "\xff"}', ": invalid JSON"),
    "checkpoint-not-json": ("checkpoint", "", ": invalid JSON"),
}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_evaluate_bad_sidecar_or_checkpoint_exits_one_naming_the_file(tmp_path, capsys, case):
    kind, content, message = BAD_FILES[case]
    data, checkpoint = tmp_path / "toy.csv", tmp_path / "checkpoint.json"
    assert main(["gen-data", "--kind", "toy4", "--out", str(data)]) == 0
    save_checkpoint(init_network(dense_specs(2, [3], 4), seed=0), checkpoint)
    path = checkpoint if kind == "checkpoint" else tmp_path / "toy.csv.meta.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    capsys.readouterr()
    out = tmp_path / "records.csv"
    evaluate = ["evaluate", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out)]
    assert main(evaluate) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind} {path}{message}")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["dataset", "records"])
def test_non_utf8_csv_exits_one_naming_the_file_and_offset(tmp_path, capsys, kind):
    # a byte that is not UTF-8 used to give only the codec's message, which
    # names neither the file nor where in it the byte is
    path = tmp_path / f"input-{kind}.csv"
    if kind == "dataset":
        assert main(["gen-data", "--kind", "toy4", "--out", str(path)]) == 0
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(init_network(dense_specs(2, [3], 4), seed=0), checkpoint)
        command = ["evaluate", "--checkpoint", str(checkpoint), "--data", str(path),
                   "--out", str(tmp_path / "records.csv")]
    else:
        some_records(path)
        command = ["report", "--records", str(path), "--out", str(tmp_path / "rep")]
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:3] + b"\xff" + lines[2][3:]
    path.write_bytes(b"\n".join(lines))
    offset = len(lines[0]) + len(lines[1]) + 2 + 3
    capsys.readouterr()
    assert main(command) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path} row 3: not UTF-8 text (byte 0xff at offset {offset})"]
    assert not (tmp_path / "records.csv").exists() and not (tmp_path / "rep").exists()


@pytest.mark.parametrize("field", ["seed", "train_data.seed", "test_data.seed", "ood_data.seed"])
def test_train_negative_seed_exits_one_naming_the_field(tmp_path, capsys, field):
    # a negative seed used to reach NumPy's seeding, whose error names no field
    over = {"seed": -1} if field == "seed" else {
        field.split(".")[0]: {"kind": "toy4", "d": 2, "seed": -1}
    }
    cfg = write_cfg(tmp_path, **over)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {field}: must be >= 0\n"
    assert not (tmp_path / "r").exists()


def test_gen_data_negative_seed_exits_one_naming_the_field(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["gen-data", "--kind", "blobs", "--out", str(out), "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: dataset.seed: must be >= 0\n"
    assert not out.exists()


def test_train_network_too_large_to_allocate_exits_two(tmp_path, capsys):
    # 10**12 x 64 float64 weights exceed any 64-bit address space, so the
    # allocation fails at once, whatever the host's overcommit setting
    cfg = write_cfg(tmp_path, train_data={"kind": "toy4", "d": 64}, hidden_dims=[10**12])
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
    assert list(out.iterdir()) == []


def test_read_path_from_train_to_report(tmp_path):
    cfg = write_cfg(tmp_path)  # toy4: K=4 logits, D=2
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    sweep = ["sweep", "--config", str(cfg), "--grid", "0,1", "--out", str(tmp_path / "sw")]
    assert main(sweep) == 0
    ind, ood = tmp_path / "ind.csv", tmp_path / "ood.csv"
    assert main(["gen-data", "--kind", "toy4", "--out", str(ind)]) == 0
    assert main(["gen-data", "--kind", "blobs", "--k", "4", "--n-per-class", "3",
                 "--shift", "9,9", "--out", str(ood)]) == 0
    ck = str(run / "checkpoint.json")
    for data, recs, extra in ((ind, "r.csv", []), (ood, "o.csv", ["--baseline"])):
        argv = ["evaluate", "--checkpoint", ck, "--data", str(data), "--out", str(tmp_path / recs)]
        assert main(argv + extra) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--records", str(tmp_path / "r.csv"),
                 "--ood-records", str(tmp_path / "o.csv"), "--out", str(rep)]) == 0
    summary = json.loads((rep / "summary.json").read_text())
    assert summary["n_ood"] == 12
    assert (rep / "census.csv").read_text().splitlines()[1].endswith(f",{summary['n']}")


# --- gradcheck --------------------------------------------------------------------


def test_gradcheck_narrowed_grid_passes(tmp_path, capsys):
    cfg = tmp_path / "gc.json"
    cfg.write_text(json.dumps({"losses": ["ev_mse"], "activations": ["relu"]}))
    assert main(["gradcheck", "--config", str(cfg), "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "all 4 cells passed" in out
    assert out.count("ok ") == 4


def test_gradcheck_corrupt_cell_exits_two_and_names_it(tmp_path, capsys):
    cfg = tmp_path / "gc.json"
    cfg.write_text(json.dumps({"losses": ["ev_mse"], "activations": ["relu"]}))
    code = main(
        [
            "gradcheck", "--config", str(cfg), "--samples", "3",
            "--corrupt", "ev_mse:relu:none",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "FAIL ev_mse:relu:none" in captured.out
    assert "gradient check failed for ev_mse:relu:none" in captured.err
    assert "worst case" in captured.err


def test_gradcheck_json_writes_the_pinned_oracle_file(tmp_path, capsys):
    # the command that regenerates tests/data/gradcheck_n20_seed7.json
    pinned = Path(__file__).parent / "data" / "gradcheck_n20_seed7.json"
    out = tmp_path / "cells.json"
    assert main(["gradcheck", "--samples", "20", "--seed", "7", "--json", str(out)]) == 0
    with_json = capsys.readouterr()
    assert json.loads(out.read_text()) == json.loads(pinned.read_text())
    assert out.read_bytes() == pinned.read_bytes()
    # stdout does not change with --json
    assert main(["gradcheck", "--samples", "20", "--seed", "7"]) == 0
    assert capsys.readouterr() == with_json


def test_gradcheck_json_is_written_when_a_cell_fails(tmp_path, capsys):
    cfg = tmp_path / "gc.json"
    cfg.write_text(json.dumps({"losses": ["ev_mse"], "activations": ["relu"]}))
    out = tmp_path / "cells.json"
    argv = ["gradcheck", "--config", str(cfg), "--samples", "3", "--corrupt", "ev_mse:relu:none"]
    assert main(argv + ["--json", str(out)]) == 2
    cells = {c["loss"] + ":" + c["act"] + ":" + c["reg"]: c for c in json.loads(out.read_text())}
    assert len(cells) == 4 and not cells["ev_mse:relu:none"]["passed"]
    assert float.fromhex(cells["ev_mse:relu:none"]["max_err"]) > 1e-4


def test_gradcheck_corrupt_that_names_no_cell_exits_one(tmp_path, capsys):
    assert main(["gradcheck", "--samples", "2", "--corrupt", "ev_mse:exp:nonexistent"]) == 1
    assert "ev_mse:exp:nonexistent" in capsys.readouterr().err
    # a real cell that the config's grid leaves out
    cfg = tmp_path / "gc.json"
    cfg.write_text(json.dumps({"losses": ["ev_mse"], "activations": ["relu"]}))
    assert main(["gradcheck", "--config", str(cfg), "--corrupt", "ev_mse:exp:none"]) == 1
    captured = capsys.readouterr()
    assert "ev_mse:exp:none" in captured.err and captured.out == ""


def test_gradcheck_config_rejects_unknown_fields(tmp_path, capsys):
    cfg = tmp_path / "gc.json"
    doc = {"sampels": 3, "losses": ["ev_log"], "activations": ["exp"], "regularizers": ["none"]}
    cfg.write_text(json.dumps(doc))
    assert main(["gradcheck", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert f"error: config {cfg}: sampels: unknown field" in captured.err
    assert captured.out == ""


def test_gradcheck_negative_seed_names_the_flag(capsys):
    assert main(["gradcheck", "--samples", "1", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed: must be >= 0\n" and captured.out == ""


def test_gradcheck_flag_validation(tmp_path, capsys):
    assert main(["gradcheck", "--samples", "0"]) == 1
    assert "--samples" in capsys.readouterr().err
    assert main(["gradcheck", "--h", "-1"]) == 1
    assert main(["gradcheck", "--tol", "0"]) == 1
    # an infinite tol would pass every cell and switch the oracle off
    for flag in ("--h", "--tol"):
        for value in ("nan", "inf"):
            assert main(["gradcheck", "--samples", "1", flag, value]) == 1
            assert f"error: {flag}: must be finite" in capsys.readouterr().err
    assert main(["gradcheck", "--config", "/no/such.json"]) == 1
    for text in ("[1]", "{bad"):
        cfg = tmp_path / "gc.json"
        cfg.write_text(text)
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        assert f"config {cfg}:" in capsys.readouterr().err
    for doc, field in (
        ({"losses": 5}, "losses"),
        ({"activations": "exp"}, "activations"),
        ({"regularizers": ["bogus"]}, "regularizers"),
    ):
        cfg = tmp_path / "gc.json"
        cfg.write_text(json.dumps(doc))
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        assert f"config {cfg}: {field}: " in capsys.readouterr().err
    # samples, h and tol come from their flags only
    for field in ("samples", "h", "tol"):
        cfg.write_text(json.dumps({field: 1}))
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: config {cfg}: {field}: unknown field\n"


# --- sweep -------------------------------------------------------------------------


def test_sweep_writes_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epochs=2)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--grid", "0,1", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == (
        "lambda1,seed,final_train_acc,final_test_acc,"
        "census_le_0.01,census_le_0.1,census_le_1.0,census_gt_1.0,mean_test_vacuity"
    )
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    stdout = capsys.readouterr().out
    assert "lambda1=0:" in stdout and "lambda1=1:" in stdout


@pytest.mark.parametrize("grid", ["nan", "inf", "0,-1", "0,nan"])
def test_sweep_checks_every_grid_value_before_the_first_run(tmp_path, capsys, grid):
    cfg = write_cfg(tmp_path, epochs=1)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --grid: must be >= 0 and finite, got ")
    assert captured.out == "" and not out.exists()


def test_sweep_flag_validation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epochs=1)
    assert main(["sweep", "--config", str(cfg), "--grid", ""]) == 1
    assert "--grid" in capsys.readouterr().err
    # --workers is gone, so argparse refuses it as it refuses any unknown flag
    assert main(["sweep", "--config", str(cfg), "--grid", "0", "--workers", "0"]) == 1
    assert "unrecognized arguments: --workers 0" in capsys.readouterr().err


# --- report -------------------------------------------------------------------------


def test_census_exact_counts(tmp_path):
    recs = tmp_path / "r.csv"
    mean_ev = [0.005, 0.05, 0.5, 5.0]
    save_records(RecordColumns([0] * 4, [0] * 4, [0.5] * 4, mean_ev, [math.nan] * 4, [False] * 4), recs)
    assert main(["report", "--records", str(recs), "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "census.csv").read_text() == "le_0.01,le_0.1,le_1.0,gt_1.0,n\n1,2,3,1,4\n"


def test_report_uses_evidkit_out_env(tmp_path, monkeypatch):
    recs = tmp_path / "r.csv"
    some_records(recs)
    monkeypatch.setenv("EVIDKIT_OUT", str(tmp_path / "envout"))
    assert main(["report", "--records", str(recs)]) == 0
    for f in ("accuracy_vacuity.csv", "topk.csv", "census.csv", "summary.json"):
        assert (tmp_path / "envout" / f).exists()


def test_the_census_command_is_gone(tmp_path, capsys):
    # report writes census.csv; the census command that wrote the same file is gone
    recs = tmp_path / "r.csv"
    some_records(recs)
    assert main(["census", "--records", str(recs), "--out", str(tmp_path / "c.csv")]) == 1
    captured = capsys.readouterr()
    assert "invalid choice: 'census'" in captured.err and captured.out == ""
    assert not (tmp_path / "c.csv").exists()


def test_report_without_ood_has_null_auroc(tmp_path):
    recs = tmp_path / "r.csv"
    some_records(recs)
    out = tmp_path / "rep"
    assert main(["report", "--records", str(recs), "--out", str(out)]) == 0
    for f in ("accuracy_vacuity.csv", "topk.csv", "census.csv", "summary.json"):
        assert (out / f).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["auroc"] is None and summary["score_kind"] is None
    assert summary["n"] == 3 and summary["n_ood"] == 0
    assert summary["accuracy"] == pytest.approx(2 / 3)
    assert summary["mean_vacuity_ood"] is None


def test_report_rejects_nan_vacuity_exits_one(tmp_path, capsys):
    recs = tmp_path / "r.csv"
    some_records(recs)
    recs.write_text(recs.read_text() + "1,1,nan,0.5,,0\n")
    out = tmp_path / "rep"
    assert main(["report", "--records", str(recs), "--out", str(out)]) == 1
    assert "row 5: vacuity" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_report_with_ood_scores_vacuity(tmp_path):
    recs = tmp_path / "r.csv"
    oods = tmp_path / "o.csv"
    some_records(recs)
    some_records(oods, ood=True)
    out = tmp_path / "rep"
    code = main(
        ["report", "--records", str(recs), "--ood-records", str(oods), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["score_kind"] == "vacuity"
    assert summary["auroc"] == 0.5  # identical score sets rank at chance
    assert summary["n_ood"] == 3


def test_report_prefers_softmax_score_when_available(tmp_path):
    recs = tmp_path / "r.csv"
    oods = tmp_path / "o.csv"
    some_records(recs, softmax=True)
    some_records(oods, ood=True, softmax=True)
    out = tmp_path / "rep"
    assert (
        main(["report", "--records", str(recs), "--ood-records", str(oods), "--out", str(out)])
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["score_kind"] == "one_minus_max_softmax"


def test_report_custom_thresholds_and_fractions(tmp_path):
    recs = tmp_path / "r.csv"
    some_records(recs)
    out = tmp_path / "rep"
    code = main(
        [
            "report", "--records", str(recs), "--out", str(out),
            "--thresholds", "0.5,1.0", "--fractions", "0.5,1.0",
        ]
    )
    assert code == 0
    curve = (out / "accuracy_vacuity.csv").read_text().splitlines()
    assert len(curve) == 3  # header + 2 thresholds
    assert curve[0] == "threshold,coverage,accuracy"
    topk = (out / "topk.csv").read_text().splitlines()
    assert topk[0] == "fraction,count,accuracy"
    assert topk[1].split(",")[1] == "2"  # ceil(0.5 * 3)
