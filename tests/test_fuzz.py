"""Every file the CLI reads, fuzzed: a valid run config, gradcheck config,
checkpoint, dataset sidecar and records CSV, each mutated once and passed to
cli.main in process. A run never raises and returns 0, 1 or 2; a run that
fails prints exactly one stderr line, starting "error: ", and writes no file.

The mutations drop a key or a field, swap in a value of another JSON type
(null, NaN and Infinity among them), nest a value one level deeper, truncate
the file at a byte, or put a non-UTF-8 byte into it. Every value swapped in
is small and every default a dropped key falls back to is desk-sized, so no
mutation makes a large valid value (epochs, widths, samples) and a run that
passes stays a desk-sized run.
"""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit.cli import main
from evidkit.network import dense_specs, init_network, save_checkpoint

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

BLOBS = {"kind": "blobs", "k": 2, "n_per_class": 3, "stddev": 0.5, "radius": 3.0}
RUN_CONFIG = {
    "name": "fuzz",
    "train_data": {**BLOBS, "seed": 1, "means": [[0.0, 0.0], [3.0, 0.0]]},
    "test_data": {**BLOBS, "seed": 2},
    "ood_data": {**BLOBS, "seed": 3, "shift": [4.0, 4.0]},
    "hidden_dims": [3],
    "loss": "ev_log",
    "activation": "exp",
    "inc_reg": "edl_kl",
    "lambda1": 0.5,
    "use_correct_reg": True,
    "optimizer": {"kind": "adam_like", "lr": 0.01, "beta1": 0.9},
    "epochs": 2,
    "batch_size": 4,
    "seed": 3,
    "eval_every": 1,
    "zero_ev_taus": [0.0, 0.1],
}
GRADCHECK_CONFIG = {
    "losses": ["ev_mse"],
    "activations": ["exp"],
    "regularizers": ["edl_kl"],
    "samples": 1,
    "h": 1e-5,
    "tol": 1e-4,
}
# small values of each JSON type, the non-finite numbers among them
SWAPS = ["x", "", True, False, None, 0, 1, -1, 2.5, float("nan"), float("inf"), -float("inf"),
         [], [1], {}, {"a": 1}]
# the same for a CSV field
TOKENS = ["", "x", "nan", "inf", "-1", "0", "2", "0.5", "1e400", "null", "true", "[1]"]


def _paths(node, prefix=()):
    """The key path of every value inside a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


def _mutate_json(data, doc) -> bytes:
    how = data.draw(st.sampled_from(["drop", "swap", "nest", "bytes"]))
    if how == "bytes":
        return _mutate_bytes(data, json.dumps(doc, indent=1).encode())
    doc = copy.deepcopy(doc)
    *parent, key = data.draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for k in parent:
        node = node[k]
    if how == "drop":
        del node[key]
    else:
        node[key] = data.draw(st.sampled_from(SWAPS)) if how == "swap" else [node[key]]
    return json.dumps(doc, indent=1).encode()


def _mutate_csv(data, text: str) -> bytes:
    how = data.draw(st.sampled_from(["drop", "swap", "bytes"]))
    if how == "bytes":
        return _mutate_bytes(data, text.encode())
    rows = [line.split(",") for line in text.splitlines()]
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    at = data.draw(st.integers(0, len(row) - 1))
    if how == "drop":
        del row[at]
    else:
        row[at] = data.draw(st.sampled_from(TOKENS))
    return "".join(",".join(r) + "\n" for r in rows).encode()


def _mutate_bytes(data, text: bytes) -> bytes:
    at = data.draw(st.integers(0, len(text) - 1))
    if data.draw(st.booleans()):
        return text[:at]
    return text[:at] + b"\xff" + text[at:]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid input files, by name: their bytes."""
    base = tmp_path_factory.mktemp("fuzz-inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--kind", "blobs", "--k", "3", "--n-per-class", "2",
                     "--out", str(base / "data.csv")]) == 0
        save_checkpoint(init_network(dense_specs(2, [3], 3), seed=0), base / "checkpoint.json")
        assert main(["evaluate", "--checkpoint", str(base / "checkpoint.json"), "--data",
                     str(base / "data.csv"), "--out", str(base / "records.csv")]) == 0
    files = {p.name: p.read_bytes() for p in base.iterdir()}
    files["run.json"] = json.dumps(RUN_CONFIG, indent=1).encode()
    files["gradcheck.json"] = json.dumps(GRADCHECK_CONFIG, indent=1).encode()
    return files


# the file each case mutates, and the command that reads it ({w}: the work directory)
EVALUATE = ["evaluate", "--checkpoint", "{w}/checkpoint.json", "--data", "{w}/data.csv",
            "--out", "{w}/out.csv"]
CASES = {
    "run-config": ("run.json", ["train", "--config", "{w}/run.json", "--out", "{w}/out"]),
    "gradcheck-config": ("gradcheck.json", ["gradcheck", "--config", "{w}/gradcheck.json"]),
    "checkpoint": ("checkpoint.json", EVALUATE),
    "sidecar": ("data.csv.meta.json", EVALUATE),
    "records": ("records.csv", ["report", "--records", "{w}/records.csv", "--out", "{w}/out"]),
}


@pytest.mark.parametrize("case", list(CASES))
@FUZZ
@given(data=st.data())
def test_a_mutated_input_file_gives_one_error_line_or_a_run(tmp_path_factory, inputs, case, data):
    name, argv = CASES[case]
    text = inputs[name]
    if name.endswith(".json"):
        mutated = _mutate_json(data, json.loads(text))
    else:
        mutated = _mutate_csv(data, text.decode())
    work = tmp_path_factory.mktemp("fuzz")
    for other, content in inputs.items():
        (work / other).write_bytes(mutated if other == name else content)
    before = {p for p in work.rglob("*") if p.is_file()}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([a.format(w=work) for a in argv])
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert len(lines) == 1 and lines[0].startswith("error: "), (mutated, lines)
        assert {p for p in work.rglob("*") if p.is_file()} == before, mutated
