"""The package's public API: one export list, joined from the modules' own,
and the modules each entry point loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evidkit
from evidkit import (
    datasets,
    evidence,
    gradcheck,
    losses,
    metrics,
    network,
    regularizers,
    special,
    trainer,
)

MODULES = (evidence, losses, regularizers, gradcheck, network, datasets, metrics, trainer, special)

EXPORTS = {
    "Activation", "CENSUS_THRESHOLDS", "CORRECT_REG_EPS", "CellResult",
    "ConfigError", "DataConfig", "Dataset", "EVIDENTIAL_LOSSES", "EpochLog",
    "EvidenceState", "ExperimentConfig", "ForwardCache", "IncReg", "LOGIT_CLAMP", "LayerSpec",
    "Loss", "LossGrad", "Network", "OptConfig", "OptKind", "OptimizerState", "RED",
    "RecordColumns", "RunResult", "SweepRow", "__version__",
    "accuracy_vacuity_curve", "activation_apply", "activation_grad", "anneal_eta1", "auroc",
    "backward", "central_diff", "check_case", "circle_means", "compare_grads", "composite_loss",
    "dense_specs", "derive_sweep_seed", "digamma", "epoch_csv_header", "evaluate",
    "evidence_census", "evidence_state", "forward", "gamma_family", "grad_logits", "grid_cells",
    "init_network", "load_checkpoint", "load_csv", "log_gamma", "loss_ev_ce",
    "loss_ev_log", "loss_ev_mse", "loss_softmax_ce", "make_blobs", "make_toy4",
    "predict_class", "reg_adl_sum", "reg_correct", "reg_edl_kl", "reg_units_belief",
    "run_experiment", "run_grid", "save_checkpoint", "save_csv", "save_epoch_csv",
    "save_records", "softmax", "step", "sweep", "topk_confident_accuracy", "trigamma",
    "vacuity_summary",
}


def test_package_all_joins_the_module_lists():
    assert evidkit.__all__ == [n for m in MODULES for n in m.__all__] + ["__version__"]


def test_every_export_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(evidkit, name) is getattr(mod, name)
    assert isinstance(evidkit.__version__, str)


def test_export_set_is_pinned():
    assert len(evidkit.__all__) == len(EXPORTS)
    assert set(evidkit.__all__) == EXPORTS


ROOT = Path(__file__).resolve().parent.parent

# What `import evidkit.gradcheck` needs: the oracle and the layers it checks.
ORACLE_CLOSURE = {
    "evidkit", "evidkit._arrays", "evidkit.special", "evidkit.evidence", "evidkit.losses",
    "evidkit.regularizers", "evidkit.gradcheck",
}


def _fresh(code: str):
    """The JSON value that code prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(statement: str) -> set:
    """The evidkit modules in sys.modules after statement, in a fresh interpreter."""
    return set(_fresh(
        f"{statement}\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.partition('.')[0] == 'evidkit']))"
    ))


@pytest.mark.parametrize("statement", ["import evidkit", "import evidkit; hasattr(evidkit, '__author__')"])
def test_import_evidkit_loads_no_submodule(statement):
    assert _loaded(statement) == {"evidkit"}


@pytest.mark.parametrize(
    "statement", ["import evidkit.gradcheck", "from evidkit import gradcheck", "from evidkit import run_grid"]
)
def test_the_oracle_loads_only_its_closure(statement):
    assert _loaded(statement) == ORACLE_CLOSURE


def test_the_trainer_does_not_load_the_oracle():
    assert "evidkit.gradcheck" not in _loaded("from evidkit import trainer")


def test_star_import_and_dir_hold_every_export_and_module():
    star, listed = _fresh(
        "import evidkit, json\nlisted = dir(evidkit)\nfrom evidkit import *\n"
        "print(json.dumps([sorted(globals()), listed]))"
    )
    assert EXPORTS <= set(star)
    assert EXPORTS | {m.__name__.rpartition(".")[2] for m in MODULES} <= set(listed)
