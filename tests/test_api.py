"""The package's public API: one export list, joined from the modules' own."""

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
    "Activation", "BlobSpec", "CENSUS_THRESHOLDS", "CORRECT_REG_EPS", "CellResult",
    "ConfigError", "DataConfig", "Dataset", "EVIDENTIAL_LOSSES", "EpochLog",
    "EvidenceState", "ExperimentConfig", "ForwardCache", "IncReg", "LOGIT_CLAMP", "LayerSpec",
    "Loss", "LossGrad", "Network", "OptConfig", "OptKind", "OptimizerState", "RED",
    "RecordColumns", "RunResult", "SweepRow", "__version__",
    "accuracy_vacuity_curve", "activation_apply", "activation_grad", "anneal_eta1", "auroc",
    "backward", "central_diff", "check_case", "circle_means", "compare_grads", "composite_loss",
    "dense_specs", "derive_sweep_seed", "digamma", "epoch_csv_header", "evaluate",
    "evidence_census", "evidence_state", "forward", "gamma_family", "grad_logits", "grid_cells",
    "init_network", "load_checkpoint", "load_csv", "log_gamma", "loss_ev_ce",
    "loss_ev_log", "loss_ev_mse", "loss_softmax_ce", "make_blobs", "make_ood_shift", "make_toy4",
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
