"""Tests for experiment configs, the training loop, and lambda1 sweeps."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from evidkit import regularizers, trainer
from evidkit.datasets import Dataset, make_toy4, save_csv
from evidkit.evidence import Activation, evidence_state, predict_class
from evidkit.losses import softmax
from evidkit.network import LayerSpec, Network, dense_specs, init_network
from evidkit.special import digamma, log_gamma, trigamma
from evidkit.trainer import (
    ConfigError,
    DataConfig,
    ExperimentConfig,
    OptConfig,
    derive_sweep_seed,
    epoch_csv_header,
    evaluate,
    run_experiment,
    save_epoch_csv,
    sweep,
)


def tiny_cfg(**over):
    base = dict(
        name="tiny",
        train_data=DataConfig(kind="toy4", d=2, seed=0),
        hidden_dims=[4],
        loss="ev_mse",
        activation="relu",
        epochs=3,
        batch_size=2,
        seed=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


def blob_data(**over):
    base = dict(kind="blobs", d=2, k=2, n_per_class=6, stddev=0.5, radius=6.0)
    base.update(over)
    return DataConfig(**base)


# --- config validation -------------------------------------------------------


def test_config_error_messages_name_the_field():
    cases = [
        (dict(loss="nope"), "loss: unknown loss kind"),
        (dict(activation="nope"), "activation: unknown activation"),
        (dict(inc_reg="nope"), "inc_reg: unknown regularizer"),
        (dict(lambda1=-1.0), "lambda1: must be >= 0"),
        (dict(use_correct_reg=True, activation="relu"), "use_correct_reg: requires activation=exp"),
        (dict(loss="softmax_ce", inc_reg="edl_kl"), "softmax baseline takes no evidential"),
        (dict(epochs=0), "epochs: must be >= 1"),
        (dict(batch_size=0), "batch_size: must be >= 1"),
        (dict(eval_every=0), "eval_every: must be >= 1"),
        (dict(hidden_dims=[]), "hidden_dims"),
        # a width is an int >= 1, as in a JSON config: never cast down to one
        (dict(hidden_dims=[1.5]), r"^hidden_dims: each width must be an int >= 1, got 1.5$"),
        (dict(hidden_dims=[4, 2.0]), r"^hidden_dims: each width must be an int >= 1, got 2.0$"),
        (dict(hidden_dims=[True]), "^hidden_dims: each width must be an int >= 1, got True$"),
        (dict(hidden_dims=[0]), "^hidden_dims: each width must be an int >= 1, got 0$"),
        (dict(loss="softmax_ce", use_correct_reg=True, activation="exp"),
         "^inc_reg: the softmax baseline takes no evidential regularizers$"),
        (dict(zero_ev_taus=[-0.1]), "zero_ev_taus"),
        # one threshold twice would write two equal epochs.csv columns
        (dict(zero_ev_taus=[0.1, 1.0, float("0.10")]), "^zero_ev_taus: thresholds must be distinct$"),
        (dict(zero_ev_taus=[0.0, -0.0]), "^zero_ev_taus: thresholds must be distinct$"),
    ]
    for over, match in cases:
        with pytest.raises(ConfigError, match=match):
            tiny_cfg(**over).validate()


def test_data_config_validation_messages():
    with pytest.raises(ConfigError, match="train_data.kind"):
        tiny_cfg(train_data=DataConfig(kind="wat")).validate()
    with pytest.raises(ConfigError, match="train_data.stddev"):
        tiny_cfg(train_data=blob_data(stddev=0.0)).validate()
    with pytest.raises(ConfigError, match="test_data.path: required"):
        tiny_cfg(test_data=DataConfig(kind="csv")).validate()
    with pytest.raises(ConfigError, match="dataset file not found"):
        tiny_cfg(test_data=DataConfig(kind="csv", path="/no/such.csv")).validate()
    with pytest.raises(ConfigError, match=r"ood_data.shift: expected 2 components"):
        tiny_cfg(ood_data=blob_data(shift=[1.0])).validate()
    with pytest.raises(ConfigError, match=r"train_data.means: expected shape \(2, 2\)"):
        tiny_cfg(train_data=blob_data(means=[[0.0, 0.0]])).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_lambda1_and_data_fields_are_named(value):
    with pytest.raises(ConfigError, match=f"^lambda1: must be >= 0 and finite, got {value}$"):
        tiny_cfg(lambda1=value).validate()
    for over, field in (
        (dict(stddev=value), "stddev: must be > 0 and finite"),
        (dict(radius=value), "radius: must be finite"),
        (dict(radius=-value), "radius: must be finite"),
        (dict(shift=[0.0, value]), "shift: must be finite"),
    ):
        with pytest.raises(ConfigError, match=f"^train_data.{field}$"):
            tiny_cfg(train_data=blob_data(**over)).validate()


@pytest.mark.parametrize(
    "over, message",
    [
        (
            dict(train_data=blob_data(means=[[0.0, float("nan")], [1.0, 1.0]])),
            "train_data.means: must be finite",
        ),
        (dict(zero_ev_taus=[0.1, float("nan")]), "zero_ev_taus: thresholds must be >= 0"),
        (dict(optimizer=OptConfig(lr=float("inf"))), "optimizer.lr: must be finite, got inf"),
        (
            dict(optimizer=OptConfig(kind="adam_like", eps=float("inf"))),
            "optimizer.eps: must be finite, got inf",
        ),
    ],
)
def test_non_finite_values_of_a_python_built_config_are_named(over, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        tiny_cfg(**over).validate()


# a non-default value of each field, and the kinds that read it
FIELD_VALUES = {
    "d": (3, "toy4 or blobs"),
    "seed": (5, "toy4 or blobs"),
    "k": (9, "blobs"),
    "n_per_class": (3, "blobs"),
    "stddev": (2.0, "blobs"),
    "radius": (3.0, "blobs"),
    "means": ([[0.0, 0.0]] * 4, "blobs"),
    "shift": ([50.0, 50.0], "blobs"),
    "path": ("toy.csv", "csv"),
}
UNREAD = [
    (kind, name)
    for kind in ("toy4", "blobs", "csv")
    for name, (_, kinds) in FIELD_VALUES.items()
    if kind not in kinds
]


@pytest.mark.parametrize("built", ["python", "json"])
@pytest.mark.parametrize("kind, field", UNREAD, ids=[f"{k}-{f}" for k, f in UNREAD])
def test_a_data_kind_takes_only_the_fields_it_reads(tmp_path, monkeypatch, kind, field, built):
    monkeypatch.chdir(tmp_path)
    save_csv(make_toy4(2, 0), "toy.csv")
    value, kinds = FIELD_VALUES[field]
    doc = {"kind": kind, "path": "toy.csv"} if kind == "csv" else {"kind": kind}
    doc[field] = value
    with pytest.raises(ConfigError, match=f"^train_data.{field}: only {kinds} data takes {field}$"):
        if built == "python":
            tiny_cfg(train_data=DataConfig(**doc)).validate()
        else:
            ExperimentConfig.from_dict({"name": "x", "train_data": doc}).validate()


@pytest.mark.parametrize("kind", ["toy4", "blobs", "csv"])
def test_a_data_kind_accepts_every_field_it_does_not_read_at_its_default(
    tmp_path, monkeypatch, kind
):
    monkeypatch.chdir(tmp_path)
    save_csv(make_toy4(2, 0), "toy.csv")
    defaults = {f.name: f.default for f in dataclasses.fields(DataConfig)}
    doc = {"kind": kind, "path": "toy.csv"} if kind == "csv" else {"kind": kind}
    doc.update((name, defaults[name]) for k, name in UNREAD if k == kind)
    tiny_cfg(train_data=DataConfig(**doc)).validate()
    ExperimentConfig.from_dict({"name": "x", "train_data": doc}).validate()


def test_from_dict_rejects_unknown_fields_and_missing_required():
    with pytest.raises(ConfigError, match="^learning_rate: unknown field$"):
        ExperimentConfig.from_dict(
            {"name": "x", "train_data": {"kind": "toy4"}, "learning_rate": 0.1}
        )
    with pytest.raises(ConfigError, match="optimizer.momentu: unknown field"):
        ExperimentConfig.from_dict(
            {"name": "x", "train_data": {"kind": "toy4"}, "optimizer": {"momentu": 0.9}}
        )
    with pytest.raises(ConfigError, match="train_data: required"):
        ExperimentConfig.from_dict({"name": "x"})
    with pytest.raises(ConfigError, match="name: required"):
        ExperimentConfig.from_dict({"train_data": {"kind": "toy4"}})
    with pytest.raises(ConfigError, match="expected a JSON object"):
        ExperimentConfig.from_dict([1, 2])


def test_opt_config_reports_a_nan_learning_rate_by_its_field():
    with pytest.raises(ConfigError, match="^optimizer.lr: must be > 0, got nan$"):
        OptConfig(lr=float("nan")).validate()
    with pytest.raises(ConfigError, match=r"^optimizer.lr: must be > 0, got -0.5$"):
        tiny_cfg(optimizer=OptConfig(lr=-0.5)).validate()


def test_config_dict_round_trip():
    cfg = tiny_cfg(
        test_data=blob_data(seed=4),
        optimizer=OptConfig(kind="adam_like", lr=0.01),
        lambda1=2.0,
        inc_reg="edl_kl",
    )
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


# --- training loop -----------------------------------------------------------


def test_run_experiment_shapes_and_log_fields():
    cfg = tiny_cfg(epochs=4)
    result = run_experiment(cfg)
    assert len(result.logs) == 4
    assert [log.epoch for log in result.logs] == [0, 1, 2, 3]
    # no test set: records come from the train set and test_acc mirrors train
    assert len(result.columns) == 4
    assert result.ood_columns is None
    for log in result.logs:
        assert log.test_acc == log.train_acc
        assert 0.0 <= log.train_acc <= 1.0
        assert 0.0 <= log.mean_vacuity <= 1.0
        taus = sorted(log.zero_ev)
        counts = [log.zero_ev[t] for t in taus]
        assert all(0 <= c <= 4 for c in counts)
        assert counts == sorted(counts)  # cumulative in tau


def test_one_objective_call_per_mini_batch(monkeypatch):
    import evidkit.trainer as trainer

    shapes = []
    real = trainer.composite_loss

    def counting(*args, **kwargs):
        shapes.append(np.shape(args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "composite_loss", counting)
    run_experiment(tiny_cfg(train_data=blob_data(n_per_class=5), epochs=2, batch_size=4))
    # 10 samples in batches of 4: rows 4, 4, 2 in each of 2 epochs
    assert shapes == [(4, 2), (4, 2), (2, 2)] * 2


def test_run_is_deterministic_bit_exact():
    cfg = dict(
        name="det",
        train_data=blob_data(seed=3),
        test_data=blob_data(seed=9),
        hidden_dims=[8],
        loss="ev_log",
        activation="exp",
        inc_reg="edl_kl",
        lambda1=1.0,
        epochs=3,
        batch_size=4,
        seed=5,
    )
    a = run_experiment(ExperimentConfig(**cfg))
    b = run_experiment(ExperimentConfig(**cfg))
    for wa, wb in zip(a.net.weights, b.net.weights):
        assert np.array_equal(wa, wb)
    assert [log.train_loss for log in a.logs] == [log.train_loss for log in b.logs]
    for name in ("predicted", "actual", "vacuity", "mean_evidence", "max_softmax", "is_ood"):
        assert getattr(a.columns, name).tobytes() == getattr(b.columns, name).tobytes(), name


def run_digest(result) -> str:
    """sha256 over every epoch log and the final parameters, bit for bit."""
    h = hashlib.sha256()
    for log in result.logs:
        h.update(repr(dataclasses.astuple(log)).encode())
    for a in result.net.weights + result.net.biases:
        h.update(a.tobytes())
    return h.hexdigest()


def rb_red_cfg() -> ExperimentConfig:
    # The rb-red recipe at lambda1 = 1 under Adam: edl_kl is annealed in over
    # the first 10 epochs, so the special-function kernel, the label rule,
    # backward and the optimizer step all feed the run.
    blobs = dict(kind="blobs", d=2, k=5, n_per_class=12, stddev=1.0, radius=6.0)
    return ExperimentConfig(
        name="rb-red",
        train_data=DataConfig(**blobs, seed=1),
        test_data=DataConfig(**blobs, seed=2),
        hidden_dims=[16],
        loss="ev_log",
        activation="exp",
        inc_reg="edl_kl",
        lambda1=1.0,
        use_correct_reg=True,
        optimizer=OptConfig(kind="adam_like", lr=0.005),
        epochs=14,
        batch_size=16,
        seed=4,
    )


def test_rb_red_run_equals_the_run_with_three_special_function_calls(monkeypatch):
    # the same run on the same host, once with the kernel and once with
    # edl_kl taking log-gamma, digamma and trigamma from their own functions
    kernel_digest = run_digest(run_experiment(rb_red_cfg()))
    monkeypatch.setattr(
        regularizers, "gamma_family", lambda z: (log_gamma(z), digamma(z), trigamma(z))
    )
    assert run_digest(run_experiment(rb_red_cfg())) == kernel_digest


def test_rb_red_run_is_pinned_bit_for_bit():
    # Recorded on x86-64 with NumPy's bundled OpenBLAS, with three separate
    # special-function calls and the per-parameter step. The dense matmuls
    # may round differently in the last bit under another BLAS kernel, so on
    # another platform a mismatch here alone (with the same-host comparison
    # above passing) points at the platform, not at the code.
    digest = run_digest(run_experiment(rb_red_cfg()))
    assert digest == "30b478d7bb85dd00244fbaf70e9224c62fd28051a1479c2f3339e555aa89fc39"


@pytest.mark.parametrize(
    "optimizer, want",
    [
        (
            OptConfig(kind="adam_like", lr=0.005),
            "0b6c1fe82490d9902abae62e5cdb9bcf6050506860e583441eff8e206534f712",
        ),
        (
            OptConfig(kind="sgd_momentum", lr=0.01),
            "34ef4001ae6b3d4875fdc419811586226b91bca52482ca3c478fbb89d0a57fe5",
        ),
    ],
    ids=["adam", "sgd-momentum"],
)
def test_blocked_step_run_is_pinned_bit_for_bit(optimizer, want):
    # 2 -> 300 -> 200 -> 5 has 62,105 parameters: the optimizer walks them in
    # two 32,768-element blocks, and layer boundaries fall inside the blocks.
    # Recorded on the same platform as the rb-red pin above.
    blobs = dict(kind="blobs", d=2, k=5, n_per_class=12, stddev=1.0, radius=6.0)
    cfg = ExperimentConfig(
        name="blocked",
        train_data=DataConfig(**blobs, seed=1),
        test_data=DataConfig(**blobs, seed=2),
        hidden_dims=[300, 200],
        loss="ev_log",
        activation="exp",
        optimizer=optimizer,
        epochs=3,
        batch_size=16,
        seed=6,
    )
    assert run_digest(run_experiment(cfg)) == want


def test_a_run_holds_one_gradient_vector_at_a_time():
    # 8 -> 512 -> 512 -> 3 has 268,803 parameters (P), against 96 rows of
    # 8 features: P-sized vectors dominate the run's memory. Adam keeps the
    # parameters and two slots, 3P; one live gradient makes 4P, plus the
    # step's scratch blocks (0.24P) and a mini-batch's activations. A
    # gradient kept from the last step while backward allocates the next
    # would add a fifth P (5.26 against 4.26).
    cfg = ExperimentConfig(
        name="memory",
        train_data=DataConfig(kind="blobs", d=8, k=3, n_per_class=32, seed=0),
        hidden_dims=[512, 512],
        optimizer=OptConfig(kind="adam_like", lr=0.001),
        epochs=2,
        batch_size=32,
        seed=0,
    )
    run_experiment(cfg)  # once untraced, so first-call imports and caches are not counted
    tracemalloc.start()
    try:
        net = run_experiment(cfg).net
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / net.params.nbytes < 4.75


@pytest.mark.parametrize(
    "recipe, want",
    [
        (
            dict(loss="ev_mse", activation="relu", inc_reg="adl_sum", lambda1=1.0,
                 optimizer=OptConfig(kind="sgd_momentum", lr=0.05)),
            "615bef60df0f8b505358d13bb2a23233e41e76c03156ab4ec01309f820208583",
        ),
        (
            dict(loss="ev_ce", activation="softplus", inc_reg="units_belief", lambda1=1.0,
                 optimizer=OptConfig(kind="adam_like", lr=0.005)),
            "0dfa138a9d5dc5c678d836a46fa256453d4851432a052684cbac6fd05881c1ba",
        ),
        (
            dict(loss="softmax_ce", optimizer=OptConfig(kind="sgd_momentum", lr=0.05)),
            "9648e4c24a0927a4e507841974000c918ac77b5b28793be936ae3a742bd72bf1",
        ),
    ],
    ids=["ev_mse-relu-adl_sum-sgd", "ev_ce-softplus-units_belief-adam", "softmax_ce"],
)
def test_other_heads_and_terms_are_pinned_bit_for_bit(recipe, want):
    # The pins above run ev_log under exp only; these cover the other losses,
    # heads and incorrect-evidence terms, and the softmax baseline, on the
    # rb-red blobs. Recorded on the same platform as the rb-red pin.
    blobs = dict(kind="blobs", d=2, k=5, n_per_class=12, stddev=1.0, radius=6.0)
    cfg = ExperimentConfig(
        name="pinned",
        train_data=DataConfig(**blobs, seed=1),
        test_data=DataConfig(**blobs, seed=2),
        hidden_dims=[16],
        epochs=14,
        batch_size=16,
        seed=4,
        **recipe,
    )
    assert run_digest(run_experiment(cfg)) == want


def test_seed_changes_the_run():
    a = run_experiment(tiny_cfg(seed=1, epochs=2))
    b = run_experiment(tiny_cfg(seed=2, epochs=2))
    assert any(
        not np.array_equal(wa, wb) for wa, wb in zip(a.net.weights, b.net.weights)
    )


# Two collapses under the default optimizer (SGD momentum, lr 0.1), kept as
# regression tests until a fix makes them pass; ROADMAP item 4 has the runs
# behind each reason.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: the default step size. ev_log + edl_kl (lambda1 = 1) + "
    "correct-evidence under exp falls to train accuracy 0.445 at epoch 13 at lr 0.1; the arm "
    "without edl_kl (lambda1 = 0) is unstable too, and both arms hold at lr 0.03 and 0.01",
)
def test_edl_kl_with_correct_evidence_keeps_training_accuracy_under_sgd():
    blobs = dict(kind="blobs", k=5, n_per_class=40)
    cfg = ExperimentConfig(
        name="collapse-a",
        train_data=DataConfig(**blobs, seed=1),
        test_data=DataConfig(**blobs, seed=2),
        loss="ev_log",
        activation="exp",
        inc_reg="edl_kl",
        lambda1=1.0,
        use_correct_reg=True,
        epochs=15,
        seed=4,
    )
    late = [log.train_acc for log in run_experiment(cfg).logs if log.epoch >= 8]
    assert min(late) >= 0.95


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: under exp, adl_sum's logit gradient is e_k itself (about 2.4e8 "
    "at o = 19.3), unbounded in the evidence, so at any lr in {0.1, 0.01, 0.001} the first "
    "epoch with eta1 > 0 sends every row into exp underflow and accuracy stays at chance",
)
def test_adl_sum_under_exp_trains_above_chance_under_sgd():
    cfg = ExperimentConfig(
        name="collapse-b",
        train_data=DataConfig(kind="blobs", k=4, n_per_class=30, seed=3),
        hidden_dims=[16],
        loss="ev_mse",
        activation="exp",
        inc_reg="adl_sum",
        lambda1=1.0,
        epochs=12,
        batch_size=16,
        seed=7,
    )
    assert run_experiment(cfg).final_train_acc >= 0.5


def test_divergence_aborts_with_epoch_and_batch():
    cfg = tiny_cfg(
        optimizer=OptConfig(kind="sgd_momentum", lr=1e160),
        epochs=5,
        batch_size=2,
    )
    with np.errstate(over="ignore"):  # the overflow is the point
        with pytest.raises(
            RuntimeError, match=r"non-finite (logits|loss) at epoch \d+, batch \d+"
        ):
            run_experiment(cfg)


def test_a_non_finite_gradient_is_a_runtime_failure_naming_the_epoch():
    cfg = tiny_cfg(
        train_data=blob_data(k=3, n_per_class=10, seed=1),
        hidden_dims=[8, 8],
        optimizer=OptConfig(lr=1e80),
        batch_size=8,
    )
    with np.errstate(all="ignore"):
        with pytest.raises(
            RuntimeError, match="^non-finite gradient for layer 0 weights at epoch 0, batch 1$"
        ):
            run_experiment(cfg)


@pytest.mark.parametrize(
    "field, over, message",
    [
        ("test_data", dict(k=3), "test_data: 3 classes, but train_data has 2"),
        (
            "ood_data",
            dict(d=3, shift=[9.0, 9.0, 9.0]),
            "ood_data: 3 features per sample, but train_data has 2",
        ),
    ],
)
def test_a_set_the_network_cannot_score_is_refused_before_training(
    monkeypatch, field, over, message
):
    def no_step(*args):
        raise AssertionError("trained before the data was checked")

    monkeypatch.setattr(trainer, "step", no_step)
    cfg = tiny_cfg(train_data=blob_data(), **{field: blob_data(seed=5, **over)})
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_experiment(cfg)


def test_eval_every_reuses_stale_test_accuracy():
    cfg = tiny_cfg(test_data=blob_data(k=4, seed=8), epochs=3, eval_every=100)
    result = run_experiment(cfg)
    # epoch 0 evaluates, epoch 1 reuses, the final epoch re-evaluates
    assert result.logs[1].test_acc == result.logs[0].test_acc


def test_baseline_records_carry_max_softmax():
    max_softmax = run_experiment(tiny_cfg(loss="softmax_ce", epochs=2)).columns.max_softmax
    assert np.all((0.25 <= max_softmax) & (max_softmax <= 1.0))  # NaN fails both
    assert np.isnan(run_experiment(tiny_cfg(epochs=2)).columns.max_softmax).all()


def test_ood_records_are_flagged():
    cfg = tiny_cfg(
        train_data=blob_data(seed=3),
        ood_data=blob_data(seed=4, shift=[30.0, 30.0]),
        epochs=2,
    )
    result = run_experiment(cfg)
    assert result.ood_columns is not None
    assert result.ood_columns.is_ood.all()
    assert not result.columns.is_ood.any()


def test_batched_scores_equal_per_row_states():
    rng = np.random.default_rng(21)
    for k in (2, 10, 100):
        logits = rng.uniform(-900.0, 900.0, (24, k))
        logits[:8] = rng.normal(0.0, 3.0, (8, k))
        logits[8] = 800.0  # every coordinate past the clamp: evidence ties
        logits[9] = -800.0  # exp underflows in every coordinate
        logits[10, 0] = 800.0
        logits[11, 1:] = -750.0
        # one identity layer: the network returns its input exactly
        net = Network([LayerSpec(k, k, False)], [np.eye(k)], [np.zeros(k)], seed=0)
        ds = Dataset(logits, np.zeros(len(logits), dtype=int), k, "logits")
        for act in Activation:
            for baseline in (False, True):
                cols = evaluate(net, ds, act, baseline)
                pred, vac, mean_ev, max_sm = (
                    cols.predicted, cols.vacuity, cols.mean_evidence, cols.max_softmax
                )
                assert np.isnan(max_sm).tolist() == [not baseline] * len(logits)
                for i, row in enumerate(logits):
                    st = evidence_state(act, row)
                    assert pred[i] == (int(row.argmax()) if baseline else predict_class(st))
                    assert vac[i] == st.vacuity
                    assert mean_ev[i] == float(st.evidence.sum()) / k
                    if baseline:
                        assert max_sm[i] == float(softmax(row).max())


@pytest.mark.parametrize("loss", ["ev_log", "softmax_ce"])
def test_one_scoring_pass_and_last_epoch_columns(monkeypatch, loss):
    import evidkit.trainer as trainer

    calls = []
    real = trainer.forward

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "forward", counting)
    test = blob_data(seed=8, n_per_class=7)
    cfg = tiny_cfg(
        train_data=blob_data(seed=3, n_per_class=5),
        test_data=test,
        ood_data=blob_data(seed=4, shift=[30.0, 30.0]),
        loss=loss,
        activation="exp",
        epochs=6,
        batch_size=4,
        eval_every=4,
    )
    result = run_experiment(cfg)
    # 10 rows in 3 batches and one train scoring pass per epoch, test
    # evaluations at epochs 0, 4 and the last (5), then one OOD evaluation
    assert len(calls) == 6 * (3 + 1) + 3 + 1
    want = evaluate(result.net, test.build(), Activation.EXP, baseline=loss == "softmax_ce")
    for name in ("predicted", "actual", "vacuity", "mean_evidence", "max_softmax", "is_ood"):
        # exact equality; NaN (no max softmax outside the baseline) matches NaN
        np.testing.assert_array_equal(getattr(result.columns, name), getattr(want, name))
    assert result.final_test_acc == want.accuracy


def test_evaluate_rejects_class_mismatch():
    net = init_network(dense_specs(2, [4], 3), seed=0)
    ds = make_toy4(2, 0)  # 4 classes
    with pytest.raises(ValueError, match="3 logits but dataset has 4 classes"):
        evaluate(net, ds, Activation.RELU)


# --- epoch CSV ----------------------------------------------------------------


def test_epoch_csv_header_exact():
    assert (
        epoch_csv_header((0.01, 0.1, 1.0))
        == "epoch,train_loss,train_acc,test_acc,zero_ev_0.01,zero_ev_0.1,zero_ev_1.0,mean_vacuity"
    )
    assert epoch_csv_header((0.0,)) == (
        "epoch,train_loss,train_acc,test_acc,zero_ev_0.0,mean_vacuity"
    )


def test_empty_zero_ev_taus_writes_no_zero_evidence_columns(tmp_path):
    assert epoch_csv_header(()) == "epoch,train_loss,train_acc,test_acc,mean_vacuity"
    result = run_experiment(tiny_cfg(epochs=2, zero_ev_taus=[]))
    save_epoch_csv(result.logs, [], tmp_path / "epochs.csv")
    lines = (tmp_path / "epochs.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc,mean_vacuity"
    assert [len(line.split(",")) for line in lines[1:]] == [5, 5]
    assert "" not in lines[1].split(",")


def test_save_epoch_csv(tmp_path):
    result = run_experiment(tiny_cfg(epochs=3))
    path = tmp_path / "epochs.csv"
    taus = tiny_cfg().zero_ev_taus
    save_epoch_csv(result.logs, taus, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == epoch_csv_header(taus)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == result.logs[0].train_loss  # 17g round-trips


# --- sweeps ---------------------------------------------------------------------


def test_derive_sweep_seed_is_stable_and_distinct():
    a = derive_sweep_seed(42, 0)
    b = derive_sweep_seed(42, 1)
    assert a == derive_sweep_seed(42, 0)
    assert a != b
    assert derive_sweep_seed(43, 0) != a


def test_sweep_rows_follow_grid_order_and_seeds():
    base = tiny_cfg(epochs=2)
    rows = sweep(base, [0.0, 1.0, 0.5])
    assert [r.lambda1 for r in rows] == [0.0, 1.0, 0.5]
    assert [r.seed for r in rows] == [derive_sweep_seed(base.seed, i) for i in range(3)]
    for r in rows:
        assert 0.0 <= r.final_train_acc <= 1.0
        assert r.census["le_1.0"] + r.census["gt_1.0"] == 4
        assert 0.0 <= r.mean_test_vacuity <= 1.0


def test_sweep_takes_a_python_built_config_as_run_experiment_does():
    # a tuple is not a JSON type, so this only works without a JSON round trip
    grid = [0.0, 1.0]
    tupled = sweep(tiny_cfg(epochs=2, hidden_dims=(4,)), grid)
    assert tupled == sweep(tiny_cfg(epochs=2, hidden_dims=[4]), grid)
    assert len(tupled) == 2


def test_sweep_rejects_empty_grid():
    with pytest.raises(ConfigError, match="sweep grid"):
        sweep(tiny_cfg(), [])


@pytest.mark.parametrize("grid", [[float("nan")], [float("inf")], [0.0, -1.0], [0.0, float("nan")]])
def test_sweep_checks_every_grid_value_before_the_first_run(monkeypatch, grid):
    def no_run(cfg):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr("evidkit.trainer.run_experiment", no_run)
    with pytest.raises(ConfigError, match="^sweep grid: must be >= 0 and finite, got "):
        sweep(tiny_cfg(), grid)
