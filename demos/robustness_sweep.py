"""Sensitivity to the incorrect-evidence weight lambda1.

The incorrect-evidence penalty (here the Dirichlet-KL form) has a
hyperparameter lambda1 that anneals in over the first ten epochs. On a
5-class blob problem, a ReLU evidential model's final accuracy swings hard
as lambda1 grows -- large penalties push logits negative and strand samples
at zero evidence. With the correct-evidence term and the exp activation the
accuracy barely moves across three orders of magnitude of lambda1.
"""

from evidkit import ExperimentConfig, sweep

GRID = [0.0, 0.1, 1.0, 10.0]


def base(arm: str) -> ExperimentConfig:
    doc = {
        "name": f"robust-{arm}",
        "train_data": {
            "kind": "blobs", "k": 5, "n_per_class": 50, "stddev": 1.0,
            "radius": 6.0, "seed": 21,
        },
        "test_data": {
            "kind": "blobs", "k": 5, "n_per_class": 30, "stddev": 1.0,
            "radius": 6.0, "seed": 22,
        },
        "hidden_dims": [16],
        "loss": "ev_log",
        "inc_reg": "edl_kl",
        "lambda1": 0.0,
        "optimizer": {"kind": "adam_like", "lr": 0.005},
        "epochs": 60,
        "batch_size": 32,
        "seed": 3,
        "eval_every": 60,
    }
    if arm == "correct-reg":
        doc.update({"activation": "exp", "use_correct_reg": True})
    else:
        doc.update({"activation": "relu"})
    return ExperimentConfig.from_dict(doc)


def main() -> None:
    print("5-class blobs, ev_log + Dirichlet-KL penalty, lambda1 in", GRID)
    for arm in ("relu", "correct-reg"):
        rows = sweep(base(arm), GRID)
        accs = [r.final_test_acc for r in rows]
        spread = max(accs) - min(accs)
        print(f"\n{arm}:")
        for row in rows:
            stranded = row.census["le_0.01"]
            print(
                f"  lambda1={row.lambda1:<5g} test_acc={row.final_test_acc:.3f} "
                f"samples with mean evidence <= 0.01: {stranded}"
            )
        print(f"  accuracy spread across the grid: {spread:.3f}")
    print(
        "\nPick lambda1 wrong under ReLU and the model collapses; the\n"
        "correct-evidence arm is flat across the same grid."
    )


if __name__ == "__main__":
    main()
