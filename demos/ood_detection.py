"""Vacuity as an out-of-distribution detector.

Train a 3-class evidential model on well-separated blobs, then score a
tight cluster dropped far from every training mean. In-distribution points
earn evidence and end up with low vacuity; the foreign cluster earns almost
none, so vacuity alone separates the two populations almost perfectly.
"""

import math

from evidkit import ExperimentConfig, auroc, run_experiment, vacuity_summary

ANGLE = math.radians(300.0)
SHIFT = [5.0 * math.cos(ANGLE), 5.0 * math.sin(ANGLE)]

CONFIG = {
    "name": "ood-demo",
    "train_data": {
        "kind": "blobs", "k": 3, "n_per_class": 50, "stddev": 0.25,
        "radius": 10.0, "seed": 11,
    },
    "test_data": {
        "kind": "blobs", "k": 3, "n_per_class": 30, "stddev": 0.25,
        "radius": 10.0, "seed": 12,
    },
    "ood_data": {
        "kind": "blobs", "k": 3, "n_per_class": 40, "stddev": 0.25,
        "radius": 0.5, "seed": 13, "shift": SHIFT,
    },
    "hidden_dims": [32],
    "loss": "ev_log",
    "activation": "exp",
    "inc_reg": "edl_kl",
    "lambda1": 2.0,
    "use_correct_reg": True,
    "optimizer": {"kind": "adam_like", "lr": 0.005},
    "epochs": 60,
    "batch_size": 32,
    "seed": 5,
    "eval_every": 60,
}


def main() -> None:
    cfg = ExperimentConfig.from_dict(CONFIG)
    print("training 3-class blob model with an off-manifold OOD cluster...")
    result = run_experiment(cfg)
    print(f"final test accuracy: {result.final_test_acc:.3f}")

    mean_ind, mean_ood = vacuity_summary(result.columns, result.ood_columns)
    print(f"mean vacuity, in-distribution:     {mean_ind:.4f}")
    print(f"mean vacuity, out-of-distribution: {mean_ood:.4f}")

    score = auroc(result.ood_columns.vacuity, result.columns.vacuity)
    print(f"AUROC of vacuity as an OOD score:  {score:.4f}")
    print(
        "\nThe model never saw anything near the foreign cluster, so it\n"
        "assigns it far less evidence: every OOD point carries more vacuity\n"
        "than every in-distribution point, hence the perfect ranking."
    )


if __name__ == "__main__":
    main()
