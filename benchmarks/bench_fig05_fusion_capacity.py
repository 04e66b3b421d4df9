"""Fig. 5 — accuracy as a function of how many domains one adapter fuses.

Paper: training a separate adapter per small model keeps accuracy high;
fusing more knowledge into one adapter degrades it, at a rate that
depends on the task type — six fused image-classification models retain
>95% accuracy while video classification collapses quickly.

This bench measures the real curves by incremental LoRA training on the
TinyLMM and cross-checks the calibrated oracle used by serving-scale
fusion plans.
"""

import numpy as np
import pytest

from _accuracy_shared import fresh_base

from repro.generation import (
    IMAGE_CLASSIFICATION,
    OBJECT_DETECTION,
    VIDEO_CLASSIFICATION,
    FusionAccuracyOracle,
    LoRATrainer,
    make_domains,
)

# Trains models (minutes on CPU): runs in the slow tier.
pytestmark = pytest.mark.slow

MAX_FUSED = 6
FAMILIES = (IMAGE_CLASSIFICATION, OBJECT_DETECTION, VIDEO_CLASSIFICATION)


def run_experiment():
    measured = {}
    for family in FAMILIES:
        domains = make_domains(family, MAX_FUSED, n_train=128, n_test=96)
        model = fresh_base()
        model.add_lora(4, rng=np.random.default_rng(1))
        trainer = LoRATrainer(model, steps_per_domain=80)
        curve = {}
        for k in range(1, MAX_FUSED + 1):
            trainer.train(domains[:k])
            curve[k] = round(trainer.evaluate(domains[:k]).min_accuracy, 3)
        measured[family.name] = curve
    oracle = FusionAccuracyOracle(jitter=0.0)
    oracle_curves = {
        family.name: {
            k: round(oracle.accuracy(family.name, k), 3)
            for k in range(1, MAX_FUSED + 1)
        }
        for family in FAMILIES
    }
    return measured, oracle_curves


def test_fig05_fusion_capacity(benchmark, results):
    measured, oracle_curves = run_experiment()

    oracle = FusionAccuracyOracle()
    benchmark(oracle.accuracy, "video_classification", 4, "salt")

    rows = []
    for fam, curve in measured.items():
        rows.append([
            f"{fam} (measured)",
            *(curve[k] for k in range(1, MAX_FUSED + 1)),
        ])
        rows.append([
            f"{fam} (oracle)",
            *(oracle_curves[fam][k] for k in range(1, MAX_FUSED + 1)),
        ])
    results.print_table(
        "Fig 5: min per-domain accuracy vs domains fused into one adapter",
        ["family", *[f"k={k}" for k in range(1, MAX_FUSED + 1)]], rows,
    )
    results.save("fig05_fusion_capacity", {
        "measured": measured, "oracle": oracle_curves,
    })

    img = measured["image_classification"]
    det = measured["object_detection"]
    vid = measured["video_classification"]
    # Every family starts strong alone.
    for fam, curve in measured.items():
        assert curve[1] > 0.85, fam
    # Image classification keeps most of its accuracy at six domains...
    assert img[MAX_FUSED] > 0.75
    # ...video classification collapses...
    assert vid[MAX_FUSED] < 0.5
    # ...and detection sits in between (averaged over the deep end).
    deep = range(4, MAX_FUSED + 1)
    img_d = np.mean([img[k] for k in deep])
    det_d = np.mean([det[k] for k in deep])
    vid_d = np.mean([vid[k] for k in deep])
    assert img_d > det_d > vid_d
    # The oracle reproduces the same ordering at k=6.
    o = {f.name: oracle_curves[f.name][MAX_FUSED] for f in FAMILIES}
    assert (o["image_classification"] > o["object_detection"]
            > o["video_classification"])
