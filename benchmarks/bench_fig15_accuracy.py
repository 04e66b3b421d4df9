"""Fig. 15 — V-LoRA accuracy vs SOTA small models across five tasks.

Paper: V-LoRA's fine-tuned adapters are 4.3-5 points better on VQA and
image captioning, and competitive with the domain small models on
object detection, video understanding, and referring expression (after
+24.5-62.2-point gains over the base LMM).

The three trainable families run real LoRA fine-tuning against small
models trained on the same domains; the two language-interface tasks
(VQA, captioning) have no TinyLMM analogue and use the calibrated
anchor values against the paper's small-model numbers.
"""

import numpy as np
import pytest

from _accuracy_shared import fresh_base

from repro.generation import (
    FusionAccuracyOracle,
    IMAGE_CLASSIFICATION,
    OBJECT_DETECTION,
    VIDEO_CLASSIFICATION,
    LoRATrainer,
    make_domain,
    train_small_model,
)
from repro.models.zoo import SMALL_MODELS

# Trains models (minutes on CPU): runs in the slow tier.
pytestmark = pytest.mark.slow

TRAINABLE = {
    "object_detection": (OBJECT_DETECTION, "YOLO"),
    "video_understanding": (VIDEO_CLASSIFICATION, "VideoMAE"),
    "referring_expression": (IMAGE_CLASSIFICATION, "UNINEXT"),
}
ANCHORED = {
    "visual_qa": "OSCAR",
    "image_caption": "VisionMamba",
}


def run_experiment():
    out = {}
    for task, (family, small_name) in TRAINABLE.items():
        domain = make_domain(family, 0, n_train=160, n_test=128)
        small = train_small_model(domain, steps=150)
        model = fresh_base()
        model.add_lora(4, rng=np.random.default_rng(2))
        trainer = LoRATrainer(model, steps_per_domain=90)
        trainer.train([domain])
        vlora_acc = trainer.evaluate([domain]).per_domain[domain.name]
        out[task] = {
            "vlora_acc": round(100 * vlora_acc, 1),
            "small_model": small_name,
            "small_acc": round(
                100 * small.accuracy(domain.test_x, domain.test_y), 1
            ),
            "source": "measured (TinyLMM)",
        }
    oracle = FusionAccuracyOracle(jitter=0.0)
    for task, small_name in ANCHORED.items():
        out[task] = {
            "vlora_acc": round(100 * oracle.accuracy(task, 1), 1),
            "small_model": small_name,
            "small_acc": SMALL_MODELS[small_name].sota_accuracy,
            "source": "anchored (no language substrate)",
        }
    return out


def test_fig15_accuracy(benchmark, results):
    data = run_experiment()

    oracle = FusionAccuracyOracle()
    benchmark(oracle.accuracy, "visual_qa", 1, "x")

    rows = [
        [task, d["vlora_acc"], f"{d['small_model']}: {d['small_acc']}",
         d["source"]]
        for task, d in data.items()
    ]
    results.print_table(
        "Fig 15: V-LoRA vs SOTA small models (accuracy %)",
        ["task", "V-LoRA", "small model", "source"], rows,
    )
    results.save("fig15_accuracy", data)

    # The language tasks beat their small models by ~4-5 points.
    for task in ANCHORED:
        gap = data[task]["vlora_acc"] - data[task]["small_acc"]
        assert 2.0 < gap < 8.0, task
    # The vision tasks are competitive: within ~12 points of the small
    # model trained on the very same domain (paper: "competitive").
    for task in TRAINABLE:
        assert data[task]["vlora_acc"] > data[task]["small_acc"] - 12.0, task
        assert data[task]["vlora_acc"] > 80.0, task
