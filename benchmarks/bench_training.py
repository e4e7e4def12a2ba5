"""Sec. VI model-quality benchmark: accuracy and reconstruction error.

The paper quotes two model-quality numbers: "The trained model
accuracy is 92%" (classifier) and "trained the model with a 3.1%
reconstruction error" (denoiser). This benchmark trains both models on
the synthetic SVHN stream with the fast preset (the paper's budget is
``python -m repro train --preset full``), checks each against its
band, and checks the classifier's fixed-point accuracy after
HLS4ML compilation against its float accuracy on the same 400
held-out frames.

The run writes ``BENCH_training.json``: both accuracies exactly (they
are counts over those 400 frames) and the denoiser's MSE rounded to
1e-4. EXPERIMENTS.md quotes the file; ``tests/test_experiments_doc.py``
keeps the two equal.

Run:  PYTHONPATH=src:. python benchmarks/bench_training.py
"""

from benchmarks import write_report
from repro.accelerators import classifier_spec
from repro.datasets import flatten_frames, generate
from repro.flow import PRESETS, train_classifier, train_denoiser
from repro.nn import accuracy

#: Sec. VI: "The trained model accuracy is 92%", and "a 3.1%
#: reconstruction error".
PAPER = {"classifier_accuracy": 0.92, "denoiser_mse": 0.031}


def run_training():
    model, float_acc = train_classifier(preset="fast", force=True)
    _, mse = train_denoiser(preset="fast", force=True)
    # The held-out set train_classifier scores the float model on.
    frames, labels = generate(PRESETS["fast"].n_test, seed=1)
    outputs = classifier_spec(model).run_batch(flatten_frames(frames))
    return {"classifier_accuracy": float_acc,
            "fixed_point_accuracy": accuracy(outputs, labels),
            "denoiser_mse": round(mse, 4)}


def check(results):
    # Fast-preset bands; the paper's 92% and 3.1% need the full preset.
    assert results["classifier_accuracy"] > 0.60
    assert results["denoiser_mse"] < 0.05
    # HLS4ML's ap_fixed<16,6> should not cost much accuracy.
    assert (results["fixed_point_accuracy"]
            > results["classifier_accuracy"] - 0.05)


def payload():
    """Both models trained, scored and checked; the
    ``BENCH_training.json`` payload."""
    results = run_training()
    print(f"classifier accuracy {results['classifier_accuracy']:.1%} "
          f"(paper: {PAPER['classifier_accuracy']:.0%}) -> ap_fixed<16,6> "
          f"accuracy {results['fixed_point_accuracy']:.1%}")
    print(f"denoiser reconstruction error (MSE) "
          f"{results['denoiser_mse']:.1%} "
          f"(paper: {PAPER['denoiser_mse']:.1%})")
    check(results)
    return {"benchmark": "bench_training", "preset": "fast", **results,
            "paper": PAPER}


def main():
    write_report("BENCH_training.json", payload())


if __name__ == "__main__":
    main()
