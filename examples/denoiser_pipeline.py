#!/usr/bin/env python
"""The Denoiser + Classifier application (Fig. 6, second dataflow).

Trains the paper's two models (fast preset by default), compiles both
through the HLS4ML branch of the flow, builds an SoC hosting them and
runs noisy SVHN frames through Denoiser -> Classifier, reporting the
reconstruction error, classification accuracy and pipeline throughput
in the three execution modes.

Run:  python examples/denoiser_pipeline.py [fast|full]
"""

import sys

import numpy as np

from repro.accelerators import denoiser_spec, classifier_spec
from repro.datasets import add_gaussian_noise, flatten_frames, generate
from repro.flow import train_classifier, train_denoiser
from repro.nn import accuracy
from repro.runtime import EspRuntime, replicated_stage
from repro.soc import SoCConfig, build_soc


def main(preset: str = "fast"):
    print(f"training models (preset={preset}; cached after first run)...")
    classifier, clf_accuracy = train_classifier(preset=preset)
    denoiser, rec_error = train_denoiser(preset=preset)
    print(f"  classifier accuracy:   {clf_accuracy:.1%} (paper: 92%)")
    print(f"  reconstruction error:  {rec_error:.1%} (paper: 3.1%)")

    # Build an SoC hosting both accelerators.
    config = SoCConfig(cols=3, rows=2, name="denoise-soc")
    config.add_cpu((0, 0))
    config.add_memory((1, 0))
    config.add_aux((2, 0))
    config.add_accelerator((0, 1), "de0", denoiser_spec(denoiser))
    config.add_accelerator((1, 1), "cl0", classifier_spec(classifier))
    runtime = EspRuntime(build_soc(config))

    # Noisy inputs, as in Sec. VI.
    frames, labels = generate(32, seed=11)
    clean = flatten_frames(frames)
    noisy = add_gaussian_noise(clean, stddev=0.15, seed=12)

    dataflow = replicated_stage("de_cl", ["de0"], ["cl0"])
    print(f"\n{'mode':<7}{'frames/s':>12}{'DRAM words':>12}"
          f"{'accuracy':>10}")
    for mode in ("base", "pipe", "p2p"):
        result = runtime.esp_run(dataflow, noisy, mode=mode)
        acc = accuracy(result.outputs, labels)
        print(f"{mode:<7}{result.frames_per_second:>12,.0f}"
              f"{result.dram_accesses:>12,}{acc:>10.1%}")
        runtime.esp_cleanup()

    # How much did denoising help the classifier?
    hls_cl = classifier_spec(classifier)
    noisy_direct = np.stack([hls_cl.run(f) for f in noisy])
    print(f"\naccuracy without denoising: "
          f"{accuracy(noisy_direct, labels):.1%}  "
          f"(the denoiser recovers the rest)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "fast")
