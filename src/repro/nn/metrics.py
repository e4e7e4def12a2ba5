"""Evaluation metrics quoted in the paper's Sec. VI."""

from __future__ import annotations

import numpy as np


def accuracy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Top-1 classification accuracy ("trained model accuracy is 92%")."""
    pred = np.argmax(np.atleast_2d(probs), axis=-1)
    truth = np.argmax(np.atleast_2d(onehot), axis=-1)
    return float(np.mean(pred == truth))
