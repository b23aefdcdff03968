"""Loss functions for classification and knowledge distillation.

Implements the three disagreement losses the paper compares for zero-shot
federated distillation (Section III-B2):

* ``kl_divergence_loss`` — Eq. (3): KL between the student softmax and the
  teacher-ensemble softmax; suffers from vanishing gradients as the student
  converges to the teacher.
* ``logit_l1_loss`` — Eq. (4): ℓ1 distance between raw logits; avoids the
  vanishing-gradient problem but produces large, unstable gradients when the
  on-device logits are heterogeneous.
* ``softmax_l1_loss`` (SL loss) — Eq. (5): the paper's contribution, ℓ1
  distance between softmax outputs.

Plus the standard ``cross_entropy`` used for on-device supervised training
(Algorithm 2) and ``l2_proximal`` used for the non-IID regularizer (Eq. 9).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "cross_entropy",
    "kl_divergence_loss",
    "logit_l1_loss",
    "softmax_l1_loss",
    "l2_proximal",
    "mse_loss",
    "one_hot",
    "DISTILLATION_LOSSES",
    "get_distillation_loss",
]

_EPS = 1e-12


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return the one-hot encoding of an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for the requested number of classes")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy between ``logits`` (..., N, C) and integer ``labels`` (..., N).

    This is the on-device supervised loss ``L_CE`` of Algorithm 2.  The mean
    runs over the sample axis only, so a leading cohort axis passes through:
    stacked ``(B, N, C)`` logits give a ``(B,)`` loss vector whose slice
    ``b`` is bitwise the loss of slice ``b`` alone.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    num_classes = logits.shape[-1]
    targets = one_hot(labels.ravel(), num_classes).reshape(labels.shape + (num_classes,))
    log_probs = logits.log_softmax(axis=-1)
    return -(log_probs * Tensor(targets)).sum(axis=-1).mean(axis=-1)


def kl_divergence_loss(student_logits: Tensor, teacher_probs: Tensor) -> Tensor:
    """KL(student || teacher) averaged over the batch (Eq. 3).

    Like :func:`cross_entropy`, the mean runs over the sample axis only: a
    stacked ``(B, N, C)`` student gives one loss per cohort member.

    ``teacher_probs`` are post-softmax probabilities (the ensemble average of
    per-device softmax outputs).  The teacher term stays inside the autograd
    graph so that, when the synthesized inputs require gradients (the
    adversarial generator step and the Fig. 2 gradient probe), the gradient
    flows through both branches.  Detach the teacher (or compute it under
    ``no_grad``) for student-only updates.
    """
    student_logits = as_tensor(student_logits)
    teacher = as_tensor(teacher_probs)
    student_log_probs = student_logits.log_softmax(axis=-1)
    student_probs = student_log_probs.exp()
    log_teacher = teacher.clip(_EPS, 1.0).log()
    return (student_probs * (student_log_probs - log_teacher)).sum(axis=-1).mean(axis=-1)


def logit_l1_loss(student_logits: Tensor, teacher_logits: Tensor) -> Tensor:
    """ℓ1 distance between raw logits averaged over the batch (Eq. 4).

    ``teacher_logits`` are the ensemble-averaged raw logits of the on-device
    models; they stay inside the graph (see :func:`kl_divergence_loss`).
    """
    student_logits = as_tensor(student_logits)
    teacher = as_tensor(teacher_logits)
    return (student_logits - teacher).abs().sum(axis=-1).mean()


def softmax_l1_loss(student_logits: Tensor, teacher_probs: Tensor) -> Tensor:
    """Softmax-ℓ1 (SL) loss, the paper's proposed disagreement measure (Eq. 5).

    ``teacher_probs`` are the ensemble-averaged softmax outputs of the
    on-device models.  Both branches stay inside the graph so gradients flow
    into the student parameters and — crucially for the adversarial
    generator step — into the synthesized inputs through the teacher as
    well.  Detach the teacher for student-only updates.
    """
    student_logits = as_tensor(student_logits)
    teacher = as_tensor(teacher_probs)
    student_probs = student_logits.softmax(axis=-1)
    return (student_probs - teacher).abs().sum(axis=-1).mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between two tensors of equal shape."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def l2_proximal(parameters: Iterable[Tensor], anchors: Sequence[np.ndarray], mu: float = 1.0) -> Tensor:
    """ℓ2 proximal term ``mu * Σ ||w − w_anchor||²`` (Eq. 9).

    Used by the on-device update to limit drift from the parameters last
    received from the server under non-IID data (FedProx-style, but anchored
    to the device's own previous parameter set).
    """
    parameters = list(parameters)
    anchors = list(anchors)
    if len(parameters) != len(anchors):
        raise ValueError("parameters and anchors must have the same length")
    total: Tensor = Tensor(np.zeros(()))
    for param, anchor in zip(parameters, anchors):
        diff = as_tensor(param) - Tensor(np.asarray(anchor))
        total = total + (diff * diff).sum()
    return total * mu


# Registry used by the experiment harness and the loss ablation (Table II).
DISTILLATION_LOSSES = {
    "kl": kl_divergence_loss,
    "l1": logit_l1_loss,
    "sl": softmax_l1_loss,
}


def get_distillation_loss(name: str):
    """Look up a distillation loss by its short name (``kl``, ``l1``, ``sl``)."""
    key = name.lower()
    if key not in DISTILLATION_LOSSES:
        raise KeyError(f"unknown distillation loss {name!r}; choose from {sorted(DISTILLATION_LOSSES)}")
    return DISTILLATION_LOSSES[key]
