"""Fused evaluation: the eval sweep must be a pure performance knob.

``cohort_fusion`` routes per-round evaluation (and FedMD's public-logit
sweeps) through :class:`~repro.federated.FusedEvaluateTask` /
:class:`~repro.federated.cohort.FusedPublicLogitsTask` when a cohort
shares an architecture.  Whole runs — history, post-run RNG states, and
that the fused sweeps actually fire — are compared against the fusion-off
run in ``tests/integration/test_parity_matrix.py``; the fused no-grad tasks
are held to the per-device ones here, at every tile width.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated import cohort as cohort_mod
from repro.federated.backend import EvaluateTask, PublicLogitsTask
from repro.models import ModelSpec, build_model


class TestTiledForwardTasks:
    """Cohort of eight: the fused no-grad tasks return the same bytes at
    forced tile widths 1, 2, 3 (3 + 3 + 2) and 8, and the per-device ones."""

    @staticmethod
    def _cnn(seed):
        return build_model(ModelSpec("cnn", {"channels": (4, 8), "hidden_size": 16}),
                           (3, 8, 8), 4, seed=seed)

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_evaluation_and_public_logits(self, width, cohort_context, force_tile_width):
        context = cohort_context(self._cnn, [4] * 8)
        ids = sorted(context.models)
        states = [context.models[index].state_dict() for index in ids]
        # batch_size 20 over 48 / 40 samples: full chunks and a short tail.
        accuracies = [EvaluateTask(index, state, batch_size=20).run(context)
                      for index, state in zip(ids, states)]
        logits = [PublicLogitsTask(index, state, batch_size=20).run(context)
                  for index, state in zip(ids, states)]

        force_tile_width(width)
        assert cohort_mod.FusedEvaluateTask(ids, states, 20).run(context) == accuracies
        fused = cohort_mod.FusedPublicLogitsTask(ids, states, 20).run(context)
        for ours, theirs in zip(fused, logits):
            np.testing.assert_array_equal(ours, theirs)
