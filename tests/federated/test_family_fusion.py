"""Family-level cohort fusion: unequal shard sizes fuse via masked padding.

``cohort_fusion="family"`` relaxes the exact grouping key: pad-safe
same-architecture devices fuse even when their shard sizes differ, through
:meth:`FusedLocalTrainTask._train_padded` (masked cross-entropy, inactive
slices frozen by optimizer snapshot/restore).  The documented numeric
policy: family-padded runs match the per-device path to ~1e-9 relative
(the masked sum reduces over the padded width), while cohorts that happen
to have equal shard sizes keep the exact bitwise path.  Whole FedAvg and
FedProx runs on both kinds of cohort are rows of
``tests/integration/test_parity_matrix.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.baselines import build_fedavg
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import FederatedConfig
from repro.models import FullyConnected, LeNet, ModelSpec, SimpleCNN
from repro.nn import layers
from repro.nn.batched import supports_padded_fusion

SHAPE = (3, 8, 8)
CLASSES = 4


class TestPadSafety:
    def test_per_sample_models_are_pad_safe(self):
        assert supports_padded_fusion(
            FullyConnected(SHAPE, CLASSES, hidden_sizes=(16,), seed=0))
        assert supports_padded_fusion(
            LeNet(SHAPE, CLASSES, conv_channels=(4,), fc_sizes=(16,), seed=0))

    def test_batch_norm_vetoes_padding(self):
        # SimpleCNN's BatchNorm2d mixes padded rows into the batch statistics.
        model = SimpleCNN(SHAPE, CLASSES, channels=(4,), hidden_size=8, seed=0)
        assert not supports_padded_fusion(model)

    def test_active_dropout_vetoes_padding(self):
        model = FullyConnected(SHAPE, CLASSES, hidden_sizes=(8,), seed=0)
        model.network.append(layers.Dropout(0.5))
        assert not supports_padded_fusion(model)
        plain = FullyConnected(SHAPE, CLASSES, hidden_sizes=(8,), seed=0)
        plain.network.append(layers.Dropout(0.0))
        assert supports_padded_fusion(plain)


class TestConfigValidation:
    def test_family_is_accepted(self):
        config = FederatedConfig(num_devices=2, rounds=1, cohort_fusion="family")
        assert config.describe()["cohort_fusion"] == "family"

    def test_other_strings_are_rejected(self):
        with pytest.raises(ValueError):
            FederatedConfig(num_devices=2, rounds=1, cohort_fusion="bogus")


# --------------------------------------------------------------------------- #
# The family key
# --------------------------------------------------------------------------- #
def _group_keys(fusion):
    """Fusion keys of a FedAvg FC population whose 130 samples shard as
    33, 33, 32, 32."""
    config = SyntheticImageConfig(name="family-rgb", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=37, noise_level=0.2,
                                  max_shift=1, modes_per_class=1,
                                  background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    federated = FederatedConfig(num_devices=4, rounds=1, batch_size=16, cohort_fusion=fusion)
    with build_fedavg(generator.sample(130, seed=1), generator.sample(48, seed=2), federated,
                      model_spec=ModelSpec("fc", {"hidden_sizes": (24,)})) as simulation:
        assert len({len(device.dataset) for device in simulation.devices}) > 1
        return {simulation._fusion_group_key(
                    SimpleNamespace(device_id=device.device_id, digest=None))
                for device in simulation.devices}


def test_family_key_groups_unequal_shards():
    # Under "family" the group key drops shard size, so the 33- and
    # 32-sample devices land in one cohort; exact mode still splits them.
    assert len(_group_keys("family")) == 1
    assert len(_group_keys(True)) == 2
