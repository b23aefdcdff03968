"""Procedural synthetic stand-ins for the paper's image datasets.

The paper evaluates on MNIST, KMNIST, FASHION-MNIST, and CIFAR-10, and uses
CIFAR-100 and SVHN as FedMD's public datasets.  Those corpora cannot be
downloaded in this offline environment, so each is replaced by a procedural
class-conditional generator with the properties the experiments rely on:

* **Learnable class structure** — every class has a smooth random-field
  prototype; samples are contrast-jittered, translated, and noised copies,
  so classifiers of different capacities reach different accuracies (as in
  Table III) but all can learn.
* **Controlled distribution similarity** — the FedMD comparison (Table I)
  hinges on the *public* dataset being close to (CIFAR-100) or far from
  (SVHN) the on-device dataset.  ``SyntheticCIFAR100`` derives its
  prototypes by perturbing the CIFAR-10 prototype bank (close);
  ``SyntheticSVHN`` uses an independent, higher-frequency process with a
  different channel mix (far).

Every generator is deterministic given its seed, so experiments are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .base import ImageDataset

__all__ = [
    "SyntheticImageConfig",
    "SyntheticImageGenerator",
    "make_prototypes",
    "DATASET_FAMILY_SEEDS",
]

#: Base seeds controlling each dataset family's prototype bank.  Two datasets
#: with the same family seed share class structure; distinct seeds give
#: distinct (distributionally distant) datasets.
DATASET_FAMILY_SEEDS: Dict[str, int] = {
    "mnist": 11,
    "kmnist": 23,
    "fashion": 37,
    "cifar10": 51,
    "cifar100": 51,   # derived from the cifar10 bank (distributionally close)
    "svhn": 97,       # independent process (distributionally far)
}


def _smooth_field(rng: np.random.Generator, channels: int, height: int, width: int,
                  smoothness: int = 3) -> np.ndarray:
    """Generate a smooth random field by upsampling low-resolution noise.

    ``smoothness`` is the downscale factor of the latent noise grid; larger
    values give smoother, lower-frequency prototypes.
    """
    low_h = max(2, height // smoothness)
    low_w = max(2, width // smoothness)
    coarse = rng.normal(size=(channels, low_h, low_w))
    # Bilinear-ish upsampling via repeated nearest + box blur.
    reps_h = int(np.ceil(height / low_h))
    reps_w = int(np.ceil(width / low_w))
    field = np.repeat(np.repeat(coarse, reps_h, axis=1), reps_w, axis=2)[:, :height, :width]
    # 3x3 box blur: the nine shifted planes, each times 1/9, added in the
    # order ``np.sum`` adds one contiguous 3x3 window (pairwise over the
    # first eight, then the ninth), so every pixel keeps its bits.
    padded = np.pad(field, ((0, 0), (1, 1), (1, 1)), mode="edge") * (1.0 / 9.0)
    p = [padded[:, di:di + height, dj:dj + width] for di in range(3) for dj in range(3)]
    return (((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))) + p[8]


def make_prototypes(num_classes: int, channels: int, height: int, width: int,
                    seed: int, smoothness: int = 3, modes_per_class: int = 1,
                    background_strength: float = 0.0) -> np.ndarray:
    """Build the per-class prototype bank for a dataset family.

    Returns an array of shape ``(num_classes, modes_per_class, channels,
    height, width)`` normalized to zero mean, unit scale per prototype.
    Every prototype mixes a shared background field (class-independent
    structure that raises inter-class similarity) with a class/mode-specific
    field.
    """
    rng = np.random.default_rng(seed)
    background = _smooth_field(rng, channels, height, width, smoothness=smoothness)
    background = background - background.mean()
    background /= np.abs(background).max() + 1e-8
    prototypes = np.empty((num_classes, modes_per_class, channels, height, width))
    for cls in range(num_classes):
        for mode in range(modes_per_class):
            field = _smooth_field(rng, channels, height, width, smoothness=smoothness)
            field = field - field.mean()
            field /= np.abs(field).max() + 1e-8
            mixed = field + background_strength * background
            mixed = mixed - mixed.mean()
            prototypes[cls, mode] = mixed / (np.abs(mixed).max() + 1e-8)
    return prototypes


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Configuration of a synthetic dataset generator.

    Attributes
    ----------
    name:
        Dataset name (also the registry key).
    num_classes, channels, height, width:
        Output geometry.
    family_seed:
        Seed of the prototype bank (shared seeds ⇒ related datasets).
    prototype_jitter:
        Std-dev of a per-class perturbation applied to the base prototypes;
        used to derive CIFAR-100 from the CIFAR-10 bank.
    smoothness:
        Spatial smoothness of the prototypes (higher = smoother).
    noise_level:
        Std-dev of per-pixel instance noise.
    max_shift:
        Maximum absolute translation (pixels) applied per sample.
    contrast_range:
        Range of the per-sample multiplicative contrast jitter.
    modes_per_class:
        Number of distinct sub-prototypes ("modes") per class.  More modes
        means more intra-class variation and a harder problem, which is what
        separates low- and high-capacity on-device models (Table III).
    background_strength:
        Amplitude of a class-independent background field mixed into every
        prototype; raises inter-class similarity and task difficulty.
    """

    name: str
    num_classes: int = 10
    channels: int = 1
    height: int = 16
    width: int = 16
    family_seed: int = 0
    prototype_jitter: float = 0.0
    smoothness: int = 3
    noise_level: float = 0.25
    max_shift: int = 2
    contrast_range: Tuple[float, float] = (0.8, 1.2)
    modes_per_class: int = 3
    background_strength: float = 0.6

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (self.channels, self.height, self.width)


class SyntheticImageGenerator:
    """Samples labelled images from a :class:`SyntheticImageConfig`."""

    def __init__(self, config: SyntheticImageConfig) -> None:
        self.config = config
        self._prototypes = make_prototypes(
            config.num_classes, config.channels, config.height, config.width,
            seed=config.family_seed, smoothness=config.smoothness,
            modes_per_class=config.modes_per_class,
            background_strength=config.background_strength,
        )
        if config.prototype_jitter > 0:
            jitter_rng = np.random.default_rng(config.family_seed + 1000)
            self._prototypes = self._prototypes + config.prototype_jitter * jitter_rng.normal(
                size=self._prototypes.shape
            )

    @property
    def prototypes(self) -> np.ndarray:
        """The prototype bank, shape (num_classes, modes_per_class, C, H, W)."""
        return self._prototypes

    def sample(self, num_samples: int, seed: int,
               class_distribution: Optional[np.ndarray] = None) -> ImageDataset:
        """Draw ``num_samples`` labelled images.

        Parameters
        ----------
        num_samples:
            Number of images to generate.
        seed:
            Seed of the sampling RNG (independent of the prototype bank).
        class_distribution:
            Optional probability vector over classes; defaults to uniform.
        """
        config = self.config
        rng = np.random.default_rng(seed)
        if class_distribution is None:
            labels = rng.integers(0, config.num_classes, size=num_samples)
        else:
            probs = np.asarray(class_distribution, dtype=np.float64)
            if probs.shape != (config.num_classes,):
                raise ValueError("class_distribution must have one entry per class")
            probs = probs / probs.sum()
            labels = rng.choice(config.num_classes, size=num_samples, p=probs)

        images = np.empty((num_samples, config.channels, config.height, config.width))
        low, high = config.contrast_range
        for index, cls in enumerate(labels):
            contrast = rng.uniform(low, high)
            mode = int(rng.integers(0, config.modes_per_class))
            image = contrast * self._prototypes[cls, mode]
            if config.max_shift > 0:
                shift_h = rng.integers(-config.max_shift, config.max_shift + 1)
                shift_w = rng.integers(-config.max_shift, config.max_shift + 1)
                image = np.roll(image, (int(shift_h), int(shift_w)), axis=(1, 2))
            image = image + config.noise_level * rng.normal(size=image.shape)
            images[index] = image
        images = np.clip(images, -1.5, 1.5)
        return ImageDataset(images=images, labels=labels,
                            num_classes=config.num_classes, name=config.name)
