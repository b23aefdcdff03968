"""``repro.datasets`` — synthetic stand-ins for the paper's image corpora.

See :mod:`repro.datasets.synthetic` for the substitution rationale
(offline environment → procedural class-conditional generators with
controlled inter-dataset distribution distances).
"""

from .base import ImageDataset, train_test_split
from .dataloader import shuffled_batches
from .registry import (
    PUBLIC_DATASET_PAIRS,
    DatasetBundle,
    available_datasets,
    dataset_config,
    dataset_family,
    load_dataset,
    public_dataset_for,
)
from .synthetic import SyntheticImageConfig, SyntheticImageGenerator, make_prototypes

__all__ = [
    "ImageDataset",
    "train_test_split",
    "shuffled_batches",
    "DatasetBundle",
    "available_datasets",
    "dataset_config",
    "dataset_family",
    "load_dataset",
    "public_dataset_for",
    "PUBLIC_DATASET_PAIRS",
    "SyntheticImageConfig",
    "SyntheticImageGenerator",
    "make_prototypes",
]
