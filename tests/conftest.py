"""Shared fixtures for the test suite.

Fixtures deliberately use tiny geometries (8×8 images, 3–4 classes, a few
dozen samples) so the full suite stays fast while still exercising every
code path of the substrate and the algorithms.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import ImageDataset, SyntheticImageConfig, SyntheticImageGenerator
from repro.federated import FederatedConfig, ServerConfig, WorkerContext
from repro.federated.trainer import DeviceTrainingConfig
from repro.nn import batched, buffers


GOLDEN_MANIFEST = Path(__file__).parent / "fixtures" / "golden" / "MANIFEST.json"


def numeric_environment() -> dict:
    """What decides the last bit of a float: numpy, the BLAS it was built
    against, and Python — the facts ``MANIFEST.json`` records for the golden
    fixtures."""
    try:  # numpy < 1.25 has no ``mode=``, and not every build names its BLAS
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = (f"{blas.get('name')} {blas.get('version')} "
                f"({' '.join(blas.get('openblas configuration', '').split())})")
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "python": platform.python_version()}


def environment_lines(here: dict, recorded: dict) -> list:
    """This environment next to the one the golden fixtures replay under, so
    that a fixture mismatch on another numpy is diagnosable from the log."""
    differs = [key for key in here if here[key] != recorded[key]]
    lines = [f"{key}: {value}" for key, value in here.items()]
    lines.append("golden fixtures replay under " + (
        "this environment" if not differs else
        "; ".join(f"{key} {recorded[key]}" for key in differs)
        + " -- bit-level fixtures may differ here"))
    return lines


def _environment_lines() -> list:
    recorded = json.loads(GOLDEN_MANIFEST.read_text(encoding="utf-8"))["replays_under"]
    return environment_lines(numeric_environment(), recorded)


def pytest_report_header(config):
    return _environment_lines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Every CI step runs ``-q``, which hides the header: say the same lines
    under a failure, where they are needed."""
    if terminalreporter.stats.get("failed") or terminalreporter.stats.get("error"):
        terminalreporter.section("numeric environment")
        for line in _environment_lines():
            terminalreporter.write_line(line)


def pytest_addoption(parser):
    parser.addoption(
        "--poison-released", action="store_true",
        help="run every test on a scratch arena that overwrites a buffer the moment it "
             "is released (the poisoned_pool fixture), so a read of released storage "
             "fails the test instead of passing by luck")


class _PoisonedPool(buffers.BufferPool):
    """A scratch arena on which released storage cannot be read by accident:
    every release it accepts fills the buffer with NaN (0xFF bytes where the
    dtype has no NaN) before anything else can be handed the bytes."""

    def release(self, buffer):
        outstanding = self._outstanding
        super().release(buffer)
        if self._outstanding != outstanding:
            if buffer.dtype.kind in "fc":
                buffer.fill(np.nan)
            else:
                buffer.view(np.uint8).fill(0xFF)


@pytest.fixture
def poisoned_pool(monkeypatch):
    """Run the test on poisoned arenas: this thread's, and every one created
    while the test runs (worker threads, forked workers, ``fresh_pool``)."""
    monkeypatch.setattr(buffers, "BufferPool", _PoisonedPool)
    monkeypatch.setattr(buffers._POOL, "pool", _PoisonedPool())
    return buffers._POOL.pool


@pytest.fixture(autouse=True)
def _poison_released(request):
    if request.config.getoption("--poison-released"):
        request.getfixturevalue("poisoned_pool")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def force_tile_width(monkeypatch):
    """``force_tile_width(3)``: every cohort runs as tiles of three (the last
    one smaller) instead of the width ``repro.nn.batched.tile_width`` picks;
    a width of the cohort size or more is the undivided stack."""
    def force(width: int) -> None:
        monkeypatch.setattr(batched, "tile_width", lambda *args: width)
    return force


@pytest.fixture
def stacked_widths(monkeypatch):
    """The width of every ``BatchedModule`` built while the test runs, in
    construction order (``tile_width``'s own probe included)."""
    widths = []
    init = batched.BatchedModule.__init__

    def recording(self, template, states, *args, **kwargs):
        widths.append(len(states))
        init(self, template, states, *args, **kwargs)

    monkeypatch.setattr(batched.BatchedModule, "__init__", recording)
    return widths


@pytest.fixture
def cohort_context():
    """``cohort_context(factory, shard_sizes)``: a fresh worker context for one
    same-architecture cohort — device ``i`` gets ``factory(seed=i)`` and the
    next ``shard_sizes[i]`` samples of a 3x8x8, 4-class training set — with a
    48-sample evaluation set and a 40-sample public set."""
    def data(name, family_seed, samples, seed):
        config = SyntheticImageConfig(name=name, num_classes=4, channels=3, height=8,
                                      width=8, family_seed=family_seed, noise_level=0.2,
                                      max_shift=1, modes_per_class=1,
                                      background_strength=0.2)
        return SyntheticImageGenerator(config).sample(samples, seed=seed)

    def build(factory, shard_sizes, **training) -> WorkerContext:
        train = data("cohort-rgb", 29, sum(shard_sizes), 1)
        bounds = np.cumsum([0, *shard_sizes])
        config = DeviceTrainingConfig(**{"lr": 0.05, "momentum": 0.9, "batch_size": 8,
                                         **training})
        devices = range(len(shard_sizes))
        return WorkerContext(
            models={index: factory(seed=index) for index in devices},
            shards={index: train.subset(range(bounds[index], bounds[index + 1]))
                    for index in devices},
            train_configs=dict.fromkeys(devices, config),
            eval_dataset=data("cohort-rgb", 29, 48, 2),
            public_dataset=data("cohort-public", 31, 40, 5))
    return build


@pytest.fixture
def tiny_gray_dataset() -> ImageDataset:
    """A small, learnable 1-channel dataset (4 classes, 8x8)."""
    config = SyntheticImageConfig(name="tiny-gray", num_classes=4, channels=1, height=8, width=8,
                                  family_seed=3, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    return SyntheticImageGenerator(config).sample(120, seed=7)


@pytest.fixture
def tiny_rgb_dataset() -> ImageDataset:
    """A small 3-channel dataset (4 classes, 8x8)."""
    config = SyntheticImageConfig(name="tiny-rgb", num_classes=4, channels=3, height=8, width=8,
                                  family_seed=5, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    return SyntheticImageGenerator(config).sample(120, seed=11)


@pytest.fixture
def tiny_test_dataset() -> ImageDataset:
    """Held-out split drawn from the same distribution as ``tiny_rgb_dataset``."""
    config = SyntheticImageConfig(name="tiny-rgb", num_classes=4, channels=3, height=8, width=8,
                                  family_seed=5, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    return SyntheticImageGenerator(config).sample(60, seed=13)


@pytest.fixture
def micro_config() -> FederatedConfig:
    """A federated configuration small enough for integration tests."""
    return FederatedConfig(
        num_devices=3,
        rounds=1,
        local_epochs=1,
        batch_size=16,
        device_lr=0.05,
        participation_fraction=1.0,
        seed=0,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16),
    )
