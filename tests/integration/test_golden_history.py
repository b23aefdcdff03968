"""Golden-history regression suite: frozen reference trajectories.

Small, seeded FedZKT / FedAvg / FedMD runs (2–3 rounds, tiny models on
synthetic data) are frozen as JSON fixtures under ``tests/fixtures/golden``.
Each test replays the exact workload and asserts *numeric equality* with
the fixture, so refactors of the round loop, the execution backend, the
scheduler layer, or the server update cannot silently drift the reference
trajectories — the failure mode bit-identity refactors (ISSUE 1–3) are most
exposed to.
``tests/integration/test_parity_matrix.py`` runs the same three
configurations under every execution mode against its oracle, which it
holds to these fixtures too.

Numbers are compared with ``math.isclose(rel_tol=1e-9, abs_tol=1e-12)``:
exact up to the last couple of floating-point bits, loose enough to
tolerate BLAS reduction differences across CPU architectures on CI, and
many orders of magnitude tighter than any genuine behavioural drift.

Regenerating fixtures (only after an *intentional* behaviour change):

    PYTHONPATH=src python tests/integration/test_golden_history.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines import build_fedavg, build_fedmd  # noqa: E402
from repro.core import build_fedzkt  # noqa: E402
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator  # noqa: E402
from repro.federated import FederatedConfig, ServerConfig  # noqa: E402
from repro.models import ModelSpec  # noqa: E402
from repro.utils.serialization import save_history_json  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "fixtures" / "golden"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _data():
    config = SyntheticImageConfig(name="golden-rgb", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=33, noise_level=0.2, max_shift=1,
                                  modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(160, seed=1), generator.sample(60, seed=2)


def _public():
    config = SyntheticImageConfig(name="golden-public", num_classes=4, channels=3, height=8,
                                  width=8, family_seed=44, modes_per_class=1)
    return SyntheticImageGenerator(config).sample(60, seed=5)


def _config(rounds: int) -> FederatedConfig:
    return FederatedConfig(
        num_devices=4, rounds=rounds, local_epochs=1, batch_size=16, device_lr=0.05,
        seed=11,
        server=ServerConfig(distillation_iterations=2, batch_size=8, noise_dim=16,
                            device_distill_lr=0.02),
    )


def _run_fedzkt():
    train, test = _data()
    with build_fedzkt(train, test, _config(rounds=3), family="small") as simulation:
        return simulation.run()


def _run_fedavg():
    train, test = _data()
    spec = ModelSpec("cnn", {"channels": (4, 8), "hidden_size": 16})
    with build_fedavg(train, test, _config(rounds=3), model_spec=spec) as simulation:
        return simulation.run()


def _run_fedmd():
    train, test = _data()
    with build_fedmd(train, test, _public(), _config(rounds=2), family="small") as simulation:
        return simulation.run()


WORKLOADS = {
    "fedzkt": _run_fedzkt,
    "fedavg": _run_fedavg,
    "fedmd": _run_fedmd,
}


def _assert_numerically_equal(actual, expected, path=""):
    """Structural equality with near-exact float comparison."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: {type(actual)} != dict"
        assert set(actual) == set(expected), (
            f"{path}: keys {sorted(actual)} != {sorted(expected)}")
        for key in expected:
            _assert_numerically_equal(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: {type(actual)} != list"
        assert len(actual) == len(expected), f"{path}: length differs"
        for index, (item_a, item_e) in enumerate(zip(actual, expected)):
            _assert_numerically_equal(item_a, item_e, f"{path}[{index}]")
    elif isinstance(expected, bool) or expected is None or isinstance(expected, str):
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, (int, float)):
        assert isinstance(actual, (int, float)), f"{path}: {type(actual)} not numeric"
        assert math.isclose(float(actual), float(expected),
                            rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{path}: {actual!r} != {expected!r}")
    else:  # pragma: no cover - fixture only holds JSON types
        raise TypeError(f"{path}: unsupported fixture type {type(expected)}")


def _normalize(payload):
    """Round-trip through JSON so both sides use identical scalar types
    (history dicts hold ints keyed by int, JSON only has strings/floats)."""
    return json.loads(json.dumps(payload, default=float))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_history_matches_golden_fixture(name):
    fixture_path = GOLDEN_DIR / f"{name}.json"
    assert fixture_path.exists(), (
        f"missing golden fixture {fixture_path}; regenerate with "
        f"`PYTHONPATH=src python {Path(__file__).relative_to(REPO_ROOT)}`")
    expected = json.loads(fixture_path.read_text(encoding="utf-8"))
    history = WORKLOADS[name]()
    _assert_numerically_equal(_normalize(history.to_dict()), expected)


def test_fixtures_record_expected_shape():
    """Fixtures themselves stay sane: every round row carries the fields the
    replay compares, so a truncated or hand-edited fixture cannot pass."""
    for name in WORKLOADS:
        payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert payload["algorithm"] == name
        assert len(payload["rounds"]) >= 2
        for row in payload["rounds"]:
            assert "device_accuracies" in row and len(row["device_accuracies"]) == 4
            assert "local_loss" in row and "server_metrics" in row


def test_manifest_records_the_environment_the_fixtures_replay_under():
    """``MANIFEST.json`` names every fixture and the numpy / BLAS / Python
    they replay under (``tests/conftest.py`` prints the running ones beside
    them); a regeneration has to update it (``regenerate`` says so)."""
    manifest = json.loads((GOLDEN_DIR / "MANIFEST.json").read_text(encoding="utf-8"))
    assert sorted(manifest["fixtures"]) == [f"{name}.json" for name in sorted(WORKLOADS)]
    assert all(manifest["replays_under"][key] for key in ("numpy", "blas", "python"))
    assert len(manifest["commit"]) == 40


def test_environment_lines_name_what_differs_from_the_manifest():
    """The lines ``pytest`` prints in its header and again under a failure
    (``-q`` hides the header): the running numpy / BLAS / Python, and which
    of them the golden fixtures were recorded under something else."""
    from conftest import environment_lines

    recorded = {"numpy": "2.4.6", "blas": "openblas 0.3.31", "python": "3.11.7"}
    assert environment_lines(dict(recorded), recorded) == [
        "numpy: 2.4.6", "blas: openblas 0.3.31", "python: 3.11.7",
        "golden fixtures replay under this environment"]
    lines = environment_lines({**recorded, "numpy": "1.26.4", "python": "3.12.1"}, recorded)
    assert lines[:3] == ["numpy: 1.26.4", "blas: openblas 0.3.31", "python: 3.12.1"]
    assert lines[3] == ("golden fixtures replay under numpy 2.4.6; python 3.11.7"
                        " -- bit-level fixtures may differ here")


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, runner in sorted(WORKLOADS.items()):
        history = runner()
        path = save_history_json(history, GOLDEN_DIR / f"{name}.json")
        print(f"wrote {path} ({len(history)} rounds)")
    print(f"now record this environment and commit in {GOLDEN_DIR / 'MANIFEST.json'}")


if __name__ == "__main__":
    regenerate()
