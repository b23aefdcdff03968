"""FedZKT reproduction library.

Top-level package for the reproduction of *FedZKT: Zero-Shot Knowledge
Transfer towards Resource-Constrained Federated Learning with Heterogeneous
On-Device Models* (ICDCS 2022).

Subpackages
-----------
``repro.nn``
    Numpy-backed autograd, layers, optimizers, and losses.
``repro.models``
    The on-device model zoo (Models A–E) and the server-side generator.
``repro.datasets``
    Synthetic stand-ins for MNIST / KMNIST / FASHION / CIFAR-10 /
    CIFAR-100 / SVHN with the paper's interfaces.
``repro.partition``
    IID and non-IID (quantity-skew, Dirichlet) data partitioners.
``repro.federated``
    Federated-learning substrate: devices, strategies, sampling, simulation.
``repro.core``
    The FedZKT algorithm (zero-shot bidirectional knowledge transfer).
``repro.baselines``
    FedMD, FedAvg, FedProx, and standalone lower/upper bounds.
``repro.experiments``
    Configurations and runners reproducing every table and figure.
"""

def _detect_version() -> str:
    """Resolve the package version with ``pyproject.toml`` as single source.

    A source checkout (the common case for this repo: ``PYTHONPATH=src``)
    reads the version straight out of the adjacent ``pyproject.toml``;
    otherwise the installed distribution metadata is consulted.
    """
    import re
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.is_file():
        text = pyproject.read_text(encoding="utf-8")
        # Only trust the file if it is actually this package's pyproject
        # (a vendored copy could sit under an unrelated project root).
        if re.search(r'^name\s*=\s*"repro-fedzkt"', text, flags=re.MULTILINE):
            match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
            if match:
                return match.group(1)
    try:
        from importlib.metadata import PackageNotFoundError, version
        try:
            return version("repro-fedzkt")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover — importlib.metadata ships with 3.8+
        pass
    return "0.0.0+unknown"


__version__ = _detect_version()

__all__ = ["__version__"]
