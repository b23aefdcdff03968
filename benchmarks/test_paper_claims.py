"""The paper's tables and figures, each run at the ``tiny`` scale.

One test per row of :data:`repro.experiments.EXPERIMENTS`.  Each runs its
row through :func:`repro.experiments.run_experiment`, prints the rendering
and the claims table, and asserts the claims the row marks ``asserted``:
the fig2 gradient-norm order, fig3's point per round and ≥ 5 % finals, the
fig4 bound, the compute split,
Table III's mean upper ≥ mean lower, and every accuracy in [0, 1].  The
paper's other shapes (SL ≥ KL, FedZKT ≥ FedMD, the trends in p and K, ...)
are recorded in each ``summary.json`` but not asserted while FedZKT does
not train at this scale (ROADMAP item 1).

Run: ``python -m pytest benchmarks/test_paper_claims.py -q -s`` (minutes).
Any scale: ``repro experiment <name> --scale small --output-dir DIR``.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, format_claims, run_experiment

#: Fields the suite sets away from a row's defaults: the loss and ℓ2
#: ablations on the faster MNIST stand-in, three epochs for Fig. 5's bounds.
OVERRIDES = {
    "table2": {"dataset": "mnist"},
    "table4": {"dataset": "mnist"},
    "fig5_table3": {"bound_epochs": 3},
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper_claims(name, tmp_path):
    summary = run_experiment(name, scale="tiny", seed=0, output_dir=tmp_path,
                             **OVERRIDES.get(name, {}))
    print(f"\n{summary['rendering']}\n\n{format_claims(summary['claims'])}")
    broken = [claim["text"] for claim in summary["claims"]
              if claim["asserted"] and not claim["holds"]]
    assert not broken, f"{name}: {broken}"
