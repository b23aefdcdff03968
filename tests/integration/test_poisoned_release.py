"""Nothing reads a buffer after giving it back to the scratch arena.

``backward()`` returns gradients and pooled forward outputs to the arena as
it walks the graph, and the arena hands the bytes to the next request, so a
value read late — ``loss.item()`` after ``backward()`` on an interior node,
a closure reading a tensor whose own closure already ran — is right only
until something else is written there.  The ``poisoned_pool`` fixture
(``tests/conftest.py``) overwrites every buffer at the moment of its
release.  Every algorithm, on each of its execution paths, replays the
history of an ordinary run on it: the ``poison`` column of
``tests/integration/test_parity_matrix.py``.  This module checks the
fixture itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor


def test_the_fixture_poisons_what_is_released(poisoned_pool):
    floats, flags = poisoned_pool.acquire((3, 4)), poisoned_pool.acquire((5,), np.bool_)
    floats.fill(1.0)
    flags.fill(False)
    poisoned_pool.release(floats[1:])  # a view: not accepted, not poisoned
    assert (floats == 1.0).all()
    poisoned_pool.release(floats)
    poisoned_pool.release(flags)
    assert np.isnan(floats).all() and (flags.view(np.uint8) == 0xFF).all()


def test_a_late_read_of_an_interior_node_raises(poisoned_pool):
    """The bug the fixture was built for, in miniature: ``loss`` below is an
    interior node once something is computed from it."""
    weights = Tensor(np.ones((4, 3)), requires_grad=True)
    loss = (Tensor(np.ones((2, 4))) @ weights).relu()
    kept = (Tensor(np.ones((2, 4))) @ weights).relu()
    kept.retain_data()
    (loss.sum() + kept.sum()).backward()
    assert loss.data is None
    with pytest.raises(RuntimeError, match="retain_data"):
        loss.item()
    np.testing.assert_array_equal(kept.data, np.full((2, 3), 4.0))
