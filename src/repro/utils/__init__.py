"""``repro.utils`` — small shared utilities (seeding, timing, serialization)."""

from .seeding import derive_seed, seed_everything
from .serialization import (
    InProcessStateTable,
    StateChannel,
    StateRef,
    StateStore,
    load_history_json,
    save_history_json,
    state_digest,
)
from .timing import Timer

__all__ = [
    "seed_everything",
    "derive_seed",
    "Timer",
    "save_history_json",
    "load_history_json",
    "state_digest",
    "StateRef",
    "StateChannel",
    "InProcessStateTable",
    "StateStore",
]
