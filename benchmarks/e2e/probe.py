"""The outside-only probe: spans around public calls, and their rollup.

Nothing under ``src/`` knows about this module.  :func:`install` shadows
public methods of the objects the harness built (the ``Simulation``, its
``backend``, ``strategy``, ``scheduler`` and FedZKT ``distiller``) with
instance attributes, and on serial workloads patches three class-level
seams of ``repro.nn`` (``Tensor.backward``, optimizer ``step``, the
outermost model ``__call__``).  :func:`uninstall` removes every one of
them again.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

#: Engine phases that are direct children of a round span; what is left of
#: the round after them is the scheduler's own time.
ROUND_PHASES = ("sim.device_tasks", "sim.local_train", "sim.process_result",
                "sim.aggregate", "sim.broadcast", "sim.evaluate")


class Tracer:
    """In-memory span recorder for one single-threaded run.

    A span is ``[name, start, end, parent, round]`` with ``parent`` the
    index of the enclosing span (-1 at top level) and ``round`` the
    scheduler round it ran in (0 = before the first round).
    """

    def __init__(self, first_timed_round: int = 2, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans = []
        #: Work counted at the wrapped boundaries, timed rounds only.
        self.counts = Counter()
        self.first_timed_round = first_timed_round
        self.round = 0
        self._stack = []
        self._nn_depth = 0
        self._undo = []

    # -- recording ----------------------------------------------------- #
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.round])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        if self.round >= self.first_timed_round:
            self.counts[key] += amount

    def current(self) -> str:
        """Name of the innermost open span ('' at top level)."""
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def spanned(self, name, fn, before=None):
        """``fn`` wrapped in a span; ``name`` may be a callable of the
        tracer (to name a call after its caller) and ``before`` sees the
        call's arguments (to count work at the boundary)."""
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = self.begin(name(self) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    def spanned_generator(self, name, fn, before=None):
        """As :meth:`spanned` for a generator function: the span covers
        first ``next`` to exhaustion."""
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = self.begin(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    def outermost(self, name, fn):
        """Class-level wrapper recording only the outermost of nested calls
        (a model's ``__call__`` runs every layer's ``__call__``)."""
        def wrapper(*args, **kwargs):
            if self._nn_depth:
                return fn(*args, **kwargs)
            self._nn_depth = 1
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
                self._nn_depth = 0
        return wrapper

    # -- patching ------------------------------------------------------ #
    def shadow(self, obj, attribute: str, wrapper) -> None:
        """Shadow a method with an instance attribute (removed by uninstall)."""
        setattr(obj, attribute, wrapper)
        self._undo.append(lambda: delattr(obj, attribute))

    def patch_class(self, cls, attribute: str, wrapper) -> None:
        original = cls.__dict__[attribute]
        setattr(cls, attribute, wrapper)
        self._undo.append(lambda: setattr(cls, attribute, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install_run_start_span(tracer: Tracer, simulation) -> None:
    """Span ``strategy.on_run_start``; its end is the end of set-up.

    The one wrapper that is also present in untraced runs: a single call
    per run, so it cannot perturb what the rounds measure.
    """
    strategy = simulation.strategy
    tracer.shadow(strategy, "on_run_start",
                  tracer.spanned("setup.on_run_start", strategy.on_run_start))


def install(tracer: Tracer, simulation, nn_seams: bool) -> None:
    """Wrap the public seams of a built simulation (see module docstring);
    :func:`install_run_start_span` is installed separately, in every run."""
    sim, backend, strategy = simulation, simulation.backend, simulation.strategy
    count = tracer.count

    def note_round(engine, round_index, state):
        tracer.round = round_index
    tracer.shadow(sim.scheduler, "run_round",
                  tracer.spanned("scheduler.round", sim.scheduler.run_round, note_round))
    tracer.shadow(sim, "ensure_backend",
                  tracer.spanned("setup.ensure_backend", sim.ensure_backend))

    for attribute, name in (("device_tasks", "sim.device_tasks"),
                            ("aggregate_round", "sim.aggregate"),
                            ("broadcast", "sim.broadcast"),
                            ("evaluate_round", "sim.evaluate")):
        tracer.shadow(sim, attribute, tracer.spanned(name, getattr(sim, attribute)))
    tracer.shadow(strategy, "evaluate_global",
                  tracer.spanned("sim.evaluate_global", strategy.evaluate_global))

    def note_result(result, meta):
        report = getattr(result, "report", None)
        if report is not None:
            count("trainer.sgd_steps", report.batches)
            count("trainer.samples_seen", report.samples_seen)
    tracer.shadow(sim, "process_result",
                  tracer.spanned("sim.process_result", sim.process_result, note_result))

    # run_device_tasks serves three phases; name the span after its caller.
    def device_run_name(tr):
        return {"sim.evaluate": "sim.eval_devices",
                "sim.device_tasks": "sim.public_logits"}.get(tr.current(), "sim.local_train")

    def note_device_tasks(tasks):
        count("cohort.tasks_in", len(tasks))
    tracer.shadow(sim, "run_device_tasks",
                  tracer.spanned(device_run_name, sim.run_device_tasks, note_device_tasks))
    tracer.shadow(sim, "run_device_tasks_as_completed",
                  tracer.spanned_generator("sim.local_train",
                                           sim.run_device_tasks_as_completed,
                                           note_device_tasks))

    def note_backend_tasks(tasks):
        count("backend.calls")
        count("backend.tasks", len(tasks))
        caller = tracer.current()
        if caller.startswith("sim."):
            count("cohort.tasks_out", len(tasks))
        elif caller.startswith("distill."):
            count("distill.shard_tasks", len(tasks))
        for task in tasks:
            count("backend.tasks_by_type." + type(task).__name__)
    tracer.shadow(backend, "run_tasks",
                  tracer.spanned("backend.run_tasks", backend.run_tasks, note_backend_tasks))
    from repro.federated.backend import ExecutionBackend
    if type(backend).run_tasks_as_completed is not ExecutionBackend.run_tasks_as_completed:
        # The base implementation calls run_tasks, which is already wrapped.
        tracer.shadow(backend, "run_tasks_as_completed",
                      tracer.spanned_generator("backend.run_tasks",
                                               backend.run_tasks_as_completed,
                                               note_backend_tasks))

    distiller = getattr(simulation.server, "distiller", None)
    if distiller is not None:
        tracer.shadow(distiller, "adversarial_distillation",
                      tracer.spanned("distill.phase1", distiller.adversarial_distillation))
        tracer.shadow(distiller, "transfer_to_devices",
                      tracer.spanned("distill.phase2", distiller.transfer_to_devices))

    if nn_seams:
        from repro.nn import batched, optim
        from repro.nn.module import Module
        from repro.nn.tensor import Tensor

        tracer.patch_class(Tensor, "backward",
                           tracer.spanned("nn.backward", Tensor.backward))
        for cls in (Module, batched.BatchedModule):
            tracer.patch_class(cls, "__call__",
                               tracer.outermost("nn.forward", cls.__dict__["__call__"]))
        for cls in (optim.SGD, optim.Adam, batched.BatchedSGD, batched.BatchedAdam):
            if "step" in cls.__dict__:
                tracer.patch_class(cls, "step", tracer.spanned("nn.optim", cls.step))


# ---------------------------------------------------------------------- #
# Rollup
# ---------------------------------------------------------------------- #
def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    Children of one parent never overlap (one thread), so the covered part
    is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def rollup(spans, first_round: int = 0, last_round: int = None):
    """``{name: {"calls", "total_s", "self_s"}}`` over rounds in range."""
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _, round_index), self_s in zip(spans, own):
        if round_index < first_round or (last_round is not None and round_index > last_round):
            continue
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    return dict(table)
