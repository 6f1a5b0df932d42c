"""Spans around calls into fstsim's layers, recorded from outside the package.

``Tracer.installed()`` replaces the names fstsim looks up at call time (the
module globals the engine and harness call through, and methods of the
engine and server classes) with wrappers that record one span per call:
name, start, end and parent span. Spans stay in memory until ``write_csv``.
Leaving the context restores every original, so untraced runs in the same
process execute the unmodified code.

A span's self time is its duration minus the durations of its direct
children. Calls run on one thread and nest, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import fstsim.event_engine as event_engine
import fstsim.fedast_server as fedast_server
import fstsim.harness as harness
import fstsim.rng as rng
from fstsim.baselines import MmSyncServer
from fstsim.event_engine import Engine
from fstsim.fedast_server import FedAstServer
from fstsim.objectives import LogisticObjective, QuadraticObjective, TinyMlpObjective

_FAMILY = {
    QuadraticObjective: "quadratic",
    LogisticObjective: "logistic",
    TinyMlpObjective: "tiny_mlp",
}


def _local_train_name(args: tuple) -> str:
    return "local_trainer.local_train." + _FAMILY[type(args[0].objective)]


#: (owner, attribute, span name). A callable name is computed from the call's
#: arguments. Engine's scheduling helpers (_push, send_requests,
#: send_request_to, schedule_barrier) and the servers' per-dispatch accessors
#: (model_snapshot, current_round, task_metrics, on_dispatch_skipped) are
#: left unwrapped: a span costs more than those calls, so their time stays in
#: the caller's self time. Engine.release_clients is left unwrapped so that
#: its per-round sweep counts in the sync barrier it belongs to.
TARGETS: tuple[tuple[object, str, str | Callable[[tuple], str]], ...] = (
    (harness, "build_scenario", "harness.build_scenario"),
    (rng, "request_rngs", "rng.request_rngs"),
    (event_engine, "sample_duration", "delay_model.sample_duration"),
    (event_engine, "local_train", _local_train_name),
    (event_engine, "evaluate", "objectives.evaluate"),
    (fedast_server, "compute_plan", "realloc.compute_plan"),
    (Engine, "run", "event_engine.run"),
    (Engine, "_do_dispatch", "event_engine._do_dispatch"),
    (Engine, "_do_eval", "event_engine._do_eval"),
    (Engine, "_finish_task", "event_engine._finish_task"),
    (Engine, "sample_clients", "event_engine.sample_clients"),
    (Engine, "draw_available", "event_engine.draw_available"),
    (FedAstServer, "start", "fedast_server.start"),
    (FedAstServer, "handle_update", "fedast_server.handle_update"),
    (FedAstServer, "_aggregate", "fedast_server.aggregate"),
    (FedAstServer, "mark_finished", "fedast_server.mark_finished"),
    (MmSyncServer, "start", "baselines.start"),
    (MmSyncServer, "handle_update", "baselines.handle_update"),
    (MmSyncServer, "handle_barrier", "baselines.handle_barrier"),
    (MmSyncServer, "mark_finished", "baselines.mark_finished"),
)


class Tracer:
    """In-memory span store for one traced run at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def reset(self) -> None:
        for spans in (self.names, self.starts, self.ends, self.parents, self._open):
            spans.clear()

    def _wrap(self, name: str | Callable[[tuple], str], fn: Callable) -> Callable:
        names, starts, ends, parents, open_spans = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name if isinstance(name, str) else name(args))
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def by_name(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Span name -> (durations, self times), in call order. Self time is
        the duration minus the summed durations of the direct children."""
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        self_t = durations - child_time
        names = np.asarray(self.names)
        out = {}
        for name in np.unique(names):
            mask = names == name
            out[str(name)] = (durations[mask], self_t[mask])
        return out

    def write_csv(self, path: Path) -> None:
        """One line per span: id, name, start and end (s from the first span), parent id."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["span,name,start_s,end_s,parent"]
        lines += [
            f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p}"
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
