"""Spans and counters recorded around the pastarl layers from outside the package.

Each wrapper replaces one attribute: a class method, or a module-level
function in every pastarl module that holds it under the same name (the
trainer imports ``compute_gae`` and friends by name).  ``Patches.restore``
puts every original back, so code outside a traced section runs the
program's own functions unchanged.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and the
index of the enclosing span (-1 at the top).  Spans stay in memory and are
summarised, or written out as JSON lines, when the run ends.  No layer here
calls itself, so a layer's busy time is the sum of its spans' durations.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Layers reported as <name>.calls, <name>.busy_s and <name>.us_per_call.
LAYERS = (
    "envs.step",
    "envs.reset",
    "policy.act",
    "policy.act_deterministic",
    "policy.backward_weighted_logp",
    "nn.forward.row1",
    "nn.forward.batch",
    "nn.backward",
    "nn.adam_update",
    "nn.save_checkpoint",
    "nn.load_checkpoint",
    "gae.compute_gae",
    "gae.normalize_advantages",
    "surgery.project_conflicts",
    "metrics.hypervolume",
    "config.write_manifest",
    "cli.compare_runs",
    "trainer.iteration",
    "trainer.rollout",
    "trainer.critic_update",
    "trainer.actor_update",
    "trainer.evaluate",
)
# Layers that also report <name>.self_s.
SELF_TIME_LAYERS = tuple(name for name in LAYERS if name.startswith("trainer."))
UPDATE_SPANS = ("trainer.critic_update", "trainer.actor_update")
REPLAY_STRIDE = 37


class Patches:
    """Replaced attributes, remembered so that ``restore`` can undo them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, name: str, wrap) -> None:
        original = cls.__dict__.get(name)
        if original is None:  # a renamed or removed method reports zero calls
            return
        setattr(cls, name, wrap(original))
        self._undo.append((cls, name, original))

    def function(self, module_name: str, name: str, wrap) -> None:
        original = getattr(sys.modules[module_name], name, None)
        if original is None:
            return
        wrapped = wrap(original)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("pastarl")
                and getattr(module, name, None) is original
            ):
                setattr(module, name, wrapped)
                self._undo.append((module, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class Tracer:
    """Span recorder plus the counters that ratios are built from."""

    def __init__(self, replay_offset: int = 0):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._replay_offset = replay_offset % REPLAY_STRIDE
        self.recorder = None  # TrajectoryRecorder, created by install()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; ``name`` may be a callable of the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if before is None and after is None and not callable(name):

            def plain(*args, **kwargs):  # the common case, kept short: it runs per env step
                record = [name, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()

            return plain

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            label = name(args) if callable(name) else name
            record = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def counter(self, key: str, fn, inside: tuple):
        """Wrap fn to count its calls made under a span named in ``inside``."""

        def wrapped(*args, **kwargs):
            if any(self.spans[i][0] in inside for i in self._stack):
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- hooks -----------------------------------------------------------

    def _sample_reward(self, args, result) -> None:
        n = self.counts["envs.step.seen"]
        self.counts["envs.step.seen"] = n + 1
        if n % REPLAY_STRIDE == self._replay_offset:
            env, (_, reward, _, info) = args[0], result
            self.recorder.on_step(env.name, info["reward_snapshot"], reward)

    def _count_conflicts(self, args, result) -> None:
        self.counts["surgery.pairs_examined"] += result.pairs_examined
        self.counts["surgery.conflicts_found"] += result.conflicts_found

    def _count_points(self, args) -> None:
        self.counts["metrics.hypervolume.points"] += np.atleast_2d(np.asarray(args[0])).shape[0]

    def _file_bytes(self, key: str):
        def hook(args, *_):
            self.counts[key] += os.path.getsize(args[0])

        return hook

    # -- installation ----------------------------------------------------

    def install(self, patches: Patches) -> None:
        """Wrap every measured layer; undo with ``patches.restore()``."""
        from pastarl import cli, config, gae, metrics, nn, policy, surgery, trainer  # noqa: F401
        from pastarl.envs import ENV_CLASSES, TrajectoryRecorder

        if self.recorder is None:  # one sample across all traced repeats
            self.recorder = TrajectoryRecorder()
        span = self.span
        for cls in set(ENV_CLASSES.values()):
            patches.method(cls, "step", lambda f: span("envs.step", f, after=self._sample_reward))
            patches.method(cls, "reset", lambda f: span("envs.reset", f))

        actor = policy.GaussianActor
        for method, label in (
            ("act", "policy.act"),
            ("act_deterministic", "policy.act_deterministic"),
            ("backward_weighted_logp", "policy.backward_weighted_logp"),
        ):
            patches.method(actor, method, lambda f, label=label: span(label, f))

        def forward_label(args) -> str:
            x = args[1]  # an ndarray at every call site in the package
            return "nn.forward.row1" if x.ndim == 1 or len(x) == 1 else "nn.forward.batch"

        patches.method(nn.Network, "forward", lambda f: span(forward_label, f))
        patches.method(nn.Network, "backward", lambda f: span("nn.backward", f))
        for model in (nn.Network, actor, policy.BranchedCritic, policy.SharedCritic):
            for method in ("to_flat", "from_flat"):
                patches.method(
                    model, method, lambda f: self.counter("nn.flat_copies", f, UPDATE_SPANS)
                )
        patches.function("pastarl.nn", "adam_update", lambda f: span("nn.adam_update", f))
        patches.function(
            "pastarl.nn",
            "save_checkpoint",
            lambda f: span("nn.save_checkpoint", f, after=self._file_bytes("nn.save_checkpoint.bytes")),
        )
        patches.function(
            "pastarl.nn",
            "load_checkpoint",
            lambda f: span("nn.load_checkpoint", f, before=self._file_bytes("nn.load_checkpoint.bytes")),
        )

        for name in ("compute_gae", "normalize_advantages"):
            patches.function("pastarl.gae", name, lambda f, name=name: span(f"gae.{name}", f))
        patches.function(
            "pastarl.surgery",
            "project_conflicts",
            lambda f: span("surgery.project_conflicts", f, after=self._count_conflicts),
        )
        patches.function(
            "pastarl.metrics",
            "hypervolume",
            lambda f: span("metrics.hypervolume", f, before=self._count_points),
        )

        for method, label in (
            ("run_iteration", "trainer.iteration"),
            ("collect_rollout", "trainer.rollout"),
            ("_critic_update", "trainer.critic_update"),
            ("_actor_update", "trainer.actor_update"),
            ("evaluate", "trainer.evaluate"),
        ):
            patches.method(trainer.Trainer, method, lambda f, label=label: span(label, f))

        patches.function("pastarl.config", "write_manifest", lambda f: span("config.write_manifest", f))
        patches.function("pastarl.cli", "compare_runs", lambda f: span("cli.compare_runs", f))
        patches.function("pastarl.cli", "main", lambda f: span("cli.main", f))

    # -- results ---------------------------------------------------------

    def replay_mismatches(self) -> tuple[int, int]:
        """(records replayed, rewards that differ in any bit from the logged ones)."""
        from pastarl.envs import replay_rewards

        records = self.recorder.records if self.recorder is not None else []
        pairs = replay_rewards(records)
        bad = sum(
            logged.tobytes() != np.asarray(replayed, dtype=np.float64).tobytes()
            for logged, replayed in pairs
        )
        return len(pairs), bad

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]

        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            n = calls[name]
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.us_per_call"] = (busy[name] / n * 1e6 if n else 0.0, "us")
        for name in SELF_TIME_LAYERS:
            out[f"{name}.self_s"] = (self_s[name], "s")

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        iteration_s = busy["trainer.iteration"]
        counts = self.counts
        out["trainer.rollout.share"] = (ratio(busy["trainer.rollout"], iteration_s), "ratio")
        out["trainer.update.share"] = (
            ratio(sum(busy[name] for name in UPDATE_SPANS), iteration_s),
            "ratio",
        )
        out["policy.backward_weighted_logp.calls_per_actor_update"] = (
            ratio(calls["policy.backward_weighted_logp"], calls["trainer.actor_update"]),
            "count",
        )
        out["nn.flat_copies"] = (ratio(counts["nn.flat_copies"], calls["nn.adam_update"]), "count")
        out["surgery.conflict_frac"] = (
            ratio(counts["surgery.conflicts_found"], counts["surgery.pairs_examined"]),
            "ratio",
        )
        out["metrics.hypervolume.points_per_call"] = (
            ratio(counts["metrics.hypervolume.points"], calls["metrics.hypervolume"]),
            "count",
        )
        for name in ("nn.save_checkpoint", "nn.load_checkpoint"):
            out[f"{name}.bytes"] = (ratio(counts[f"{name}.bytes"], calls[name]), "bytes")
        return out

    def write(self, path) -> None:
        """Write spans as JSON lines ``[name, start_us, end_us, parent]``, times
        in whole microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, round((start - t0) * 1e6), round((end - t0) * 1e6), parent]) + "\n")
