"""Span recorder that times calls into underlay_ppo from outside the package.

The recorder rebinds module and class attributes of underlay_ppo to timing
wrappers and puts the originals back on ``restore()``; the package source is
never edited. It has two levels:

- iterations only (``detail=False``): wraps ``harness.train`` to cut the
  training loop into iteration spans through its ``on_iteration`` hook, and
  ``ppo.build_agents`` to mark the end of set-up. Untraced runs use this.
- full (``detail=True``): also wraps every layer boundary in ``LAYER_TARGETS``.

A span is a list ``[name, start_ns, end_ns, parent, iteration]``: ``name``
indexes ``SPAN_NAMES``, times come from ``time.monotonic_ns`` (one clock
for every process of the machine), ``parent`` indexes the span list (-1 for
a root) and ``iteration`` is the id shared by all spans of one training
iteration (0 outside iterations). Spans stay in memory until ``dump()``.

An iteration span starts when ``build_agents`` returns (so env and agent
construction are set-up, not iteration time) or when the previous
iteration's ``on_iteration`` call ends, and ends at the next
``on_iteration`` call.
"""
from __future__ import annotations

import atexit
import importlib
import json
import os
import time

ITERATION = "iteration"

# (module, attribute path, span name) for the iteration-level wrappers
ITERATION_TARGETS = (
    ("underlay_ppo.harness", "train", "harness.train"),
    ("underlay_ppo.ppo", "build_agents", "ppo.build_agents"),
)

# Each boundary is rebound where its caller looks it up: ppo and env import
# their callees by name, so e.g. env.sample_gain_matrices is the attribute
# env.step really calls. ppo._collect is private but is the only handle on
# rollout collection.
LAYER_TARGETS = (
    ("underlay_ppo.cli", "main", "cli.main"),
    ("underlay_ppo.harness", "write_seed_csv", "harness.write_seed_csv"),
    ("underlay_ppo.harness", "write_aggregate_csv", "harness.write_aggregate_csv"),
    ("underlay_ppo.ppo", "_collect", "ppo.collect"),
    ("underlay_ppo.ppo", "compute_gae", "ppo.compute_gae"),
    ("underlay_ppo.ppo", "ppo_update", "ppo.ppo_update"),
    ("underlay_ppo.ppo", "policy_objective", "ppo.policy_objective"),
    ("underlay_ppo.ppo", "value_objective", "ppo.value_objective"),
    ("underlay_ppo.ppo", "sample_action", "nets.sample_action"),
    ("underlay_ppo.ppo", "build_centralized_obs", "env.build_centralized_obs"),
    ("underlay_ppo.nets", "ValueNet.value", "nets.ValueNet.value"),
    ("underlay_ppo.nets", "AdamState.step", "nets.AdamState.step"),
    ("underlay_ppo.env", "SpectrumSharingEnv.reset", "env.reset"),
    ("underlay_ppo.env", "SpectrumSharingEnv.step", "env.step"),
    ("underlay_ppo.env", "perturb_topology", "geometry.perturb_topology"),
    ("underlay_ppo.env", "sample_gain_matrices", "geometry.sample_gain_matrices"),
    ("underlay_ppo.env", "evaluate_links", "phy.evaluate_links"),
)

SPAN_NAMES = (ITERATION,) + tuple(
    name for _, _, name in ITERATION_TARGETS + LAYER_TARGETS
)
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


def _owner(module: str, path: str):
    """Return (object holding the attribute, attribute name)."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """Rebinds underlay_ppo attributes to timing wrappers; see module doc."""

    def __init__(self, detail: bool, setup_probe: bool = False):
        self.detail = detail
        self.setup_probe = setup_probe
        self.spans: list[list[int]] = []
        self.setup_mark_ns: int | None = None
        self.restored = False
        self._stack = [-1]
        self._iteration = 0
        self._iterations_begun = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and restoring -----------------------------------------

    def install(self) -> "Recorder":
        targets = ITERATION_TARGETS + (LAYER_TARGETS if self.detail else ())
        for module, path, name in targets:
            owner, attr = _owner(module, path)
            original = owner.__dict__[attr]
            if name == "harness.train":
                wrapper = self._wrap_train(original)
            elif name == "ppo.build_agents":
                wrapper = self._wrap_build_agents(original)
            else:
                wrapper = self._wrap(_NAME_ID[name], original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        restored = all(owner.__dict__[attr] is original
                       for owner, attr, original in self._saved)
        self._saved.clear()
        return restored

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restored = self.restore()

    # -- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> list[int]:
        span = [name_id, time.monotonic_ns(), 0, self._stack[-1], self._iteration]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list[int]) -> None:
        span[2] = time.monotonic_ns()
        self._stack.pop()

    def _wrap(self, name_id: int, fn):
        def traced(*args, **kwargs):
            span = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _begin_iteration(self) -> None:
        self._iterations_begun += 1
        self._iteration = self._iterations_begun
        self._open(_NAME_ID[ITERATION])

    def _in_iteration(self) -> bool:
        top = self._stack[-1]
        return top >= 0 and self.spans[top][0] == _NAME_ID[ITERATION]

    def _end_iteration(self) -> None:
        if self._in_iteration():
            self._close(self.spans[self._stack[-1]])
            self._iteration = 0

    def _wrap_train(self, fn):
        train_id = _NAME_ID["harness.train"]

        def train(env_cfg, hyper, mode, rng, on_iteration=None, **kwargs):
            def iteration_done(row):
                self._end_iteration()
                if on_iteration is not None:
                    on_iteration(row)
                self._begin_iteration()

            span = self._open(train_id)
            try:
                return fn(env_cfg, hyper, mode, rng,
                          on_iteration=iteration_done, **kwargs)
            finally:
                if self._in_iteration():
                    # the span opened after the last iteration holds no work
                    # unless the loop raised part-way through it
                    top = self._stack.pop()
                    if top == len(self.spans) - 1:
                        del self.spans[top]
                    else:
                        self.spans[top][2] = time.monotonic_ns()
                    self._iteration = 0
                self._close(span)

        return train

    def _wrap_build_agents(self, fn):
        traced = self._wrap(_NAME_ID["ppo.build_agents"], fn)

        def build_agents(*args, **kwargs):
            agents = traced(*args, **kwargs)
            if self.setup_mark_ns is None:
                self.setup_mark_ns = time.monotonic_ns()
                if self.setup_probe:
                    raise SystemExit(0)  # a set-up probe ends here
            top = self._stack[-1]
            if top >= 0 and self.spans[top][0] == _NAME_ID["harness.train"]:
                self._begin_iteration()
            return agents

        return build_agents

    def dump(self) -> dict:
        return {
            "pid": os.getpid(),
            "names": list(SPAN_NAMES),
            "spans": self.spans,
            "setup_mark_ns": self.setup_mark_ns,
        }


def record_child(prefix: str, detail: bool, setup_probe: bool) -> Recorder:
    """Install a recorder in this process and write it to
    ``<prefix>-<pid>.json`` at exit, with the result of ``restore()``."""
    recorder = Recorder(detail, setup_probe).install()

    def finish():
        data = recorder.dump()
        data["restored"] = recorder.restore()
        with open(f"{prefix}-{os.getpid()}.json", "w", encoding="utf-8") as f:
            json.dump(data, f, separators=(",", ":"))

    atexit.register(finish)
    return recorder
