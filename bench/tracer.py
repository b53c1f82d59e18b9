"""Spans and counters around calls into peftlab, installed from outside.

Nothing here edits the package: wrappers are bound over public names of its
modules (every module attribute that holds the same function object, so a
name imported by another module is wrapped too) and removed again by
`Patcher.undo`.  A wrapper whose target is missing is skipped with a
message; the metrics that depend on it are then dropped, never the run.
"""

from __future__ import annotations

import sys
from collections import Counter

from speed import clock as perf


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "peftlab" or name.startswith("peftlab."))]


class Patcher:
    """Rebinds functions and methods; `undo` restores every binding it made."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def function(self, module, name: str, make_wrapper) -> bool:
        """Wrap `module.name` wherever a peftlab module binds that object."""
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return False
        wrapper = make_wrapper(original)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return True

    def attribute(self, owner, name: str, make_wrapper, label: str) -> bool:
        """Wrap one attribute of a class or instance (a method, say)."""
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(label)
            return False
        self._undo.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, make_wrapper(original))
        return True

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


_ABSENT = object()


class StepClock:
    """Step boundaries taken at calls to the public train.adamw_step / train.evaluate.

    A step runs from the previous boundary (end of the last AdamW update, end
    of the last validation pass, or `mark`) to the end of its AdamW update.
    """

    def __init__(self):
        self.last = perf()
        self.steps: list[tuple[float, float]] = []
        self.evals: list[tuple[float, float]] = []

    def mark(self) -> None:
        self.last = perf()

    def install(self, patcher: Patcher, train_module) -> None:
        def adamw(original):
            def timed(*args, **kwargs):
                out = original(*args, **kwargs)
                now = perf()
                self.steps.append((self.last, now))
                self.last = now
                return out
            return timed

        def evaluate(original):
            def timed(*args, **kwargs):
                t0 = perf()
                out = original(*args, **kwargs)
                now = perf()
                self.evals.append((t0, now))
                self.last = now
                return out
            return timed

        for name, make in (("adamw_step", adamw), ("evaluate", evaluate)):
            if not patcher.function(train_module, name, make):
                raise SystemExit(f"error: train.{name} is gone; no step boundaries")


class CallTimes:
    """Every call of one function: (shape of its first argument, nesting depth, start, end)."""

    def __init__(self):
        self.calls: list[tuple[tuple, int, float, float]] = []
        self._depth = 0

    def install(self, patcher: Patcher, module, name: str) -> bool:
        """False, and nothing installed, when `module.name` is gone."""
        def make(original):
            def timed(first, *args, **kwargs):
                depth = self._depth
                self._depth += 1
                t0 = perf()
                try:
                    return original(first, *args, **kwargs)
                finally:
                    self._depth = depth
                    self.calls.append((getattr(first, "shape", ()), depth, t0, perf()))
            return timed

        return patcher.function(module, name, make)


class Tracer:
    """In-memory spans: [name, start, end, index of the parent span or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str):
        spans, stack = self.spans, self._stack

        def make(original):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                t0 = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    span = spans[idx]
                    span[1] = t0
                    span[2] = t1
            return traced
        return make

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def self_time_in(spans: list[list], own: list[float], windows: list[tuple[float, float]]):
    """Per window, the self time of every span that starts inside it, by layer."""
    out = [Counter() for _ in windows]
    if not windows:
        return out
    order = sorted(range(len(spans)), key=lambda i: spans[i][1])
    w = 0
    for i in order:
        t0 = spans[i][1]
        while w < len(windows) and windows[w][1] < t0:
            w += 1
        if w == len(windows):
            break
        if windows[w][0] <= t0 <= windows[w][1]:
            out[w][spans[i][0].split(".", 1)[0]] += own[i]
    return out


# (layer, public name) pairs that get a span named "<layer>.<name>"
SPANS = (
    ("autodiff", "matmul"),
    ("vit", "forward"), ("vit", "patch_embed"), ("vit", "encoder_layer"), ("vit", "mha"),
    ("vit", "ffn"),
    ("peft", "attach"), ("peft", "merge_model"),
    ("train", "train"), ("train", "full_finetune"), ("train", "adamw_step"),
    ("train", "evaluate"), ("train", "make_synthetic_task"),
    ("spectral", "spectral_perturbation_report"), ("spectral", "effective_rank"),
    ("spectral", "svd"),
    ("dataio", "save_checkpoint"), ("dataio", "load_checkpoint"),
)


def tape_nodes(loss) -> int:
    """Nodes reachable from the loss through the recorded parents, leaves included."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TraceSession:
    """Spans around the calls into each peftlab layer, installed around one unit of work.

    Besides the spans it counts the tape nodes of every backward pass and
    traces the `ForwardHooks.linear` calls of an attached model on its
    adapted slots as "peft.adapted_linear".
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.tracer = Tracer()
        self.tape_nodes: list[int] = []
        self.missing: set[str] = set()
        self._patcher = Patcher()

    def install(self) -> None:
        for layer, name in SPANS:
            self._patcher.function(self.modules[layer], name, self.tracer.wrap(f"{layer}.{name}"))
        tensor = getattr(self.modules["autodiff"], "Tensor", None)
        self._patcher.attribute(tensor, "backward", self._backward, "autodiff.Tensor.backward")

    def _backward(self, original):
        traced = self.tracer.wrap("autodiff.backward")(original)

        def counted(loss, *args, **kwargs):
            if "autodiff.tape_nodes" not in self.missing:
                try:
                    self.tape_nodes.append(tape_nodes(loss))
                except AttributeError:
                    self.missing.add("autodiff.tape_nodes")
            return traced(loss, *args, **kwargs)
        return counted

    def attached(self, pm, keys: set[str]) -> None:
        traced = self.tracer.wrap("peft.adapted_linear")

        def make(original):
            adapted = traced(original)

            def linear(key, *args, **kwargs):
                return (adapted if key in keys else original)(key, *args, **kwargs)
            return linear

        self._patcher.attribute(getattr(pm, "hooks", None), "linear", make,
                                "peft.PeftModel.hooks.linear")

    def uninstall(self) -> None:
        self.missing.update(self._patcher.missing)
        self._patcher.missing.clear()
        self._patcher.undo()
