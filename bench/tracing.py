"""Spans around the benchmark's calls into nilflow's public API.

The benchmark never times code inside the package: it wraps each layer module
(one per file of ``src/nilflow``) in a proxy whose functions record a span
(name, start, end, parent span, case id) around the call they forward.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

LAYERS = ("algebra", "bch", "cli", "curvature", "flow", "generators", "soliton")


class Recorder:
    """In-memory span log; ``case`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.case = None

    @contextmanager
    def span(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "case": self.case,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def write(self, path):
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps(dict(s, self_s=self_s)) + "\n")


class _Module:
    """Forwards attribute access to a module; its functions open a span per
    call when there is a recorder and call ``after_call`` when they return."""

    def __init__(self, module, recorder, after_call):
        self._module = module
        self._recorder = recorder
        self._after_call = after_call
        self._layer = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if isinstance(value, type) or not callable(value):
            return value
        name = f"{self._layer}.{attr}"
        recorder, after_call = self._recorder, self._after_call

        def wrapped(*args, **kwargs):
            if recorder is None:
                result = value(*args, **kwargs)
            else:
                with recorder.span(name):
                    result = value(*args, **kwargs)
            if after_call is not None:
                after_call()
            return result

        return wrapped


class Api:
    """The layer modules, plain or wrapped; cases call nilflow only through this."""

    def __init__(self, recorder: Recorder | None = None, after_call=None):
        self.recorder = recorder
        for layer in LAYERS:
            module = importlib.import_module(f"nilflow.{layer}")
            if recorder is not None or after_call is not None:
                module = _Module(module, recorder, after_call)
            setattr(self, layer, module)

    @contextmanager
    def span(self, name):
        """A span for a call that is not a module function (a method of a result)."""
        if self.recorder is None:
            yield
        else:
            with self.recorder.span(name):
                yield
