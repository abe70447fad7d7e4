"""Spans around the public functions of the causalops layers.

The tracer wraps functions from outside the package: nothing in ``src/``
knows about it.  A module-level function is rebound in every module that
holds it by name (``bordism`` and ``translate`` import from
``causal_core``, so patching only the defining module would miss their
calls); a method or constructor is patched once on its class.  Every
binding is put back by :meth:`Tracer.restore`.

Spans are kept in memory as flat arrays (target, parent span, start, end)
and written out once, at the end of the run, by :meth:`Tracer.write_spans`.  A target's self time is its
span time minus the time of the wrapped spans it directly caused.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass
from types import ModuleType

PACKAGE = "causalops"


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` is the defining causalops module,
    ``name`` a function, ``Class.method`` or ``Class`` (its constructor),
    ``alias`` an optional shorter name for its metrics."""

    module: str
    name: str
    repeat: bool = False
    calls_only: bool = False
    alias: str = ""

    @property
    def label(self) -> str:
        return f"{self.module}.{self.alias or self.name}"


def _freeze(value, skip: tuple[type, ...]):
    """A hashable key equal for equal arguments; raises TypeError if none."""
    if isinstance(value, skip):
        return None
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v, skip) for v in value)
    hash(value)
    return value


class Tracer:
    def __init__(self, targets: list[Target],
                 extra_modules: tuple[ModuleType, ...] = (),
                 skip_in_keys: tuple[type, ...] = ()):
        self.targets = list(targets)
        self.extra_modules = extra_modules
        self.skip_in_keys = skip_in_keys
        n = len(self.targets)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.repeats = [0] * n
        self._seen: list[set] = [set() for _ in range(n)]
        self.span_target = array.array("H")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        # one frame per open span: [span index, time covered by child spans]
        self._open: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- binding ------------------------------------------------------------

    def _modules(self) -> list[ModuleType]:
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        return mods + [m for m in self.extra_modules if m not in mods]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for k, t in enumerate(self.targets):
            owner = sys.modules[f"{PACKAGE}.{t.module}"]
            cls_name, _, method = t.name.partition(".")
            if method or inspect.isclass(getattr(owner, cls_name)):
                cls = getattr(owner, cls_name)
                method = method or "__init__"
                raw = cls.__dict__[method]
                self._undo.append((cls, method, raw))
                setattr(cls, method, self._wrap(raw, k))
                continue
            original = getattr(owner, t.name)
            wrapper = self._wrap(original, k)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---- spans -----------------------------------------------------------------

    def _enter(self, k: int) -> list:
        idx = len(self.span_start)
        self.span_target.append(k)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._open.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _exit(self, k: int, frame: list) -> None:
        end = time.perf_counter()
        self._open.pop()
        idx = frame[0]
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_s[k] += duration - frame[1]
        if self._open:
            self._open[-1][1] += duration

    def _note_call(self, k: int, args: tuple, kwargs: dict) -> tuple:
        self.calls[k] += 1
        if not self.targets[k].repeat:
            return args
        # an iterator argument is drained once here and passed on as a tuple
        args = tuple(tuple(a) if isinstance(a, Iterator) else a for a in args)
        try:
            key = _freeze((args, tuple(sorted(kwargs.items()))), self.skip_in_keys)
        except TypeError:
            return args
        seen = self._seen[k]
        if key in seen:
            self.repeats[k] += 1
        else:
            seen.add(key)
        return args

    def _wrap(self, fn, k: int):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                args = self._note_call(k, args, kwargs)
                frame = self._enter(k)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    self._exit(k, frame)
                while True:
                    frame = self._enter(k)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(k, frame)
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = self._note_call(k, args, kwargs)
            frame = self._enter(k)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(k, frame)
        return wrapper

    # ---- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """``<module>.<name>.calls`` / ``.self_s`` / ``.repeat_share`` and
        ``<module>.self_s``, as (value, unit) pairs."""
        out: dict[str, tuple[float, str]] = {}
        per_module: dict[str, float] = {}
        for k, t in enumerate(self.targets):
            out[f"{t.label}.calls"] = (self.calls[k], "count")
            if t.calls_only:
                continue
            out[f"{t.label}.self_s"] = (self.self_s[k], "s")
            per_module[t.module] = per_module.get(t.module, 0.0) + self.self_s[k]
            if t.repeat:
                share = self.repeats[k] / self.calls[k] if self.calls[k] else 0.0
                out[f"{t.label}.repeat_share"] = (share, "share")
        for module, total in per_module.items():
            out[f"{module}.self_s"] = (total, "s")
        return out

    def write_spans(self, path) -> int:
        """Write the spans: one JSON header line, then the four arrays raw."""
        arrays = (self.span_target, self.span_parent, self.span_start, self.span_end)
        header = {
            "targets": [t.label for t in self.targets],
            "spans": len(self.span_start),
            "arrays": [["target", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays:
                arr.tofile(fh)
        return len(self.span_start)
