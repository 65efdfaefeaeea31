"""In-memory span recorder and the function wrappers that feed it.

A span is one call into a wrapped library function: its name, start and end
(``perf_counter_ns``) and the index of the span that was open when it began
(-1 for none).  Spans live in flat arrays while the run is going and are
written out once, when it ends.  Self time is a span's duration minus the
durations of its direct children; calls are single-threaded and properly
nested, so the children never overlap.

Wrappers are installed from outside the library: every attribute of every
loaded module that *is* the original function gets the wrapper, so a
function imported by name into several modules (``is_nilpotent`` lives in
``nilpotency``, ``criteria``, ``operators``, ``lab``, ``cli`` and the package
itself) is traced wherever it is called from.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

_NO_PARENT = -1


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._open = [_NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # ---- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: int, end: int, parent: int = _NO_PARENT) -> int:
        """Append one finished span; returns its index."""
        self.name_of.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call of `fn`.

        `after(args, result)` runs once the span is closed and is recorded as
        a ``trace.after`` span, so its cost is charged neither to the span
        nor to the caller.
        """
        name_id = self._name_id(name)
        hook_id = self._name_id("trace.after")
        name_of, start, end, parent, open_ = (
            self.name_of, self.start, self.end, self.parent, self._open
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(open_[-1])
            start.append(0)
            end.append(0)
            open_.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                start[index] = t0
                end[index] = t1
            if after is not None:
                # charged to a span of its own so the caller's self time
                # does not include it
                h0 = clock()
                after(args, result)
                h1 = clock()
                name_of.append(hook_id)
                parent.append(open_[-1])
                start.append(h0)
                end.append(h1)
            return result

        return traced

    # ---- patching ----------------------------------------------------------
    def install(self, targets, module_prefix: str) -> None:
        """Wrap each target everywhere it is bound.

        `targets` holds ``(owner, attribute, span_name, after)``.  A class
        owner has its attribute replaced on the class; a module owner's
        function is replaced in every loaded module under `module_prefix`
        that holds the same function object.
        """
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == module_prefix or key.startswith(module_prefix + "."))
        ]
        for owner, attr, span_name, after in targets:
            original = owner.__dict__[attr]
            wrapper = self.wrap(span_name, original, after)
            if isinstance(owner, type):
                homes = [(owner, attr)]
            else:
                homes = [
                    (m, key) for m in modules
                    for key, value in list(vars(m).items()) if value is original
                ]
            for home, key in homes:
                self._patches.append((home, key, original))
                setattr(home, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            home, key, original = self._patches.pop()
            setattr(home, key, original)

    # ---- analysis ----------------------------------------------------------
    def self_times(self) -> list[int]:
        """Per-span self time in nanoseconds."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for p, d in zip(self.parent, durations):
            if p != _NO_PARENT:
                own[p] -= d
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: number of calls, total and self time in seconds."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own_total: dict[str, int] = defaultdict(int)
        for nid, s, e, own in zip(self.name_of, self.start, self.end, self.self_times()):
            name = self.names[nid]
            calls[name] += 1
            total[name] += e - s
            own_total[name] += own
        return {
            name: {"calls": calls[name], "total_s": total[name] / 1e9, "self_s": own_total[name] / 1e9}
            for name in sorted(calls)
        }

    def write(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (nid, s, e, p) in enumerate(zip(self.name_of, self.start, self.end, self.parent)):
                out.write(f"{i}\t{self.names[nid]}\t{s}\t{e}\t{p}\n")
