"""Span tracer that instruments snowcap from outside the package.

`Tracer.install` swaps each public layer function for a wrapper that records
a span (name, start, end, parent, thread) plus a few work counts taken from
the call's result. It patches the function in its home module and in every
listed module that imported it by name, because `snowcap.cli` calls the
names it imported, not the module attributes. `restore` puts the originals
back. Spans stay in memory until the caller writes them out.

A span opened on a thread with no open span of its own takes the innermost
open span of the main thread as parent: the CLI sweep builds its two fields
on a thread pool while the main thread waits inside the sweep span, and the
executor carries no context across threads.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple] = []

    # --- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            sid = len(self.spans)
            self.spans.append(
                {"id": sid, "name": name, "parent": parent, "thread": tid,
                 "start": time.perf_counter(), "end": None, "counts": {}, "error": None}
            )
            stack.append(sid)
        return sid

    def _close(self, sid: int, counts: dict, error: str | None) -> None:
        end = time.perf_counter()
        with self._lock:
            span = self.spans[sid]
            span["end"] = end
            span["counts"].update(counts)
            span["error"] = error
            self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(sid, {}, error)

    # --- instrumentation ----------------------------------------------------

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            counts, error = {}, None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(sid, counts, error)

        return traced

    def install(self, targets, importers) -> None:
        """Wrap each (module, attribute, span name, count) target.

        `count` maps the call's result to a dict of work counts, or is None.
        The wrapper also replaces the attribute in each module of
        `importers` that holds the same function object.
        """
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            traced = self._wrap(original, name, count)
            for owner in (module, *importers):
                if getattr(owner, attr, None) is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# --- analysis of a finished trace -----------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans):
    kids = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    kids = _children(spans)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in kids[s["id"]]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def nesting_violations(spans, slack: float = 1e-6) -> list[str]:
    """Parents whose children's self times, summed per thread, exceed the
    parent's duration. Children on one thread run one after another, so
    their self times must fit inside the parent; children on different
    threads may overlap each other and are summed separately."""
    selfs = self_times(spans)
    kids = _children(spans)
    bad = []
    for s in spans:
        per_thread: dict[int, float] = {}
        for c in kids[s["id"]]:
            per_thread[c["thread"]] = per_thread.get(c["thread"], 0.0) + selfs[c["id"]]
        dur = s["end"] - s["start"]
        for tid, total in per_thread.items():
            if total > dur + slack:
                bad.append(f"{s['name']}#{s['id']}: children {total:.6f} s > {dur:.6f} s")
    return bad


def summarize(spans) -> dict:
    """Per span name: calls, busy time (sum of durations), self time, union
    of the wall-clock intervals, and summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(
            s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "intervals": [], "counts": {}}
        )
        row["calls"] += 1
        row["busy_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
        row["intervals"].append((s["start"], s["end"]))
        for k, v in s["counts"].items():
            row["counts"][k] = row["counts"].get(k, 0) + v
    for row in out.values():
        row["union_s"] = union_length(row.pop("intervals"))
    return out
