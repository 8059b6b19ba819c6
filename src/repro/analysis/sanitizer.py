"""Runtime concurrency sanitizer: lock-order tracking and I/O-under-lock.

The static half of this package proves *discipline* (guarded state is only
touched under its lock); this module watches the *dynamics* the AST cannot
see — in which order threads actually acquire the locks, and whether a
thread performs disk I/O while holding one.

Components opt in by wrapping their locks at construction time::

    self._lock = sanitize_lock(threading.RLock(), "matcache", obs=self.obs)

and marking their I/O sites::

    record_io("spill.write", obs=self.obs, key=key)

When ``REPRO_SANITIZE`` is unset (the default), :func:`sanitize_lock`
returns the bare lock unchanged — the serving hot path pays nothing, not
even an attribute indirection.  When set to a truthy value, every acquire
and release goes through a :class:`SanitizedLock` that maintains a global
cross-thread **lock-order graph**: an edge ``A -> B`` means some thread
acquired a ``B``-role lock while holding an ``A``-role lock.  A cycle in
that graph is a potential deadlock even if the run never hung; an I/O call
under a held lock is the spill-stall smell ROADMAP calls out.  Both are
counted on the component's :class:`~repro.obs.MetricsRegistry` and emitted
as trace events, and :meth:`SanitizerState.report` serializes everything
for test assertions and CI artifacts.

Roles, not lock instances, are the graph nodes: two sessions in one
process hold two ``"session"`` locks, and an order inversion between them
is the same bug.  Re-entrant re-acquisition of the same role (RLock) does not add
a self-edge.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "SanitizedLock",
    "SanitizerState",
    "record_io",
    "sanitize_enabled",
    "sanitize_lock",
    "sanitizer_state",
]

_ENV_VAR = "REPRO_SANITIZE"
_FALSY = {"", "0", "false", "no", "off"}


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for instrumented locks *right now*.

    Read at every call (not import) so tests can flip the environment with
    ``monkeypatch.setenv`` and rebuild components without reloading modules.
    """
    return os.environ.get(_ENV_VAR, "").strip().lower() not in _FALSY


class _ThreadLocalStacks(threading.local):
    """Per-thread stack of held (role, lock id) pairs, in acquisition order."""

    def __init__(self):
        self.held: List[Tuple[str, int]] = []


class SanitizerState:
    """The global cross-thread record: lock-order graph + I/O-under-lock.

    One process-wide instance lives behind :func:`sanitizer_state`; tests
    call :meth:`reset` around each scenario.  All mutation happens under a
    private lock that is *not* itself sanitized.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks = _ThreadLocalStacks()
        #: role -> set of roles acquired while the key role was held.
        self._edges: Dict[str, Set[str]] = {}
        #: (held-role, acquired-role) -> one example (thread name, line of roles below).
        self._edge_examples: Dict[Tuple[str, str], str] = {}
        self._acquisitions: Dict[str, int] = {}
        #: (held-roles tuple, io kind) -> count.
        self._io_under_lock: Dict[Tuple[Tuple[str, ...], str], int] = {}
        self._cycles_seen: Set[Tuple[str, ...]] = set()

    # ------------------------------------------------------------ recording

    def on_acquire(self, role: str, lock_id: int, obs=None) -> None:
        stack = self._stacks.held
        held_roles = [r for r, _ in stack]
        new_cycles: List[Tuple[str, ...]] = []
        with self._lock:
            self._acquisitions[role] = self._acquisitions.get(role, 0) + 1
            for held in held_roles:
                if held == role:
                    continue  # RLock re-entry / sibling same-role locks
                targets = self._edges.setdefault(held, set())
                if role not in targets:
                    targets.add(role)
                    self._edge_examples[(held, role)] = (
                        f"thread {threading.current_thread().name!r} held "
                        f"{'<'.join(held_roles)} then acquired {role!r}"
                    )
                    for cycle in self._cycles_locked():
                        if cycle not in self._cycles_seen:
                            self._cycles_seen.add(cycle)
                            new_cycles.append(cycle)
        stack.append((role, lock_id))
        if obs is not None:
            obs.counter("sanitizer_lock_acquisitions_total", role=role).inc()
            for cycle in new_cycles:
                obs.counter("sanitizer_lock_order_cycles_total").inc()
                obs.tracer.event(
                    "sanitizer.lock_order_cycle", cycle="->".join(cycle)
                )

    def on_release(self, role: str, lock_id: int) -> None:
        stack = self._stacks.held
        # Locks almost always release LIFO, but `release()` called out of
        # order is legal; drop the newest matching entry.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == (role, lock_id):
                del stack[index]
                return

    def on_io(self, kind: str, obs=None, **detail: object) -> None:
        held = tuple(r for r, _ in self._stacks.held)
        if not held:
            return
        with self._lock:
            key = (held, kind)
            self._io_under_lock[key] = self._io_under_lock.get(key, 0) + 1
        if obs is not None:
            obs.counter(
                "sanitizer_io_under_lock_total", kind=kind, locks="<".join(held)
            ).inc()
            if obs.tracer.enabled:
                obs.tracer.event(
                    "sanitizer.io_under_lock",
                    kind=kind,
                    locks="<".join(held),
                    **detail,
                )

    # ------------------------------------------------------------- queries

    def held_roles(self) -> Tuple[str, ...]:
        """Roles the *current thread* holds, outermost first."""
        return tuple(r for r, _ in self._stacks.held)

    def edges(self) -> Dict[str, Set[str]]:
        with self._lock:
            return {src: set(dst) for src, dst in self._edges.items()}

    def cycles(self) -> List[Tuple[str, ...]]:
        """Every distinct cycle in the lock-order graph (empty == acyclic)."""
        with self._lock:
            return self._cycles_locked()

    def _cycles_locked(self) -> List[Tuple[str, ...]]:
        cycles: Set[Tuple[str, ...]] = set()
        edges = self._edges

        def visit(node: str, path: List[str], on_path: Set[str]) -> None:
            for nxt in sorted(edges.get(node, ())):
                if nxt in on_path:
                    cycle = path[path.index(nxt):] + [nxt]
                    # Canonicalize rotation so A->B->A and B->A->B dedupe.
                    body = cycle[:-1]
                    pivot = body.index(min(body))
                    canonical = tuple(body[pivot:] + body[:pivot]) + (
                        min(body),
                    )
                    cycles.add(canonical)
                elif nxt not in path:
                    path.append(nxt)
                    on_path.add(nxt)
                    visit(nxt, path, on_path)
                    on_path.discard(nxt)
                    path.pop()

        for start in sorted(edges):
            visit(start, [start], {start})
        return sorted(cycles)

    def io_events(self) -> Dict[Tuple[Tuple[str, ...], str], int]:
        with self._lock:
            return dict(self._io_under_lock)

    def report(self) -> dict:
        """A JSON-serializable summary (tests and CI artifacts)."""
        with self._lock:
            edges = {src: sorted(dst) for src, dst in sorted(self._edges.items())}
            examples = {
                f"{src}->{dst}": example
                for (src, dst), example in sorted(self._edge_examples.items())
            }
            acquisitions = dict(sorted(self._acquisitions.items()))
            io = [
                {"locks": list(held), "kind": kind, "count": count}
                for (held, kind), count in sorted(self._io_under_lock.items())
            ]
            cycles = [list(c) for c in self._cycles_locked()]
        return {
            "enabled": sanitize_enabled(),
            "acquisitions": acquisitions,
            "lock_order_edges": edges,
            "edge_examples": examples,
            "cycles": cycles,
            "io_under_lock": io,
        }

    def reset(self) -> None:
        """Drop all recorded state (per-test isolation).

        Only clears the shared record; other threads' held-stacks are
        thread-local and die with their threads.
        """
        with self._lock:
            self._edges.clear()
            self._edge_examples.clear()
            self._acquisitions.clear()
            self._io_under_lock.clear()
            self._cycles_seen.clear()
        self._stacks.held.clear()


_STATE = SanitizerState()


def sanitizer_state() -> SanitizerState:
    """The process-wide sanitizer record."""
    return _STATE


class SanitizedLock:
    """A lock wrapper that reports every acquire/release to the sanitizer.

    Context-manager and ``acquire``/``release`` compatible with
    ``threading.Lock``/``RLock``, so it drops into ``with self._lock:``
    sites unchanged.  Recording happens *after* a successful acquire and
    *before* the release, so the held-stack matches reality even under
    contention.
    """

    __slots__ = ("_inner", "role", "_obs", "_state")

    def __init__(self, inner, role: str, obs=None, state: Optional[SanitizerState] = None):
        self._inner = inner
        self.role = role
        self._obs = obs
        self._state = state if state is not None else _STATE

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._state.on_acquire(self.role, id(self._inner), self._obs)
        return acquired

    def release(self) -> None:
        self._state.on_release(self.role, id(self._inner))
        self._inner.release()

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"SanitizedLock(role={self.role!r}, inner={self._inner!r})"


def sanitize_lock(lock, role: str, obs=None):
    """Wrap ``lock`` for sanitizing when ``REPRO_SANITIZE`` is on.

    The one call components make.  Disabled (the default) it returns
    ``lock`` itself — zero wrapper, zero overhead; enabled it returns a
    :class:`SanitizedLock` reporting to the global state and to ``obs``.
    """
    if not sanitize_enabled():
        return lock
    return SanitizedLock(lock, role, obs=obs)


def record_io(kind: str, obs=None, **detail: object) -> None:
    """Mark a blocking-I/O site; records only if sanitizing *and* a
    sanitized lock is currently held by this thread.  Free when disabled."""
    if not sanitize_enabled():
        return
    _STATE.on_io(kind, obs, **detail)
