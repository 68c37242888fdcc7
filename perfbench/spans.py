"""In-memory span tracing around the layers of susim, installed from outside.

The tracer replaces the names that each susim module imports from the next
layer (``susim.solver.check_presolution``, ``susim.refine.eig_hermitian``,
``susim.cli.instance_from_json`` ...) with wrappers that record a span:
operation id, layer name, start, end and parent.  Nothing inside susim is
changed, and an untraced run installs no wrapper at all.

A layer's self time is its span minus the spans of its children, so the
self times of one command add up to the command's root span exactly.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, layer).  The same layer may be entered from several
# callers, e.g. the scan from both the solver and the feature extraction.
SPAN_PATCHES = (
    ("susim.cli", "instance_from_json", "serialize.parse"),
    ("susim.cli", "result_from_json", "serialize.parse"),
    ("susim.cli", "features_from_json", "serialize.parse"),
    ("susim.cli", "result_to_json", "serialize.emit"),
    ("susim.cli", "features_to_json", "serialize.emit"),
    ("susim.cli", "solve", "solver"),
    ("susim.cli", "witness_residual", "solver.residual"),
    ("susim.cli", "check_certificate", "certcheck.replay"),
    ("susim.cli", "extract_features", "canonical"),
    ("susim.solver", "check_presolution", "structure.scan"),
    ("susim.solver", "build_paths", "graph.paths"),
    ("susim.solver", "check_pr", "graph.check_pr"),
    ("susim.solver", "apply_refinement", "refine"),
    ("susim.solver", "_assemble_solution", "solver.assemble"),
    ("susim.solver", "witness_residual", "solver.residual"),
    ("susim.canonical", "check_presolution", "structure.scan"),
    ("susim.canonical", "build_paths", "graph.paths"),
    ("susim.canonical", "check_pr", "graph.check_pr"),
    ("susim.canonical", "apply_refinement", "refine"),
    ("susim.refine", "eig_hermitian", "linalg.eig"),
    ("susim.refine", "eig_normal", "linalg.eig"),
)

# Cell extractions, counted against the innermost open span: the scan and
# the path check read both sides of every cell they visit.
COUNT_PATCHES = (
    ("susim.structure", "submatrix", "cells"),
    ("susim.graph", "submatrix", "cells"),
)

ROOT = "cli"

# Small summaries kept from a layer's return value; results themselves are
# dropped so that a traced run does not hold every refined matrix alive.
OUTCOMES = {
    "solver": lambda r: (r.status, r.iterations),
    "refine": lambda r: r.status,
    "certcheck.replay": lambda r: r.confirmed,
}


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans and counts for the operation that is currently open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.outcomes: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self._op, name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op: int, fn, *args):
        """Call ``fn(*args)`` as operation ``op`` under a root span."""
        self._op = op
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = None

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name in OUTCOMES:
                self.outcomes[name].append((self._op, OUTCOMES[name](result)))
            return result

        return wrapper

    def _count_wrapper(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            if self._stack:
                self.counts[(self.spans[self._stack[-1]].name, counter)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every patch target that exists; remember the originals."""
        if self._saved:
            return
        patches = [(p, self._span_wrapper) for p in SPAN_PATCHES]
        patches += [(p, self._count_wrapper) for p in COUNT_PATCHES]
        for (module_name, attr, label), wrap in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(label, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def accounting_gap(self) -> float:
        """Largest |sum of self times - root span| over all operations.

        Zero up to rounding when every span nests inside its operation's
        root, which is what makes per-layer self times add up to the command.
        """
        own = self.self_times()
        per_op: dict[int, float] = defaultdict(float)
        roots: dict[int, float] = {}
        for s, t in zip(self.spans, own):
            per_op[s.op] += t
            if s.name == ROOT:
                if s.parent is not None or s.op in roots:
                    return float("inf")
                roots[s.op] = s.end - s.start
            elif s.parent is None or self.spans[s.parent].op != s.op:
                return float("inf")
        return max((abs(per_op[op] - roots[op]) for op in roots), default=0.0)

    def to_json(self) -> dict:
        return {
            "spans": [[s.op, s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": [[span, counter, n] for (span, counter), n in sorted(self.counts.items())],
            "missing_patch_targets": self.missing,
        }
