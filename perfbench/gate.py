"""Correctness gate of the benchmark.

Every command the benchmark runs becomes an :class:`Op`.  After the timed
window the gate reads the documents the commands wrote and decides, per
op, whether it is fine, erroneous (counted in ``failed``) or wrong (also
erroneous, and it makes the whole run incorrect):

* a planted instance must end ``solved`` and its witness must verify;
* a perturbed or pairwise instance must end ``not_similar`` and its
  certificate must be confirmed by ``susim verify``;
* a command that exits 64 (unusable input) or raises is erroneous;
* canonical features of the two sides of a planted instance must diff equal.

Witnesses are also rechecked here with the benchmark's own arithmetic, so a
result that ``susim verify`` accepts but that does not map A onto B counts
as wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from workloads import NONSIMILAR, PLANTED

EXIT_SOLVED, EXIT_NOT_SIMILAR, EXIT_FAILED, EXIT_USAGE = 0, 1, 2, 64
WITNESS_TOL = 1e-6  # the documented default acceptance tolerance of a witness

OK, ERROR, WRONG = "ok", "error", "wrong"


@dataclass
class Op:
    """One timed CLI command and what the gate concluded about it."""

    id: int
    cmd: str
    kind: str
    expect: str
    instance: str
    argv: list[str]
    out: str | None = None
    code: int | None = None
    seconds: float = 0.0
    scale: float = 1.0  # turns wall seconds into reference-speed seconds, see bench.calibrate
    traced: bool = False
    raised: str | None = None
    stderr: str = ""
    side: str | None = None
    verdict: str = OK
    why: str = ""


def _mats(raw) -> list[np.ndarray]:
    arr = np.asarray(raw, dtype=float)
    return list(arr[..., 0] + 1j * arr[..., 1])


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def witness_residual(instance_doc: dict, result_doc: dict) -> float:
    """Worst normalized deviation of a result's witness, recomputed here."""
    a, b = _mats(instance_doc["a"]), _mats(instance_doc["b"])
    u = _mats([result_doc["u"]])[0]
    v = u if instance_doc["mode"] == "sus" else _mats([result_doc["v"]])[0]
    dev = max(
        np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) / np.sqrt(u.shape[0]),
        np.linalg.norm(v @ v.conj().T - np.eye(v.shape[0])) / np.sqrt(v.shape[0]),
    )
    for x, y in zip(a, b):
        dev = max(dev, np.linalg.norm(u @ x @ v.conj().T - y) / (1.0 + np.linalg.norm(x)))
    return float(dev)


def _mark(op: Op, verdict: str, why: str) -> None:
    if op.verdict == WRONG:
        return
    if verdict == WRONG or op.verdict == OK:
        op.verdict, op.why = verdict, why


def audit(ops: list[Op], diff) -> dict:
    """Judge every op in place; ``diff(f1, f2)`` runs ``susim diff`` and returns its exit code.

    Returns a summary: counts of outcomes and the escapes seen.
    """
    docs: dict[str, dict] = {}

    def doc(path: str) -> dict:
        if path not in docs:
            docs[path] = _load(path)
        return docs[path]

    summary = {"diffs_equal": 0, "diffs_checked": 0, "pairwise_features_differ": 0,
               "solve_status": {}, "escapes": []}
    solves = {}
    for op in ops:
        if op.code is None or op.code == EXIT_USAGE:
            msg = op.raised or (op.stderr.strip().splitlines() or ["no message"])[-1]
            _mark(op, ERROR, f"escape: {msg}")
            summary["escapes"].append(f"{op.cmd} {op.kind}: {msg}")
            continue
        if op.cmd == "solve":
            solves[op.out] = op
            status = {EXIT_SOLVED: "solved", EXIT_NOT_SIMILAR: "not_similar",
                      EXIT_FAILED: "failed"}.get(op.code, f"exit {op.code}")
            summary["solve_status"][status] = summary["solve_status"].get(status, 0) + 1
            if op.code not in (EXIT_SOLVED, EXIT_NOT_SIMILAR, EXIT_FAILED):
                _mark(op, ERROR, f"solve exited {op.code}")
            elif op.expect == PLANTED and op.code != EXIT_SOLVED:
                _mark(op, ERROR, f"planted instance ended {status}")
            elif op.expect == NONSIMILAR and op.code != EXIT_NOT_SIMILAR:
                _mark(op, ERROR, f"non-similar instance ended {status}")
            if op.code == EXIT_SOLVED:
                try:
                    res = witness_residual(doc(op.instance), doc(op.out))
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    _mark(op, WRONG, f"unreadable witness: {exc!r}")
                    continue
                if res > WITNESS_TOL:
                    _mark(op, WRONG, f"witness residual {res:.3e} recomputed")
                elif op.expect == NONSIMILAR:
                    _mark(op, WRONG, "a certified non-similar pair was solved")
        elif op.cmd == "verify":
            solve = solves.get(op.argv[-1])
            if op.code != EXIT_SOLVED:
                _mark(op, ERROR, f"verify exited {op.code}")
            elif solve is not None and solve.code == EXIT_NOT_SIMILAR and solve.expect == PLANTED:
                _mark(solve, WRONG, "a certificate against a planted pair was confirmed")
        elif op.cmd == "canon" and op.code != EXIT_SOLVED:
            _mark(op, ERROR, f"canon exited {op.code}")

    _audit_canon_pairs(ops, diff, summary)
    summary["ops"] = len(ops)
    summary["errors"] = sum(op.verdict != OK for op in ops)
    summary["wrong"] = sum(op.verdict == WRONG for op in ops)
    return summary


def _audit_canon_pairs(ops: list[Op], diff, summary: dict) -> None:
    """Diff side-a against side-b features of each instance once."""
    by_side: dict[tuple[str, str], Op] = {}
    for op in ops:
        if op.cmd == "canon" and op.code == EXIT_SOLVED:
            by_side.setdefault((op.instance, op.side), op)
    for (instance, side), first in by_side.items():
        other = by_side.get((instance, "b"))
        if side != "a" or other is None:
            continue
        equal = diff(first.out, other.out) == EXIT_SOLVED
        summary["diffs_checked"] += 1
        if first.expect == PLANTED:
            summary["diffs_equal"] += equal
            if not equal:
                _mark(other, WRONG, "features of the two sides of a planted pair differ")
        elif not equal:
            summary["pairwise_features_differ"] += 1

