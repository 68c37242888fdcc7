#!/usr/bin/env python3
"""Print one sha256 per instance over its result and feature documents.

For every instance of a fixed corpus the script solves it and fingerprints
both sides, and prints ``corpus label sha256``.  The hash covers the result
document and the two feature documents, each as canonical JSON; where
``extract_features`` raises, the exception's type and text take the place of
that document.  To show that a change keeps every document the same, run
the script in a checkout of each commit and diff the two outputs.

Corpora (492 instances in all):

* ``golden``: ``tests/test_golden.py`` ``CONFIGS`` at seeds 0-19;
* ``noisy``: the same instances with noise and a global scale, as
  ``tests/test_fuzz.py`` ``noisy_scaled`` makes them;
* ``pr_cycle``: the 200 noisy ``pr_cycle`` instances of ``tests/test_fuzz.py``;
* ``pools``: every pool entry of the benchmark kinds at workload seed 101,
  at full size (read from ``perfbench/workloads.py``; this takes about a
  minute).

Usage, from the root of a source checkout::

    PYTHONPATH=src python3 scripts/doc_manifest.py [--corpus NAME ...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT)]

from perfbench.workloads import WORKLOADS, make_instance  # noqa: E402
from test_fuzz import noisy_pr_cycle, noisy_scaled  # noqa: E402
from test_golden import CONFIGS  # noqa: E402

from susim.canonical import extract_features  # noqa: E402
from susim.errors import SusimError  # noqa: E402
from susim.instances import GenConfig, generate  # noqa: E402
from susim.serialize import features_to_json, result_to_json  # noqa: E402
from susim.solver import solve  # noqa: E402

SEEDS = range(20)
POOL_SEED = 101


def golden():
    for cfg in CONFIGS:
        for seed in SEEDS:
            config = GenConfig(seed=seed, **cfg)
            yield config.label(), generate(config)[0]


def noisy():
    for cfg in CONFIGS:
        for seed in SEEDS:
            config = GenConfig(seed=seed, **cfg)
            yield config.label(), noisy_scaled(config)


def pr_cycle():
    for seed in range(200):
        yield f"pr_cycle-noisy-s{seed}", noisy_pr_cycle(seed)


def pools():
    for workload in WORKLOADS.values():
        for kind in workload.kinds:
            for k in range(kind.pool):
                inst = make_instance(kind, POOL_SEED, k, False)
                yield inst.name, inst


CORPORA = {"golden": golden, "noisy": noisy, "pr_cycle": pr_cycle, "pools": pools}


def features_text(mats, mode: str) -> str:
    try:
        return json.dumps(features_to_json(extract_features(mats, mode=mode)), sort_keys=True)
    except SusimError as exc:
        return f"{type(exc).__name__}: {exc}"


def digest(inst) -> str:
    parts = [
        json.dumps(result_to_json(solve(inst)), sort_keys=True),
        features_text(inst.a_mats, inst.mode),
        features_text(inst.b_mats, inst.mode),
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--corpus",
        choices=tuple(CORPORA),
        nargs="+",
        action="extend",
        help="corpora to hash (default: all)",
    )
    args = parser.parse_args(argv)
    for name in args.corpus or CORPORA:
        for label, inst in CORPORA[name]():
            print(name, label, digest(inst), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
