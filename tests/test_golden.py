"""Golden corpus: result and feature documents of small generated instances.

Every generator kind is run at a few seeds and sizes of at most 8.  The
solve result document and the feature documents of both sides must match
the committed fixture: discrete fields (status, indices, functionals, class
sizes, multiplicities) exactly and floating-point values within 1e-12
relative.

Regenerate the fixture after an intended change of output with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from susim.canonical import extract_features
from susim.instances import GenConfig, generate
from susim.serialize import features_to_json, result_to_json
from susim.solver import solve

FIXTURE = Path(__file__).with_name("golden_corpus.json")
SEEDS = (0, 1, 2)
CONFIGS = (
    dict(kind="planted_similar", n=6, count=2),
    dict(kind="planted_equivalent", m=6, n=4, count=2),
    dict(kind="perturbed", n=5, count=2),
    dict(kind="deep_split", n=8, count=2, depth=3),
    dict(kind="pairwise", n=4),
    dict(kind="pr_cycle", n=6),
)
REL = 1e-12


def corpus():
    for cfg in CONFIGS:
        for seed in SEEDS:
            yield GenConfig(seed=seed, **cfg)


def documents(config: GenConfig) -> dict:
    inst, _ = generate(config)
    return {
        "result": result_to_json(solve(inst)),
        "features_a": features_to_json(extract_features(inst.a_mats, mode=inst.mode)),
        "features_b": features_to_json(extract_features(inst.b_mats, mode=inst.mode)),
    }


def assert_matches(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=REL, abs_tol=REL), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("config", list(corpus()), ids=GenConfig.label)
def test_documents_match_fixture(config, golden):
    assert_matches(documents(config), golden[config.label()])


def test_fixture_covers_corpus(golden):
    assert sorted(golden) == sorted(c.label() for c in corpus())


if __name__ == "__main__":
    data = {c.label(): documents(c) for c in corpus()}
    FIXTURE.write_text(json.dumps(data, sort_keys=True) + "\n")
    print(f"wrote {len(data)} instances to {FIXTURE}")
