"""Instance kinds and workloads of the susim benchmark.

Every instance comes from the seeded generators in ``susim.instances``; the
benchmark derives one random stream per (workload seed, kind, pool index)
so the same seed always yields the same files, and the program under test
only ever sees those files.

A workload is a rotation of kinds.  One *round* processes one instance of
every kind in the rotation, so mixed workloads always hold the kinds in the
same proportion and their latency medians do not jump between modes when
the number of completed rounds changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from susim import instances as gen
from susim.model import Instance

# Expected outcome classes checked by the correctness gate.
PLANTED = "planted"  # must end solved, and the witness must verify
NONSIMILAR = "nonsimilar"  # must end not_similar, and the certificate must confirm


@dataclass(frozen=True)
class Kind:
    """One instance family.

    ``make(rng, k, tiny)`` builds pool entry ``k`` at benchmark size, or at a
    tiny size for the smoke test; ``pool`` entries are generated per run and
    reused round after round.
    """

    name: str
    expect: str
    make: Callable[[np.random.Generator, int, bool], Instance]
    pool: int
    canon: bool = False


@dataclass(frozen=True)
class Workload:
    """A rotation of kinds; every instance is solved, verified unless the
    solve ended ``failed`` or escaped, and canonicalised when its kind says so."""

    name: str
    kinds: tuple[Kind, ...]


def _dense_similar(rng, k, tiny):
    return gen.planted_similar(6 if tiny else 40, 3, rng, style="dense")[0]


def _deep_split(rng, k, tiny):
    if tiny:
        return gen.deep_split(16, 2, 4, rng)[0]
    return gen.deep_split(128, 2, 32, rng)[0]


def _planted_equivalent(rng, k, tiny):
    m, n = (6, 4) if tiny else (40, 20)
    return gen.planted_equivalent(m, n, 2, rng)[0]


def _perturbed(rng, k, tiny):
    return gen.perturbed_nonsimilar(6 if tiny else 64, 3, rng)[0]


def _pairwise(rng, k, tiny):
    return gen.pairwise_trap(4 if tiny else 12, rng)[0]


DENSE = Kind("planted_similar", PLANTED, _dense_similar, pool=6, canon=True)
DEEP = Kind("deep_split", PLANTED, _deep_split, pool=3, canon=True)
EQUIV = Kind("planted_equivalent", PLANTED, _planted_equivalent, pool=3, canon=True)
PERTURBED = Kind("perturbed", NONSIMILAR, _perturbed, pool=8)
PAIRWISE = Kind("pairwise", NONSIMILAR, _pairwise, pool=32, canon=True)

# Why each workload exists is recorded in BENCHMARK.json.  In short:
# dense_similar is two iterations of full form scans and path checks over
# p*n^2 1x1 cells; cascade is one refinement per iteration in both modes, the
# only place conjugation and eigensolves show; reject decides early, so file
# parsing, emitting and certificate replay dominate.  Canon on reject runs on
# the pairwise kind only: canonicalising the dense n=64 perturbed pair would
# cost ten times its solve and turn reject into a scan workload.  Every
# command of every workload is expected to succeed, so no kind sits on a
# tolerance boundary where the solver may end ``failed`` or escape.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_similar", (DENSE,)),
        Workload("cascade", (DEEP, EQUIV)),
        Workload("reject", (PERTURBED, PAIRWISE)),
    )
}

_KIND_IDS = {k.name: i for i, k in enumerate((DENSE, DEEP, EQUIV, PERTURBED, PAIRWISE))}


def make_instance(kind: Kind, seed: int, k: int, tiny: bool) -> Instance:
    """Pool entry ``k`` of ``kind`` for workload seed ``seed``."""
    rng = np.random.default_rng([seed, _KIND_IDS[kind.name], k])
    inst = kind.make(rng, k, tiny)
    return Instance(inst.mode, inst.a_mats, inst.b_mats, name=f"{kind.name}-{seed}-{k}")
