"""Seeded instance generators for benchmarks and tests.

Every generator takes a ``numpy.random.Generator`` and returns the built
:class:`~susim.model.Instance` together with ground-truth metadata: the
planted witness for solvable instances, or an independently certifying
trace word for non-similar ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency, SpecInvalid
from .linalg import Matrix, adjoint, fro
from .model import Instance
from .oracles import TraceWord, trace_word_oracle, word_to_string

__all__ = [
    "GEN_KINDS",
    "GEN_PARAMETERS",
    "GenConfig",
    "random_unitary",
    "ginibre",
    "planted_similar",
    "planted_equivalent",
    "perturbed_nonsimilar",
    "deep_split",
    "pairwise_trap",
    "pr_cycle",
    "generate",
]

_RESAMPLE_LIMIT = 64


def random_unitary(n: int, rng: np.random.Generator) -> Matrix:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    z = ginibre(n, n, rng)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ginibre(m: int, n: int, rng: np.random.Generator) -> Matrix:
    """Complex Gaussian matrix with unit-variance entries."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def _structured_content(n: int, p: int, rng: np.random.Generator) -> list[Matrix]:
    """Collection with a hidden two-block shape before any conjugation."""
    s = n // 2
    sizes = (s, n - s)
    levels = 2.0 + rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    first = np.zeros((n, n), dtype=complex)
    first[:s, :s] = levels[0] * np.eye(s)
    first[s:, s:] = levels[1] * np.eye(n - s)
    mats = [first]
    for _ in range(p - 1):
        m = np.zeros((n, n), dtype=complex)
        m[:s, :s] = ginibre(s, s, rng)
        m[s:, s:] = ginibre(n - s, n - s, rng)
        if sizes[0] == sizes[1]:
            for corner in ((slice(None, s), slice(s, None)), (slice(s, None), slice(None, s))):
                if rng.uniform() < 0.5:
                    scale = rng.uniform(0.5, 2.0)
                    m[corner] = scale * random_unitary(s, rng)
        mats.append(m)
    return mats


def planted_similar(
    n: int,
    p: int,
    rng: np.random.Generator,
    style: str = "dense",
) -> tuple[Instance, Matrix]:
    """Pair related by a hidden unitary; returns the instance and that unitary."""
    if style == "dense":
        content = [ginibre(n, n, rng) for _ in range(p)]
    elif style == "structured":
        content = _structured_content(n, p, rng)
    else:
        raise SpecInvalid(f"unknown planted_similar style {style!r}")
    hide = random_unitary(n, rng)
    a_mats = [hide @ c @ adjoint(hide) for c in content]
    u = random_unitary(n, rng)
    b_mats = [u @ a @ adjoint(u) for a in a_mats]
    return Instance("sus", a_mats, b_mats), u


def planted_equivalent(
    m: int,
    n: int,
    p: int,
    rng: np.random.Generator,
) -> tuple[Instance, tuple[Matrix, Matrix]]:
    """Rectangular pair related by a hidden (U, V); returns instance and pair."""
    a_mats = [ginibre(m, n, rng) for _ in range(p)]
    u = random_unitary(m, rng)
    v = random_unitary(n, rng)
    b_mats = [u @ a @ adjoint(v) for a in a_mats]
    return Instance("sueq", a_mats, b_mats), (u, v)


def perturbed_nonsimilar(
    n: int,
    p: int,
    rng: np.random.Generator,
    eps: float = 1e-2,
) -> tuple[Instance, TraceWord]:
    """Conjugated pair with one side nudged off the similarity orbit.

    Resamples until a trace word certifies the pair apart, so every
    returned instance carries an independent proof of non-similarity.
    """
    for _ in range(_RESAMPLE_LIMIT):
        a_mats = [ginibre(n, n, rng) for _ in range(p)]
        u = random_unitary(n, rng)
        b_mats = [u @ a @ adjoint(u) for a in a_mats]
        bump = ginibre(n, n, rng)
        b_mats[0] = b_mats[0] + (eps / fro(bump)) * bump
        word = trace_word_oracle(a_mats, b_mats, max_len=4)
        if word is not None:
            return Instance("sus", a_mats, b_mats), word
    raise InternalInconsistency("perturbation repeatedly landed on matching trace words")


def pairwise_trap(n: int, rng: np.random.Generator) -> tuple[Instance, TraceWord]:
    """Two pairs, each similar on its own, jointly certified non-similar.

    Both sides share the first matrix and conjugate it by independent
    unitaries for the second, so every single-letter word agrees and only
    a mixed word of length at least two separates the sides.
    """
    for _ in range(_RESAMPLE_LIMIT):
        base = ginibre(n, n, rng)
        q = random_unitary(n, rng)
        r = random_unitary(n, rng)
        a_mats = [base, q @ base @ adjoint(q)]
        b_mats = [base, r @ base @ adjoint(r)]
        word = trace_word_oracle(a_mats, b_mats, max_len=3)
        if word is not None:
            return Instance("sus", a_mats, b_mats), word
    raise InternalInconsistency("conjugated pairs repeatedly shared all short trace words")


def _balanced(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _binary_capacity(sizes: list[int], slots: int) -> int:
    count = 0
    current = list(sizes)
    for _ in range(slots):
        following = []
        for s in current:
            if s >= 2:
                following.extend([(s + 1) // 2, s // 2])
                count += 1
            else:
                following.append(s)
        current = following
    return count


def _plan_split_vectors(
    n: int,
    p: int,
    depth: int,
    gap: float,
) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
    """Real vectors, two per matrix, scheduling exactly ``depth`` refinements.

    Slot ``2l`` is the real diagonal of matrix ``l`` and slot ``2l + 1``
    its imaginary diagonal.  The scan always hits the leftmost
    non-constant diagonal cell, real part before imaginary, so filling
    the slots in order with one split per class reproduces the planned
    firing sequence one refinement per iteration.
    """
    slots = 2 * p
    vectors = [np.zeros(n) for _ in range(slots)]
    classes = [(0, n)]
    if depth == 0:
        return vectors, classes
    first_arity = None
    for g in range(2, n + 1):
        if 1 + _binary_capacity(_balanced(n, g), slots - 1) >= depth:
            first_arity = g
            break
    if first_arity is None:
        raise SpecInvalid(
            f"cannot schedule {depth} refinements with {p} matrices of size {n}"
        )
    fires = 0
    for s in range(slots):
        if fires >= depth:
            break
        arity = first_arity if s == 0 else 2
        following = []
        for off, size in classes:
            if fires >= depth or size < 2:
                following.append((off, size))
                continue
            parts = _balanced(size, min(arity, size))
            pos = off
            for rank, piece in enumerate(parts):
                vectors[s][pos : pos + piece] = (len(parts) - rank) * gap
                following.append((pos, piece))
                pos += piece
            fires += 1
        classes = following
    if fires < depth:
        raise InternalInconsistency("split planner fell short of its own capacity estimate")
    return vectors, classes


def deep_split(
    n: int,
    p: int,
    depth: int,
    rng: np.random.Generator,
    gap: float = 1.0,
) -> tuple[Instance, Matrix]:
    """Solvable pair forcing exactly ``depth`` refinement iterations.

    The content is simultaneously diagonal with piecewise-constant
    diagonals arranged so each iteration splits exactly one class, making
    the solver trace ``depth + 1`` iterations long.  ``gap`` sets the
    spacing between the eigenvalue levels driving each split.
    """
    vectors, classes = _plan_split_vectors(n, p, depth, gap)
    for v in vectors:
        if np.any(v != 0.0):
            continue
        for off, size in classes:
            v[off : off + size] = rng.standard_normal()
    a_mats = [np.diag(vectors[2 * l] + 1j * vectors[2 * l + 1]) for l in range(p)]
    u = random_unitary(n, rng)
    b_mats = [u @ a @ adjoint(u) for a in a_mats]
    return Instance("sus", a_mats, b_mats), u


def pr_cycle(n: int, rng: np.random.Generator) -> tuple[Instance, Matrix]:
    """Solvable pair whose first refinement comes from a path-product test.

    All cells of the second matrix are scalar or unitary, so the
    pre-solution scan passes at the two-block partition and the
    back-and-forth cycle between the blocks carries a non-scalar normal
    holonomy that only the path-product check can see.
    """
    if n < 4 or n % 2 != 0:
        raise SpecInvalid("pr_cycle needs an even size of at least 4")
    s = n // 2
    first = np.zeros((n, n), dtype=complex)
    first[:s, :s] = (2.0 + rng.uniform(0.0, 1.0)) * np.eye(s)
    first[s:, s:] = rng.uniform(0.0, 1.0) * np.eye(s)
    q = random_unitary(s, rng)
    basis = random_unitary(s, rng)
    phases = np.exp(1j * (2.0 * np.pi * np.arange(s) / s + rng.uniform(0.0, 2.0 * np.pi)))
    holonomy = basis @ np.diag(phases) @ adjoint(basis)
    second = np.zeros((n, n), dtype=complex)
    second[:s, :s] = (rng.standard_normal() + 1j * rng.standard_normal()) * np.eye(s)
    second[s:, s:] = (rng.standard_normal() + 1j * rng.standard_normal()) * np.eye(s)
    second[:s, s:] = q
    second[s:, :s] = adjoint(q) @ holonomy
    a_mats = [first, second]
    u = random_unitary(n, rng)
    b_mats = [u @ a @ adjoint(u) for a in a_mats]
    return Instance("sus", a_mats, b_mats), u


# Per kind, the parameters its generator reads beyond n and seed, each with
# its value when not given.  pairwise and pr_cycle always build
# _FIXED_COUNT matrices per side, so they take count only as that.
GEN_KINDS: dict[str, dict[str, object]] = {
    "planted_similar": {"count": 1, "style": "dense"},
    "planted_equivalent": {"count": 1, "m": None},
    "perturbed": {"count": 1, "eps": 1e-2},
    "deep_split": {"count": 1, "depth": 3, "gap": 1.0},
    "pairwise": {},
    "pr_cycle": {},
}
_FIXED_COUNT = 2
# The parameters of GEN_KINDS, in the order GenConfig checks them.
GEN_PARAMETERS = ("count", "m", "style", "eps", "depth", "gap")


def _flag(parameter: str) -> str:
    """The ``susim gen`` flag that sets ``parameter``."""
    name = "p" if parameter == "count" else parameter
    return f"-{name}" if len(name) == 1 else f"--{name}"


@dataclass(frozen=True)
class GenConfig:
    """Declarative description of one generated instance.

    A parameter left as None is not given: it takes its kind's value from
    :data:`GEN_KINDS`, and stays None where the kind does not read it.
    """

    kind: str
    n: int
    m: int | None = None
    count: int | None = None
    seed: int = 0
    style: str | None = None
    eps: float | None = None
    depth: int | None = None
    gap: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        """Refuse a parameter no generator can honour, or one the kind does
        not read, as :class:`SpecInvalid`."""
        if self.kind not in GEN_KINDS:
            raise SpecInvalid(f"unknown instance kind {self.kind!r}")
        reads = GEN_KINDS[self.kind]
        for parameter in GEN_PARAMETERS:
            value = getattr(self, parameter)
            if value is None:
                object.__setattr__(self, parameter, reads.get(parameter))
            elif parameter == "count" and parameter not in reads:
                if value != _FIXED_COUNT:
                    raise SpecInvalid(
                        f"{self.kind} builds {_FIXED_COUNT} matrices per side, not -p {value}"
                    )
            elif parameter not in reads:
                raise SpecInvalid(f"{self.kind} does not read {_flag(parameter)}")
        least_n = 2 if self.kind == "pairwise" else 1
        if self.n < least_n:
            raise SpecInvalid(f"{self.kind} needs n of at least {least_n}, got {self.n}")
        if self.m is not None and self.m < 1:
            raise SpecInvalid(f"m must be at least 1, got {self.m}")
        if self.count is not None and self.count < 1:
            raise SpecInvalid(f"count (-p) must be at least 1, got {self.count}")
        if self.depth is not None and self.depth < 0:
            raise SpecInvalid(f"depth must be at least 0, got {self.depth}")
        for name in ("eps", "gap"):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value == 0.0):
                raise SpecInvalid(f"{name} must be finite and nonzero, got {value}")

    def label(self) -> str:
        if self.name:
            return self.name
        # pairwise and pr_cycle not given a count are labelled p1.
        return f"{self.kind}-n{self.n}-p{self.count or 1}-seed{self.seed}"


def generate(config: GenConfig) -> tuple[Instance, dict]:
    """Build the instance described by ``config`` plus ground-truth metadata.

    Raises :class:`~susim.errors.SpecInvalid` when a generated matrix has a
    non-finite entry, as a ``gap`` near the top of the double range makes.
    """
    rng = np.random.default_rng(config.seed)
    meta: dict = {"kind": config.kind, "seed": config.seed}
    # An overflow shows as a non-finite entry, which is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        if config.kind == "planted_similar":
            inst, u = planted_similar(config.n, config.count, rng, style=config.style)
            meta["witness_u"] = u
        elif config.kind == "planted_equivalent":
            rows = config.m if config.m is not None else config.n
            inst, (u, v) = planted_equivalent(rows, config.n, config.count, rng)
            meta["witness_u"] = u
            meta["witness_v"] = v
        elif config.kind == "perturbed":
            inst, word = perturbed_nonsimilar(config.n, config.count, rng, eps=config.eps)
            meta["certifying_word"] = word
            meta["word_text"] = word_to_string(word.letters, inst.count)
        elif config.kind == "deep_split":
            inst, u = deep_split(config.n, config.count, config.depth, rng, gap=config.gap)
            meta["witness_u"] = u
            meta["planned_iterations"] = config.depth + 1
        elif config.kind == "pairwise":
            inst, word = pairwise_trap(config.n, rng)
            meta["certifying_word"] = word
            meta["word_text"] = word_to_string(word.letters, inst.count)
        else:  # pr_cycle, the last of GEN_KINDS
            inst, u = pr_cycle(config.n, rng)
            meta["witness_u"] = u
    if not all(np.isfinite(m).all() for m in (*inst.a_mats, *inst.b_mats)):
        raise SpecInvalid(f"{config.label()}: a generated matrix has non-finite entries")
    named = Instance(inst.mode, inst.a_mats, inst.b_mats, name=config.label())
    return named, meta
