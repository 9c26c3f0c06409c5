"""Critical-block model of an isoenergy 3-manifold and its torsion pipeline.

The manifold is described combinatorially: a list of critical blocks of a
Bott function (circles, tori, Klein bottles) in the canonical order

    minimum circles, minimum tori / Klein bottles, saddle circles,
    maximum tori / Klein bottles, maximum circles,

a unitary representation of the fundamental group, and the gradient
connection data between consecutive-index Morse points, each connection a
list of orbits (intersection sign, holonomy word). Connections are input
data: reproducing the smooth gradient flow they summarize is out of scope.

From this a three-step filtration of the Morse cochain complex is built.
Level 0 collects the minimum blocks, level 1 the saddle circles, level 2
the maximum blocks. The first page of the associated spectral sequence
decomposes block by block; each block contributes kernels and cokernels
of a small matrix built from its holonomies:

    circle of index u, separatrix sign delta:
        D = I - delta * rho(gamma), cohomology ker D in degrees u, u+1,
        torsion factor tau(D)^((-1)^u);
    torus / Klein bottle (minimal: middle degree n = 1, maximal: n = 2):
        D  = [I - rho(alpha) ; I -/+ rho(beta)]   (+ exactly for Klein)
        D* = [I -/+ rho(beta) , rho(alpha) - I]
        cohomology ker D, ker D* /\\ (im D)^perp, coker D* in degrees
        n-1, n, n+1, torsion factor 1.

The Morse complex is then reduced once onto these E_1 bases (Skoldberg's
algebraic Morse theory; torsion is multiplicative along the reduction).
The reduced operator carries the connection orbit sums
Sum_q I_q rho(alpha_q) between the licensed point pairs, conjugated onto
the block cohomology bases, and on the level 0 -> 2 component also the
path through each saddle block, -D_out D_s^+ D_in. Its level-raising
slices are d1 and d2. The spectral module's page step (kernel of the
outgoing map, orthogonal to the image of the incoming one) gives E_2 and
E_3, and from the same rank decisions the page torsions tau_d1 and
tau_d2: a signed sum of the logs of each d_r block's kept singular
values. The total torsion modulus is the product of the block factors
with the page torsions, accumulated as a sum of logs, and for all-circle
acyclic models it collapses to the determinant product
prod |det D_i|^((-1)^u_i), available as the fast path.

Validation derives the model's layout once per call, as arrays: each
block's tier, level and connected component (blocks joined by
connections), each Morse point's index and position, each supplied point
pair with its kind and orbit sum (one walk over the distinct words). Every
later stage reads it. total_torsion never forms the dense Morse complex
(assemble_complex does, for filtered_pages). The differential is held as
m x m blocks, one per point pair: d*d = 0 is checked on the block
products, and the reduced operator is summed into the E_1 slots. The
Morse complex and every page are direct sums over the components. E_1
columns run component by component within each level, so the page
differentials are block diagonal, and each page decision is made part by
part at the whole matrix's threshold; the operator norm that anchors them
is the largest of the components' norms.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .complexes import (
    ACYCLIC_NOTE,
    RELATIVE_NOTE,
    STRUCT_TOL,
    BasedComplex,
    TorsionScalar,
    _within,
    modulus_from_log,
)
from .errors import (
    AssumptionViolated,
    BasisMismatch,
    FastPathUnavailable,
    IllegalConnection,
    InvalidInput,
    ModelOrderError,
    NotAComplex,
    TorsionError,
)
from .linalg import DEFAULT_TOL, RankResult, _cut, _largest_norm, _rank_nullspaces, _results
from .representation import Representation, parse_word, split_token
from .spectral import FilteredComplex, _page_note, _page_step

__all__ = [
    "BlockCohomology", "BottModel", "CriticalBlock", "GradientConnection", "MorsePoint", "Orbit",
    "TorsionReport", "assemble_complex", "assemble_d1", "assemble_d2", "block_cohomology", "ensure_valid",
    "expand_morse", "page_two", "total_torsion", "validate_model"
]

CIRCLE = "circle"
TORUS = "torus"
KLEIN = "klein"

# list-order tiers realizing the canonical block ordering
_TIER_MIN_CIRCLE = 0
_TIER_MIN_EXTREMAL = 1
_TIER_SADDLE = 2
_TIER_MAX_EXTREMAL = 3
_TIER_MAX_CIRCLE = 4

_TIER_NAMES = {
    _TIER_MIN_CIRCLE: "minimum circle",
    _TIER_MIN_EXTREMAL: "minimum torus/Klein bottle",
    _TIER_SADDLE: "saddle circle",
    _TIER_MAX_EXTREMAL: "maximum torus/Klein bottle",
    _TIER_MAX_CIRCLE: "maximum circle",
}

#: tier of a circle of normal Morse index 0, 1, 2
_CIRCLE_TIERS = (_TIER_MIN_CIRCLE, _TIER_SADDLE, _TIER_MAX_CIRCLE)

#: filtration level of each tier (minima, saddles, maxima)
_TIER_LEVEL = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}

#: Morse points of each tier, label -> Morse index, in label order: a
#: circle of index u gives w, z of index u, u + 1; a torus / Klein bottle
#: gives p, q, r, s of index 0, 1, 1, 2, plus 1 when maximal
_POINTS = {
    _TIER_MIN_CIRCLE: {"w": 0, "z": 1},
    _TIER_MIN_EXTREMAL: {"p": 0, "q": 1, "r": 1, "s": 2},
    _TIER_SADDLE: {"w": 1, "z": 2},
    _TIER_MAX_EXTREMAL: {"p": 1, "q": 2, "r": 2, "s": 3},
    _TIER_MAX_CIRCLE: {"w": 2, "z": 3},
}

#: examples quoted per summary line: missing-connection pairs, and the
#: blocks that rule out the fast path
_MISSING_EXAMPLES = 3


@dataclass(frozen=True)
class CriticalBlock:
    """One critical submanifold of the Bott function.

    Circles carry a normal Morse index (0 minimum, 1 saddle, 2 maximum),
    the separatrix orientability sign delta, and the holonomy word of the
    circle itself. Tori and Klein bottles are extremal ("min" or "max")
    and carry holonomy words of their two fundamental group generators.
    """

    id: str
    kind: str
    critical_value: float = 0.0
    index: Optional[int] = None
    delta: Optional[int] = None
    holonomy: tuple = ()
    extremal: Optional[str] = None
    alpha: tuple = ()
    beta: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "holonomy", parse_word(self.holonomy))
        object.__setattr__(self, "alpha", parse_word(self.alpha))
        object.__setattr__(self, "beta", parse_word(self.beta))
        if self.kind not in (CIRCLE, TORUS, KLEIN):
            raise InvalidInput(f"block {self.id}: unknown kind {self.kind!r}")
        if self.kind == CIRCLE:
            if self.index not in (0, 1, 2):
                raise InvalidInput(f"block {self.id}: circle index must be 0, 1 or 2")
            if self.delta not in (1, -1):
                raise InvalidInput(f"block {self.id}: delta must be +1 or -1")
        else:
            if self.extremal not in ("min", "max"):
                raise InvalidInput(f"block {self.id}: extremal must be 'min' or 'max'")
            if self.delta is not None:
                raise InvalidInput(f"block {self.id}: tori and Klein bottles carry no delta")

    @property
    def tier(self) -> int:
        if self.kind == CIRCLE:
            return _CIRCLE_TIERS[self.index]
        return _TIER_MIN_EXTREMAL if self.extremal == "min" else _TIER_MAX_EXTREMAL

    @property
    def level(self) -> int:
        """Filtration level: 0 minima, 1 saddles, 2 maxima."""
        return _TIER_LEVEL[self.tier]

    @property
    def middle_degree(self) -> int:
        """The block's own degree parameter: u for circles, 1 or 2 for extremals."""
        if self.kind == CIRCLE:
            return self.index
        return 1 if self.extremal == "min" else 2

    def labels(self) -> tuple:
        return tuple(_POINTS[self.tier])

    def point_index(self, label: str) -> int:
        index = _POINTS[self.tier].get(label)
        if index is None:
            raise InvalidInput(f"block {self.id} ({self.kind}) has no point labelled {label!r}")
        return index


@dataclass(frozen=True)
class MorsePoint:
    block_id: str
    label: str
    index: int


@dataclass(frozen=True)
class Orbit:
    """One gradient orbit: intersection sign and the holonomy word along it."""

    sign: int
    word: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "word", parse_word(self.word))
        if self.sign not in (1, -1):
            raise InvalidInput(f"orbit sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class GradientConnection:
    """Orbits from a Morse point of index k+1 down to one of index k.

    from_point / to_point are (block_id, label) pairs; the induced cochain
    component runs to_point -> from_point.
    """

    from_point: tuple
    to_point: tuple
    orbits: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "from_point", (str(self.from_point[0]), str(self.from_point[1])))
        object.__setattr__(self, "to_point", (str(self.to_point[0]), str(self.to_point[1])))
        object.__setattr__(self, "orbits", tuple(self.orbits))


@dataclass(frozen=True)
class BottModel:
    representation: Representation
    blocks: tuple
    connections: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "connections", tuple(self.connections))


@dataclass(frozen=True)
class Diagnostic:
    code: str
    subject: str
    message: str


_DIAG_ERRORS = {
    "ModelOrderError": ModelOrderError,
    "AssumptionViolated": AssumptionViolated,
    "IllegalConnection": IllegalConnection,
    "InvalidInput": InvalidInput,
}

# licensed cochain components (source point -> target point), keyed by
# ((source tier, label), (target tier, label)): a gradient component joins
# points of consecutive Morse index and raises the filtration level, and
# it is d1 or d2 as it crosses one level or two
_LICENSED = {
    ((lo, a), (hi, b)): f"d{_TIER_LEVEL[hi] - _TIER_LEVEL[lo]}"
    for lo in _POINTS
    for a, k in _POINTS[lo].items()
    for hi in _POINTS
    for b, k_hi in _POINTS[hi].items()
    if k_hi == k + 1 and _TIER_LEVEL[hi] > _TIER_LEVEL[lo]
}

#: position of each label among its block's Morse points, per tier
_SLOT = {tier: {label: j for j, label in enumerate(points)} for tier, points in _POINTS.items()}


class _Diagnostics(list):
    """validate_model's diagnostics; an empty one carries the layout."""

    layout = None


class _Layout(SimpleNamespace):
    """A valid model's structure as arrays, built by validate_model and read
    by every later stage of one call.

    Per block: tier (a list), level, component (numbered in the order of
    their first blocks) and first, its first Morse point (one more entry
    closes the list). Points run block by block in model order, labels in
    label order; per point: index (Morse index), block, row (position among
    the points of its index), piece (the same within its component) and
    within (1 for the r point of a torus / Klein bottle, else 0: its rows
    of the block's basis follow q's). count[k, c]: index-k points of
    component c. Per supplied pair, in the order of first mention: source
    and target point (the cochain component runs source -> target), gap (1:
    d1, 2: d2) and sums, its connections' orbit sums added in order.
    values: rho of the block words (_block_words), until
    _block_cohomologies takes them.
    """


def _rank_within(keys: np.ndarray) -> np.ndarray:
    """The position of each entry among the entries of equal key, in order."""
    order = np.argsort(keys, kind="stable")
    out = np.empty_like(order)
    out[order] = np.arange(len(keys)) - np.searchsorted(keys[order], keys[order])
    return out


def _add_in_order(out: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
    """out[keys[e]] += values[e] for each entry e in order, as a loop would."""
    turn = _rank_within(keys)
    for n in range(turn.max(initial=-1) + 1):
        pick = turn == n if turn.any() else slice(None)
        out[keys[pick]] += values[pick]


def validate_model(model: BottModel) -> list[Diagnostic]:
    """Structural diagnostics for a model; empty list means valid.

    Checks the tier ordering of the block list, id uniqueness, non-decreasing
    critical values (ties within a tier are fine, list order breaks them),
    word well-formedness, and every connection: its points must exist, and
    _LICENSED must license the pair, as a d1 or a d2 component. A pair of
    non-consecutive index or between two saddle circles gets its own more
    specific message instead. Generator unitarity is not checked here:
    Representation's constructor rejects a generator with defect above
    UNITARY_TOL and freezes each one.

    The checks read each block's tier once. For a valid model the (empty)
    list carries what they derived on as the model's _Layout, with the
    connected components and one evaluate_words walk over the distinct
    words; ensure_valid returns it. total_torsion, assemble_d1,
    assemble_complex and expand_morse read it instead of the blocks' tier,
    level, labels and point_index. It serves one call; no model keeps it.
    """
    diags, rep, tiers = _Diagnostics(), model.representation, [b.tier for b in model.blocks]
    words = dict.fromkeys(_block_words(model.blocks) + [o.word for c in model.connections for o in c.orbits])
    # word errors are looked for only when some token names no generator
    unknown = any(split_token(token)[0] not in rep.generators for token in set().union(*words))
    seen, last_tier, last_value = set(), -1, -math.inf
    for b, tier in zip(model.blocks, tiers):
        if b.id in seen:
            diags.append(Diagnostic("InvalidInput", b.id, f"duplicate block id {b.id!r}"))
        seen.add(b.id)
        if tier < last_tier:
            message = f"block {b.id} ({_TIER_NAMES[tier]}) listed after a {_TIER_NAMES[last_tier]}"
            diags.append(Diagnostic("ModelOrderError", b.id, message))
        if b.critical_value < last_value - 1e-12:
            message = f"block {b.id}: critical value {b.critical_value} decreases in list order"
            diags.append(Diagnostic("ModelOrderError", b.id, message))
        last_tier, last_value = max(last_tier, tier), max(last_value, b.critical_value)
        for word in ([b.holonomy] if b.kind == CIRCLE else [b.alpha, b.beta]) if unknown else ():
            diags += [Diagnostic("InvalidInput", b.id, f"block {b.id}: {e}") for e in rep.word_errors(word)]

    # a repeated id names its last block
    number = {b.id: j for j, b in enumerate(model.blocks)}
    first = list(itertools.accumulate((len(_POINTS[tier]) for tier in tiers), initial=0))
    ends = []
    for c, conn in enumerate(model.connections):
        subject, found = f"connection[{c}]", []
        for end, (bid, label) in (("from", conn.from_point), ("to", conn.to_point)):
            j = number.get(bid)
            if j is None:
                diags.append(Diagnostic("InvalidInput", subject, f"{end} references unknown block {bid!r}"))
            elif label not in _POINTS[tiers[j]]:
                message = f"{model.blocks[j].kind} blocks have labels {'/'.join(_POINTS[tiers[j]])}"
                diags.append(Diagnostic("InvalidInput", subject, f"{end} point {bid}.{label}: {message}"))
            else:
                found.append((j, tiers[j], label))
        if len(found) < 2:
            continue
        (hi, hi_tier, hi_label), (lo, lo_tier, lo_label) = found
        hi_index, lo_index = _POINTS[hi_tier][hi_label], _POINTS[lo_tier][lo_label]
        kind = _LICENSED.get(((lo_tier, lo_label), (hi_tier, hi_label)))
        hi_id, lo_id = conn.from_point[0], conn.to_point[0]
        if hi_index != lo_index + 1:
            message = f"{hi_id}.{hi_label} (index {hi_index}) -> {lo_id}.{lo_label} (index {lo_index})"
            message += ": gradient orbits join points of consecutive index"
            diags.append(Diagnostic("IllegalConnection", subject, message))
        if hi_tier == lo_tier == _TIER_SADDLE:
            message = f"connection between saddle circles {hi_id} and {lo_id}"
            diags.append(Diagnostic("AssumptionViolated", subject, message))
        elif kind is not None:
            ends.append((first[lo] + _SLOT[lo_tier][lo_label], first[hi] + _SLOT[hi_tier][hi_label]))
        elif hi_index == lo_index + 1:
            message = (
                f"connection {hi_id}.{hi_label} -> {lo_id}.{lo_label}: no differential component is "
                f"induced between a {_TIER_NAMES[lo_tier]} point '{lo_label}' and a "
                f"{_TIER_NAMES[hi_tier]} point '{hi_label}'"
            )
            diags.append(Diagnostic("IllegalConnection", subject, message))
        for orbit in conn.orbits if unknown else ():
            diags += [Diagnostic("InvalidInput", subject, e) for e in rep.word_errors(orbit.word)]
    if not diags:
        diags.layout = _layout(model, tiers, first, ends, dict(zip(words, rep.evaluate_words(words))))
    return diags


def _layout(model: BottModel, tiers: list, first: list, ends: list, values: dict) -> _Layout:
    """The _Layout of a valid model from validate_model's findings: each
    block's first point, each connection's (source, target) points and rho
    of every distinct word. A licensed pair's kind is its level gap."""
    first = np.array(first)
    block = np.repeat(np.arange(len(tiers)), np.diff(first))
    index = np.array([k for tier in tiers for k in _POINTS[tier].values()], dtype=int)
    pairs = {pair: j for j, pair in enumerate(dict.fromkeys(ends))}
    source, target = np.array(list(pairs), dtype=int).reshape(-1, 2).T
    # union-find over the pairs, the smaller root kept: a component's root
    # is its first block, so the components count up in model order
    parent = list(range(len(tiers)))

    def root(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    for a, b in zip(block[source].tolist(), block[target].tolist()):
        a, b = root(a), root(b)
        parent[max(a, b)] = min(a, b)
    roots = np.array(parent, dtype=int)
    while (roots[roots] != roots).any():
        roots = roots[roots]
    component = np.unique(roots, return_inverse=True)[1].ravel()
    count = np.zeros((4, component.max(initial=-1) + 1), dtype=int)
    np.add.at(count, (index, component[block]), 1)
    # each connection's orbit sum from 0, then each pair's, in order
    m = model.representation.dim
    orbits = [(c, o.sign, o.word) for c, conn in enumerate(model.connections) for o in conn.orbits]
    terms = np.reshape([values[word] for _, _, word in orbits], (-1, m, m))
    terms *= np.reshape([sign for _, sign, _ in orbits], (-1, 1, 1))
    per_connection = np.zeros((len(model.connections), m, m), dtype=complex)
    _add_in_order(per_connection, np.array([c for c, _, _ in orbits], dtype=int), terms)
    sums = np.zeros((len(pairs), m, m), dtype=complex)
    _add_in_order(sums, np.array([pairs[pair] for pair in ends], dtype=int), per_connection)
    level = np.array([_TIER_LEVEL[tier] for tier in tiers], dtype=int)
    return _Layout(
        tier=tiers, level=level, component=component, first=first, index=index, block=block,
        row=_rank_within(index), piece=_rank_within(index * count.shape[1] + component[block]),
        within=_rank_within(block * 4 + index), count=count, source=source, target=target,
        gap=level[block[target]] - level[block[source]], sums=sums,
        values=[values[word] for word in _block_words(model.blocks)],
    )


def ensure_valid(model: BottModel) -> _Layout:
    """Raise the error class of the first diagnostic, message listing them
    all; for a valid model, return the layout validation built."""
    diags = validate_model(model)
    if diags:
        messages = "; ".join(f"[{d.subject}] {d.message}" for d in diags)
        raise _DIAG_ERRORS.get(diags[0].code, InvalidInput)(messages)
    return diags.layout


# ---------------------------------------------------------------------------
# per-block cohomology


@dataclass
class BlockCohomology:
    """Cohomology data of one block pair (N_j, N_{j-1}).

    dims maps ambient degree to dimension; bases maps ambient degree to an
    orthonormal basis of the block's cohomology realized in the fibers of
    its Morse points (circle: w then z fiber; extremal blocks: p, (q, r)
    stacked, s fibers). rank_result is the one SVD rank decision of a
    circle's D (None for extremal blocks).
    """

    block_id: str
    kind: str
    level: int
    middle: int
    D: np.ndarray
    D_star: Optional[np.ndarray]
    dims: dict
    bases: dict
    torsion_factor: TorsionScalar
    acyclic: bool
    warnings: list = field(default_factory=list)
    rank_result: Optional[RankResult] = None


def block_cohomology(
    block: CriticalBlock,
    rep: Representation,
    tol_rel: float = DEFAULT_TOL,
) -> BlockCohomology:
    """Cohomology and torsion factor of one critical block, in the degrees
    around its middle degree n = block.middle_degree: the batched
    _block_cohomologies of the one block."""
    return _block_cohomologies([block], rep, tol_rel)[0]


def _block_words(blocks: Sequence[CriticalBlock]) -> list:
    """The block words in the order _block_cohomologies reads their values:
    circle holonomies, then alpha and beta of each torus / Klein bottle."""
    return [b.holonomy for b in blocks if b.kind == CIRCLE] + [
        word for b in blocks if b.kind != CIRCLE for word in (b.alpha, b.beta)
    ]


def _block_cohomologies(
    blocks: Sequence[CriticalBlock],
    rep: Representation,
    tol_rel: float = DEFAULT_TOL,
    layout: Optional[_Layout] = None,
) -> list[BlockCohomology]:
    """block_cohomology of every block, in order, with the first page
    decided as stacks (the word values are the layout's, or one walk's):
    one LAPACK call for every circle's D, one each for the extremal blocks'
    D and D*, each at the threshold it would have alone. The circles'
    kernel checks and log-torsions run per rank over the stack; the middle
    cut of an extremal block, ker D* against im D, is made block by block."""
    if layout is None:
        levels, values = [_TIER_LEVEL[b.tier] for b in blocks], rep.evaluate_words(_block_words(blocks))
    else:
        # the layout hands its block word values over: nothing reads them again
        levels, values, layout.values = layout.level.tolist(), layout.values, None
    circles = [j for j, b in enumerate(blocks) if b.kind == CIRCLE]
    extremals = [j for j, b in enumerate(blocks) if b.kind != CIRCLE]
    eye = rep.identity()
    out: list = [None] * len(blocks)

    if circles:
        deltas = np.array([blocks[j].delta for j in circles])
        ds = eye - deltas[:, None, None] * np.array(values[: len(circles)])
        # unit-scale anchor: D is built from unitaries, so a holonomy that
        # reduces to the identity must give an honest zero matrix
        cut = _cut([ds], tol_rel, 1.0, stacklevel=2)[0]
        s, vh, ranks = cut[1], cut[2], np.array(cut[4])
        kept, bad = np.zeros(len(circles)), []
        for rank in set(cut[4]):
            pick = np.flatnonzero(ranks == rank)
            # RankResult.log_kept of each, summed over exactly its kept values
            kept[pick] = np.log(s[pick, :rank]).sum(axis=1)
            if rank < rep.dim:
                # ker D, the right singular vectors past the rank, must lie in ker D
                d = ds[pick]
                defect = np.abs(d @ np.swapaxes(vh[pick, rank:].conj(), 1, 2)).max(axis=(1, 2))
                bad += pick[defect > STRUCT_TOL * np.maximum(1.0, np.abs(d).max(axis=(1, 2)))].tolist()
        if bad:
            raise BasisMismatch(f"block {blocks[circles[min(bad)]].id}: kernel basis does not lie in ker D")
        for j, d, res, log_kept in zip(circles, ds, _results(*cut), kept.tolist()):
            out[j] = _circle_cohomology(blocks[j], levels[j], d, res, log_kept)

    if extremals:
        a = np.array(values[len(circles) :: 2])
        b = np.array(values[len(circles) + 1 :: 2])
        # the beta sign is + exactly for the Klein bottle
        signs = np.array([1.0 if blocks[j].kind == KLEIN else -1.0 for j in extremals])
        db = eye + signs[:, None, None] * b
        ds = np.concatenate([eye - a, db], axis=1)         # C^m p -> C^m q (+) C^m r
        d_stars = np.concatenate([db, a - eye], axis=2)    # C^m q (+) C^m r -> C^m s
        comms = np.abs(a @ b - b @ a).max(axis=(1, 2)).tolist()
        # one rank decision each: ker D, coker D*, and ker D* cut against im D
        decided = zip(_rank_nullspaces(ds, tol_rel, scale=1.0), _rank_nullspaces(d_stars, tol_rel, scale=1.0))
        for j, d, d_star, comm, (res, res_star) in zip(extremals, ds, d_stars, comms, decided):
            out[j] = _extremal_cohomology(blocks[j], levels[j], d, d_star, comm, res, res_star, tol_rel)
    return out


def _circle_cohomology(block, level: int, d: np.ndarray, res: RankResult, log_kept: float) -> BlockCohomology:
    """A circle's cohomology ker D in degrees n, n + 1 from the rank decision
    of its D, and its torsion factor from log_kept (res.log_kept)."""
    n, k = block.index, d.shape[1] - res.rank
    # on the SVD's own kernel and cokernel bases the two-term complex
    # 0 -> C^m -D-> C^m -> 0 has torsion prod of the kept singular values
    modulus = modulus_from_log((-1) ** n * log_kept, f"block {block.id} torsion factor")
    factor = TorsionScalar(modulus, RELATIVE_NOTE if k else ACYCLIC_NOTE)
    dims = {n: k, n + 1: k} if k else {}
    bases = {n: res.kernel_basis, n + 1: res.cokernel_basis}
    return BlockCohomology(block.id, block.kind, level, n, d, None, dims, bases, factor, not k, [], res)


def _extremal_cohomology(block, level, d, d_star, comm, res, res_star, tol_rel) -> BlockCohomology:
    """A torus / Klein bottle's cohomology ker D, ker D* /\\ (im D)^perp,
    coker D* in degrees n - 1, n, n + 1 from the decisions of D and D*;
    comm is max |rho(alpha) rho(beta) - rho(beta) rho(alpha)|."""
    n = block.middle_degree
    warn = []
    if comm > 1e-9:
        warn.append(
            f"block {block.id}: rho(alpha) and rho(beta) do not commute "
            f"(max defect {comm:.2e}); the block formulas assume they do"
        )
    ker, top = res.kernel_basis, res_star.cokernel_basis
    middle_basis = _within(res_star.kernel_basis, res.range_basis, tol_rel)
    dims = {}
    for degree, basis in ((n - 1, ker), (n, middle_basis), (n + 1, top)):
        if basis.shape[1]:
            dims[degree] = basis.shape[1]
    bases = {n - 1: ker, n: middle_basis, n + 1: top}
    acyclic = not dims
    factor = TorsionScalar(1.0, ACYCLIC_NOTE if acyclic else RELATIVE_NOTE)
    return BlockCohomology(block.id, block.kind, level, n, d, d_star, dims, bases, factor, acyclic, warn)


# ---------------------------------------------------------------------------
# Morse expansion and the assembled cochain complex


@dataclass
class MorseData:
    """Morse points of the perturbed Bott function, grouped by index.

    points[k] lists the index-k critical points in the canonical layout
    (blocks in model order, circle points w/z, extremal points p/q/r/s);
    slot[(block_id, label)] = (index, position within points[index]).
    """

    points: tuple
    slot: dict

    def fiber(self, dim: int, block_id: str, label: str) -> tuple:
        """(degree, row slice) of the point's fiber in the assembled complex."""
        index, pos = self.slot[(block_id, label)]
        return index, slice(pos * dim, (pos + 1) * dim)


def expand_morse(model: BottModel) -> MorseData:
    """Replace every block by nondegenerate Morse points.

    A circle of index u yields w (index u) and z (index u + 1); a torus or
    Klein bottle yields p, q, r, s of indices 0, 1, 1, 2 (minimal) or
    1, 2, 2, 3 (maximal).
    """
    layout = ensure_valid(model)
    points: list[list[MorsePoint]] = [[], [], [], []]
    slot: dict = {}
    for block, tier in zip(model.blocks, layout.tier):
        for label, index in _POINTS[tier].items():
            slot[(block.id, label)] = (index, len(points[index]))
            points[index].append(MorsePoint(block.id, label, index))
    return MorseData(points=tuple(map(tuple, points)), slot=slot)


def _morse_differential(layout: _Layout, cohomologies) -> list:
    """The Morse differential as m x m blocks, by source degree k: out[k] is
    (targets, sources, blocks), two arrays of point numbers and a list of
    the blocks (the cohomologies' and the layout's own arrays, not copies).
    The within-block matrices come first, block by block in model order,
    then the orbit sums of the supplied pairs of degree k; no pair repeats."""
    within: list = [[], [], []]
    for p, coh in zip(layout.first.tolist(), cohomologies):
        n, d, d_star, half = coh.middle, coh.D, coh.D_star, coh.D.shape[1]
        # w -> z through D; p -> q, p -> r through D, q -> s, r -> s through D*
        if coh.kind == CIRCLE:
            within[n].append((p + 1, p, d))
        else:
            within[n - 1] += [(p + 1, p, d[:half]), (p + 2, p, d[half:])]
            within[n] += [(p + 3, p + 1, d_star[:, :half]), (p + 3, p + 2, d_star[:, half:])]
    degree, out = layout.index[layout.source], []
    for k, entries in enumerate(within):
        targets, sources, mats = zip(*entries) if entries else ((), (), ())
        pick = np.flatnonzero(degree == k)
        out.append((
            np.concatenate([np.array(targets, dtype=int), layout.target[pick]]),
            np.concatenate([np.array(sources, dtype=int), layout.source[pick]]),
            [*mats, *(layout.sums[i] for i in pick.tolist())],
        ))
    return out


def _fibers(rows: np.ndarray, cols: np.ndarray, m: int) -> tuple:
    """Index arrays placing the m x m block e at fiber rows[e], cols[e]."""
    span = np.arange(m)
    return (rows * m)[:, None, None] + span[:, None], (cols * m)[:, None, None] + span


def _not_a_complex(detail: str, cohomologies) -> NotAComplex:
    hints = [w for coh in cohomologies for w in coh.warnings]
    hint = f" ({'; '.join(hints)})" if hints else ""
    return NotAComplex(
        f"assembled Morse differential fails d*d = 0: {detail}{hint}; "
        f"the supplied connection orbits are not consistent gradient data"
    )


def _check_square_zero(diff: list, cohomologies) -> None:
    """d*d = 0 on the nonzero block products: BasedComplex's entrywise test
    at its global scale max|d^(k+1)| max|d^k|, without forming d. The
    products of every path source -> middle -> target are summed per
    (target, source) in the order of the first step, then of the second."""
    top = [float(np.abs(mats).max()) if mats else 0.0 for _, _, mats in diff]
    for k in range(2):
        (middle, source, first), (target, after, second) = diff[k], diff[k + 1]
        order = np.argsort(after, kind="stable")
        lo, hi = np.searchsorted(after[order], middle, "left"), np.searchsorted(after[order], middle, "right")
        a = np.repeat(np.arange(len(middle)), hi - lo)
        b = order[np.arange(len(a)) + np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)]
        defect, scale = 0.0, max(1.0, top[k + 1] * top[k])
        if len(a):
            keys, which = np.unique(target[b] * (int(source.max()) + 1) + source[a], return_inverse=True)
            products = np.array([second[j] for j in b.tolist()]) @ np.array([first[i] for i in a.tolist()])
            sums = np.zeros((len(keys),) + products.shape[1:], dtype=complex)
            _add_in_order(sums, which.ravel(), products)
            defect = float(np.abs(sums).max())
        if defect > STRUCT_TOL * scale:
            message = f"d^{k + 1} d^{k} has max entry {defect:.3e} (scale {scale:.3e})"
            raise _not_a_complex(message, cohomologies)


def _morse_anchor(diff: list, layout: _Layout) -> float:
    """max(1, operator norm of the Morse differential), the anchor of the
    rank decisions on the Morse complex and on its pages.

    No block of the differential joins two connected components, so each
    degree k is the direct sum of its components' pieces (rows: the
    component's index-(k + 1) points, columns: its index-k points, in the
    layout's piece order), and its norm is the largest of theirs. Each
    piece fills a dense matrix of its own, the pieces of one shape (over
    all degrees) one stack, and linalg._largest_norm takes the largest
    norm from Gram matrices, one eigvalsh call per Gram size.
    """
    targets, sources = (np.concatenate(parts) for parts in list(zip(*diff))[:2])
    mats = np.array([mat for _, _, part in diff for mat in part])
    if not len(mats):
        return 1.0
    degree, count = np.repeat(np.arange(3), [len(entry[1]) for entry in diff]), layout.count
    component = layout.component[layout.block[sources]]
    pieces, which = np.unique(degree * count.shape[1] + component, return_inverse=True)
    k, c = np.divmod(pieces, count.shape[1])
    # a piece's shape in points, (rows, columns) as one number
    shapes, group = np.unique(count[k + 1, c] * (count.max() + 1) + count[k, c], return_inverse=True)
    group, which = group.ravel(), which.ravel()
    at, m, stacks = _rank_within(group)[which], mats.shape[1], []
    for g, (height, width) in enumerate(zip(*np.divmod(shapes, count.max() + 1))):
        pick = group[which] == g
        rows, cols = _fibers(layout.piece[targets[pick]], layout.piece[sources[pick]], m)
        stacks.append(np.zeros((int((group == g).sum()), height * m, width * m), dtype=complex))
        stacks[-1][at[pick][:, None, None], rows, cols] = mats[pick]
    return max(1.0, _largest_norm(stacks))


def assemble_complex(
    model: BottModel,
    cohomologies: Optional[Sequence[BlockCohomology]] = None,
    tol_rel: float = DEFAULT_TOL,
) -> FilteredComplex:
    """The explicit Morse cochain complex of the model with its filtration.

    Degree k is the direct sum of one C^m fiber per index-k point, in
    expand_morse's order (the layout's rows); the differential carries the
    within-block matrices plus the connection orbit sums; the filtration
    level of a fiber is its block's level. This is the dense complex
    filtered_pages runs on; total_torsion does not form it.
    """
    layout = ensure_valid(model)
    m = model.representation.dim
    if cohomologies is None:
        cohomologies = _block_cohomologies(model.blocks, model.representation, tol_rel, layout)
    dims = (m * np.bincount(layout.index, minlength=4)).tolist()
    diff = _morse_differential(layout, cohomologies)
    diffs = [np.zeros((dims[k + 1], dims[k]), dtype=complex) for k in range(3)]
    for d, (targets, sources, mats) in zip(diffs, diff):
        d[_fibers(layout.row[targets], layout.row[sources], m)] = np.reshape(mats, (-1, m, m))
    try:
        base = BasedComplex(dims, diffs, rank_scale=_morse_anchor(diff, layout))
    except NotAComplex as err:
        raise _not_a_complex(str(err), cohomologies) from err
    levels = [np.repeat(layout.level[layout.block[layout.index == k]], m) for k in range(4)]
    return FilteredComplex(base, levels, 3)


# ---------------------------------------------------------------------------
# first-page structure and the d1 / d2 assembly


@dataclass
class E1Data:
    """First page assembled from the block cohomologies.

    E_1 in Morse degree k has its columns grouped by level, within a level
    by connected component (blocks joined by connections, in the order of
    their first blocks) and within a component by block in model order;
    cols[(level, k)] is the column range of one level, and
    parts[(level, k)] its width in each component, 0 where a component has
    none (components with no E_1 at all are left out). width[j, k] is the
    width of block j's degree-k cohomology basis, and offset[j, k] its
    first column within the slot (level of block j, k); a point's m fiber
    rows of that basis (the r point's after q's) fill those columns.
    anchor is max(1, operator norm of the Morse differential).
    """

    cols: dict
    width: np.ndarray
    offset: np.ndarray
    anchor: float
    parts: dict

    def dims(self) -> dict:
        """Page dimension of every slot (level, q), levels outermost."""
        return {(level, k - level): s.stop - s.start for (level, k), s in self.cols.items()}

    def part_dims(self) -> dict:
        """Part sizes of every slot (level, q), one per component."""
        return {(level, k - level): sizes for (level, k), sizes in self.parts.items()}


def _build_e1(layout: _Layout, cohomologies, anchor: float) -> E1Data:
    width = [[coh.bases[k].shape[1] if k in coh.bases else 0 for k in range(4)] for coh in cohomologies]
    width = np.array(width, dtype=int).reshape(-1, 4)
    # widths per (level, k, component), the components with none dropped
    per = np.zeros((3, 4, layout.count.shape[1]), dtype=int)
    np.add.at(per, (layout.level, slice(None), layout.component), width)
    per = per[:, :, per.any(axis=(0, 1))]
    size, stop = per.sum(axis=2).tolist(), np.cumsum(per.sum(axis=2), axis=0).tolist()
    cols = {(lv, k): slice(stop[lv][k] - size[lv][k], stop[lv][k]) for lv in range(3) for k in range(4)}
    # component-major, and model order within a component (a stable sort)
    order = np.argsort(layout.component, kind="stable")
    offset = np.zeros_like(width)
    for level in range(3):
        pick = order[layout.level[order] == level]
        offset[pick] = np.cumsum(width[pick], axis=0) - width[pick]
    parts = {(level, k): per[level, k].tolist() for level in range(3) for k in range(4)}
    return E1Data(cols=cols, width=width, offset=offset, anchor=anchor, parts=parts)


@dataclass
class D1Data:
    """First-page differential blocks, E_1^(n,q) -> E_1^(n+1,q).

    The Morse differential reduced onto the E_1 bases is held by its
    level-raising slices: blocks[(level, q)] out of E_1^(level, q) into
    E_1^(level + 1, q) (d1), and skips[q] out of E_1^(0, q) into
    E_1^(2, q - 1), which assemble_d2 conjugates onto the second page.
    """

    blocks: dict
    skips: dict
    e1: E1Data
    warnings: list


def _missing_connection_warnings(model: BottModel, layout: _Layout) -> list[str]:
    """One line per kind (d1, d2) counting the licensed block point pairs with
    no connection data and quoting the first few in model order.

    The missing pairs are the licensed ones less the supplied ones. Blocks
    are grouped by tier: the count is a product of group sizes less the
    supplied pairs, and the example scan stops at the first gaps.
    """
    supplied = {(conn.to_point, conn.from_point) for conn in model.connections}
    tier = {b.id: t for b, t in zip(model.blocks, layout.tier)}
    by_tier: dict = {t: [] for t in _TIER_NAMES}
    for b, t in zip(model.blocks, layout.tier):
        by_tier[t].append(b.id)
    have = Counter(((tier[lo], a), (tier[hi], b)) for (lo, a), (hi, b) in supplied)
    out = []
    for kind in ("d1", "d2"):
        keys = [key for key, licensed in _LICENSED.items() if licensed == kind]
        count = sum(len(by_tier[src[0]]) * len(by_tier[dst[0]]) - have[(src, dst)] for src, dst in keys)
        if not count:
            continue
        # model order: tier order, list order within a tier, then _LICENSED order
        gaps = (
            f"{hi}.{dst[1]} -> {lo}.{src[1]}"
            for lo_tier in sorted({src[0] for src, _ in keys})
            for lo in by_tier[lo_tier]
            for hi_tier in sorted({dst[0] for src, dst in keys if src[0] == lo_tier})
            for hi in by_tier[hi_tier]
            for src, dst in keys
            if (src[0], dst[0]) == (lo_tier, hi_tier) and ((lo, src[1]), (hi, dst[1])) not in supplied
        )
        examples = list(itertools.islice(gaps, _MISSING_EXAMPLES))
        out.append(
            f"missing connection for {count} {kind} pair{'s' if count > 1 else ''} "
            f"(components set to zero): {', '.join(examples)}"
            + (", ..." if count > len(examples) else "")
        )
    return out


def assemble_d1(
    model: BottModel,
    cohomologies: Optional[Sequence[BlockCohomology]] = None,
    tol_rel: float = DEFAULT_TOL,
) -> D1Data:
    """First-page differentials from the licensed connection components.

    Every step reads the model's layout (validate_model). The Morse
    differential is held as m x m blocks, one per point pair, and checked
    for d*d = 0 on the block products. It is reduced once onto the E_1
    bases, block by block: a block M from point a to point b adds
    B_b^H M B_a, B the points' rows of the block cohomology bases, and the
    level 0 -> 2 slice also gets the zig-zag -D_out D_s^+ D_in through the
    pseudo-inverse of each saddle's own D (what eliminating the saddle's
    acyclic part leaves behind). The level n -> n + 1 slices are d1;
    assemble_d2 reads the level 0 -> 2 slice. No dense ambient matrix is
    formed; the anchor, the Morse operator norm, comes from per-component
    Gram matrices. Licensed pairs with no connection default to zero; the
    warnings then hold one summary line per kind (d1, d2) with the number
    of such pairs and the first few of them. Given cohomologies must be
    the blocks' own (block_cohomology); without them they are computed.
    """
    layout = ensure_valid(model)
    if cohomologies is None:
        cohomologies = _block_cohomologies(model.blocks, model.representation, tol_rel, layout)
    return _first_page(model, layout, cohomologies)


def _first_page(model: BottModel, layout: _Layout, cohomologies) -> D1Data:
    """assemble_d1 on a validated model's layout."""
    diff = _morse_differential(layout, cohomologies)
    _check_square_zero(diff, cohomologies)
    e1 = _build_e1(layout, cohomologies, _morse_anchor(diff, layout))
    warnings = [w for coh in cohomologies for w in coh.warnings] + _missing_connection_warnings(model, layout)
    return D1Data(*_reduced_operator(layout, cohomologies, e1), e1=e1, warnings=warnings)


def _reduced_operator(layout: _Layout, cohomologies, e1: E1Data) -> tuple:
    """The level-raising slices of E^H (D - D[:, S] h D[S, :]) E, summed
    block by block: (d1 blocks, level 0 -> 2 slices).

    Same-level blocks vanish on the E_1 bases, so only the supplied pairs'
    orbit sums count, each conjugated onto its ends' rows of the block
    bases. Only degree 1 -> 2 has zig-zags: h maps a saddle's z fiber to
    its w fiber, so they need a level-0 orbit into s.z and a level-2 orbit
    out of s.w, and they vanish for a saddle with D = 0.
    """
    size, m = e1.dims(), layout.sums.shape[1]
    slices = [(level + 1, k - level, level, k - level) for level in range(2) for k in range(3)]
    slices += [(2, q - 1, 0, q) for q in range(3)]
    into = [np.zeros((size[(a, b)], size[(c, d)]), dtype=complex) for a, b, c, d in slices]
    degree, level = layout.index[layout.source], layout.level[layout.block[layout.source]]
    # per end (source, target) of each pair: first E_1 column, width, and
    # the end point's rows of its block's basis
    at, width, piece = [], [], []
    for points, k in ((layout.source, degree), (layout.target, degree + 1)):
        j, row = layout.block[points], m * layout.within[points]
        at.append(e1.offset[j, k].tolist())
        width.append(e1.width[j, k].tolist())
        rows = zip(j.tolist(), k.tolist(), row.tolist())
        piece.append([cohomologies[b].bases[q][r : r + m] for b, q, r in rows])
    slot = np.where(layout.gap == 1, 3 * level + degree, 6 + degree).tolist()
    for i in np.flatnonzero(np.multiply(*width)).tolist():
        term = piece[1][i].conj().T @ layout.sums[i] @ piece[0][i]
        into[slot[i]][at[1][i] : at[1][i] + width[1][i], at[0][i] : at[0][i] + width[0][i]] += term
    blocks, skips = dict(zip([s[2:] for s in slices[:6]], into[:6])), dict(enumerate(into[6:]))
    if not skips[1].size:
        return blocks, skips
    ins, outs = defaultdict(list), defaultdict(list)
    for i in np.flatnonzero(degree == 1).tolist():
        if level[i] == 0:
            ins[layout.target[i]].append(i)
        if level[i] + layout.gap[i] == 2:
            outs[layout.source[i]].append(i)
    for j, (coh, p) in enumerate(zip(cohomologies, layout.first.tolist())):
        res = coh.rank_result
        if layout.tier[j] != _TIER_SADDLE or res.rank == 0 or not (ins.get(p + 1) and outs.get(p)):
            continue
        # h = D^+ = V S^-1 U^H = V S^-2 (D V)^H on the kept singular pairs
        v = res.row_basis
        h = (v / res.singular_values[: res.rank] ** 2) @ (coh.D @ v).conj().T
        for i in outs[p]:
            left = piece[1][i].conj().T @ layout.sums[i] @ h
            for n in ins[p + 1]:
                term = left @ (layout.sums[n] @ piece[0][n])
                skips[1][at[1][i] : at[1][i] + width[1][i], at[0][n] : at[0][n] + width[0][n]] -= term
    return blocks, skips


@dataclass
class PageTwo:
    """Second page: orthonormal bases of ker d1 / im d1 in E_1 coordinates,
    the log-torsion of the first page relative to them, and the part sizes
    of every slot (level, q), one per component as in E1Data.parts."""

    bases: dict
    d1: D1Data
    log_torsion: float
    parts: dict


def page_two(d1: D1Data, tol_rel: float = DEFAULT_TOL) -> PageTwo:
    bases, log_tau, parts = _page_step(d1.e1.part_dims(), d1.blocks, 1, tol_rel, d1.e1.anchor)
    return PageTwo(bases=bases, d1=d1, log_torsion=log_tau, parts=parts)


def assemble_d2(page2: PageTwo) -> dict:
    """Second-page differentials d2 : E_2^(0,q) -> E_2^(2,q-1), q = 0, 1, 2.

    The component is the level 0 -> 2 slice of the reduced first-page
    operator (direct orbit sums plus the zig-zags through saddle blocks),
    conjugated onto the second-page subquotient bases.
    """
    return {
        q: page2.bases[(2, q - 1)].conj().T @ page2.d1.skips[q] @ page2.bases[(0, q)]
        for q in range(3)
    }


# ---------------------------------------------------------------------------
# the end-to-end pipeline


@dataclass
class TorsionReport:
    """Everything total_torsion computed, ready for rendering."""

    per_block: list
    e1_dims: dict
    e2_dims: dict
    einf_dims: dict
    tau_d0: TorsionScalar
    tau_d1: TorsionScalar
    tau_d2: TorsionScalar
    total: TorsionScalar
    acyclic: bool
    warnings: list
    mode: str
    fast_total: Optional[float] = None
    tolerance: float = DEFAULT_TOL


@contextmanager
def _stage(name: str, model: BottModel):
    """Running out of memory in one stage of the solve raises TorsionError
    naming the stage and the model size, not a bare MemoryError."""
    try:
        yield
    except MemoryError as err:
        raise TorsionError(
            f"out of memory in {name}: {len(model.blocks)} blocks, {len(model.connections)} "
            f"connections, fiber dimension {model.representation.dim}"
        ) from err


def total_torsion(model: BottModel, mode: str = "auto", tol_rel: float = DEFAULT_TOL) -> TorsionReport:
    """Torsion of the isoenergy surface from the block data.

    The model is validated once; every stage reads the layout validation
    builds (validate_model), computed afresh for each call. The first page
    is decided as stacks (_block_cohomologies): one LAPACK call for every
    circle's D, one each for the extremal blocks' D and D*. mode "fast"
    uses the determinant product prod |det D_i|^((-1)^u_i), legal only
    when every block is a circle whose D was found nonsingular at tol_rel;
    the log |det D_i| then come from one stacked LU (numpy slogdet) and are
    summed in model order, so no second rank decision is made. mode "full"
    runs the page-by-page pipeline. mode "auto" runs the full pipeline and
    cross-checks the fast product whenever it is legal; the two logs must
    agree to 1e-8.

    The pages are direct sums over the model's connected components, and
    torsion is multiplicative over direct sums (Milnor 1966): every d1, d2
    and next-page cut is decided component by component, the parts of one
    shape in one LAPACK call, each at the threshold its whole E_1-slot
    matrix would get, so ranks and pages do not depend on the split. A
    model of one component makes the whole-matrix decisions.

    Acyclic totals are canonical. Non-acyclic (relative) totals are
    measured in E_1 coordinates, on the block cohomology bases; they can
    differ from filtered_pages on the assembled complex, which measures
    the ambient lift of each surviving class (the two differ when a
    level-0 class needs a saddle component to become a cocycle). Moduli
    are accumulated as sums of logs; a total outside the floating-point
    range raises TorsionError.
    """
    if mode not in ("auto", "fast", "full"):
        raise InvalidInput(f"mode must be auto, fast or full, got {mode!r}")
    layout = ensure_valid(model)
    with _stage("block cohomology", model):
        cohomologies = _block_cohomologies(model.blocks, model.representation, tol_rel, layout)
    fast_legal = all(b.kind == CIRCLE and coh.acyclic for b, coh in zip(model.blocks, cohomologies))
    if mode == "fast" and not fast_legal:
        offenders = [
            f"{b.id} ({'non-circle' if b.kind != CIRCLE else 'singular D'})"
            for b, coh in zip(model.blocks, cohomologies)
            if b.kind != CIRCLE or not coh.acyclic
        ]
        raise FastPathUnavailable(
            "fast path needs all blocks to be circles with nonsingular D; "
            f"{len(offenders)} offending block{'s' if len(offenders) > 1 else ''}: "
            + ", ".join(offenders[:_MISSING_EXAMPLES])
            + (", ..." if len(offenders) > _MISSING_EXAMPLES else "")
        )

    # moduli are accumulated as sums of logs: a product of finite block
    # factors in model order can leave the float range midway. Every D here
    # was found nonsingular at tol_rel on the first page; its log |det|
    # comes from an LU, independent of that SVD
    if fast_legal:
        log_fast = 0.0
        m = model.representation.dim
        with _stage("fast path product", model):
            stack = np.reshape([coh.D for coh in cohomologies], (-1, m, m))
            for b, logdet in zip(model.blocks, np.linalg.slogdet(stack)[1].tolist()):
                log_fast += (-1) ** b.index * logdet

    if mode == "fast":
        tau_d0 = TorsionScalar(modulus_from_log(log_fast, "fast path product"), ACYCLIC_NOTE)
        return TorsionReport(
            per_block=cohomologies,
            e1_dims={},
            e2_dims={},
            einf_dims={},
            tau_d0=tau_d0,
            tau_d1=TorsionScalar(1.0),
            tau_d2=TorsionScalar(1.0),
            total=tau_d0,
            acyclic=True,
            warnings=[w for coh in cohomologies for w in coh.warnings],
            mode="fast",
            fast_total=tau_d0.modulus,
            tolerance=tol_rel,
        )

    with _stage("first page", model):
        d1 = _first_page(model, layout, cohomologies)
        page2 = page_two(d1, tol_rel=tol_rel)

    e1_dims = {key: n for key, n in d1.e1.dims().items() if n}
    e2_dims = {key: b.shape[1] for key, b in page2.bases.items() if b.shape[1]}

    log_d0 = math.fsum(math.log(coh.torsion_factor.modulus) for coh in cohomologies)
    tau_d0_mod = modulus_from_log(log_d0, "tau_d0")
    all_blocks_acyclic = all(coh.acyclic for coh in cohomologies)
    tau_d0 = TorsionScalar(tau_d0_mod, ACYCLIC_NOTE if all_blocks_acyclic else RELATIVE_NOTE)

    tau_d1 = TorsionScalar(modulus_from_log(page2.log_torsion, "tau_d1"), _page_note(page2.bases))

    # third page: cohomology of (E_2, d_2); levels 0 and 2 move, level 1 is stable
    with _stage("second page", model):
        d2 = {(0, q): mat for q, mat in assemble_d2(page2).items()}
        page3, log_d2, _ = _page_step(page2.parts, d2, 2, tol_rel, d1.e1.anchor)
    tau_d2 = TorsionScalar(modulus_from_log(log_d2, "tau_d2"), _page_note(page3))

    einf_dims = {key: b.shape[1] for key, b in page3.items() if b.shape[1]}
    acyclic = not einf_dims

    log_total = log_d0 + page2.log_torsion + log_d2
    total_mod = modulus_from_log(log_total, "total torsion")
    total = TorsionScalar(total_mod, ACYCLIC_NOTE if acyclic else RELATIVE_NOTE)

    warnings = list(d1.warnings)
    if not acyclic:
        warnings.append(
            "limit page is nonzero: reported torsions are relative to the computed "
            "cohomology bases"
        )

    mode_used = "full"
    fast_value = None
    if fast_legal:
        if mode == "auto":
            mode_used = "auto"
            # a log difference of 1e-8 is a relative difference of 1e-8
            diff = abs(log_fast - log_total)
            if not (diff <= 1e-8):
                raise TorsionError(
                    f"fast path log-modulus {log_fast:.12g} and full pipeline "
                    f"{log_total:.12g} disagree (difference {diff:.3e})"
                )
        fast_value = modulus_from_log(log_fast, "fast path product")

    return TorsionReport(
        per_block=cohomologies,
        e1_dims=e1_dims,
        e2_dims=e2_dims,
        einf_dims=einf_dims,
        tau_d0=tau_d0,
        tau_d1=tau_d1,
        tau_d2=tau_d2,
        total=total,
        acyclic=acyclic,
        warnings=warnings,
        mode=mode_used,
        fast_total=fast_value,
        tolerance=tol_rel,
    )
