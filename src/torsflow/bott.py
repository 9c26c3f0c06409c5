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

total_torsion never forms the dense Morse complex (assemble_complex does,
for filtered_pages). The differential is held as m x m blocks, one per
point pair: d*d = 0 is checked on the block products, the reduced operator
is summed block by block into the E_1 slots, and the operator norm that
anchors the page decisions comes from Gram matrices summed block by block.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
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
from .linalg import DEFAULT_TOL, RankResult, _rank_nullspaces, block_operator_norm
from .representation import Representation, parse_word
from .spectral import FilteredComplex, _page_note, _page_step

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

#: filtration level of each tier (minima, saddles, maxima)
_TIER_LEVEL = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}

_CIRCLE_LABELS = ("w", "z")
_EXTREMAL_LABELS = ("p", "q", "r", "s")

#: missing-connection pairs quoted per warning line
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
            return {0: _TIER_MIN_CIRCLE, 1: _TIER_SADDLE, 2: _TIER_MAX_CIRCLE}[self.index]
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
        return _CIRCLE_LABELS if self.kind == CIRCLE else _EXTREMAL_LABELS

    def point_index(self, label: str) -> int:
        if self.kind == CIRCLE:
            if label == "w":
                return self.index
            if label == "z":
                return self.index + 1
        else:
            base = 0 if self.extremal == "min" else 1
            offset = {"p": 0, "q": 1, "r": 1, "s": 2}.get(label)
            if offset is not None:
                return base + offset
        raise InvalidInput(f"block {self.id} ({self.kind}) has no point labelled {label!r}")


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

    def matrix(self, rep: Representation) -> np.ndarray:
        """Sum of sign * rho(word) over the orbits."""
        out = np.zeros((rep.dim, rep.dim), dtype=complex)
        values = rep.evaluate_words(orbit.word for orbit in self.orbits)
        for orbit, value in zip(self.orbits, values):
            out = out + orbit.sign * value
        return out


@dataclass(frozen=True)
class BottModel:
    representation: Representation
    blocks: tuple
    connections: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "connections", tuple(self.connections))

    def block_map(self) -> dict:
        return {b.id: b for b in self.blocks}


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

# licensed cochain components (source point -> target point, index rising by 1),
# keyed by ((source tier, label), (target tier, label)); value "d1" or "d2"
_LICENSED = {}
for _src, _dst in [
    ((_TIER_MIN_CIRCLE, "w"), (_TIER_SADDLE, "w")),
    ((_TIER_MIN_CIRCLE, "z"), (_TIER_SADDLE, "z")),
    ((_TIER_SADDLE, "w"), (_TIER_MAX_CIRCLE, "w")),
    ((_TIER_SADDLE, "z"), (_TIER_MAX_CIRCLE, "z")),
    ((_TIER_MIN_EXTREMAL, "p"), (_TIER_SADDLE, "w")),
    ((_TIER_MIN_EXTREMAL, "q"), (_TIER_SADDLE, "z")),
    ((_TIER_MIN_EXTREMAL, "r"), (_TIER_SADDLE, "z")),
    ((_TIER_SADDLE, "w"), (_TIER_MAX_EXTREMAL, "q")),
    ((_TIER_SADDLE, "w"), (_TIER_MAX_EXTREMAL, "r")),
    ((_TIER_SADDLE, "z"), (_TIER_MAX_EXTREMAL, "s")),
]:
    _LICENSED[(_src, _dst)] = "d1"
for _src, _dst in [
    ((_TIER_MIN_CIRCLE, "w"), (_TIER_MAX_EXTREMAL, "p")),
    ((_TIER_MIN_EXTREMAL, "p"), (_TIER_MAX_EXTREMAL, "p")),
    ((_TIER_MIN_CIRCLE, "z"), (_TIER_MAX_CIRCLE, "w")),
    ((_TIER_MIN_CIRCLE, "z"), (_TIER_MAX_EXTREMAL, "q")),
    ((_TIER_MIN_CIRCLE, "z"), (_TIER_MAX_EXTREMAL, "r")),
    ((_TIER_MIN_EXTREMAL, "q"), (_TIER_MAX_CIRCLE, "w")),
    ((_TIER_MIN_EXTREMAL, "q"), (_TIER_MAX_EXTREMAL, "q")),
    ((_TIER_MIN_EXTREMAL, "q"), (_TIER_MAX_EXTREMAL, "r")),
    ((_TIER_MIN_EXTREMAL, "r"), (_TIER_MAX_CIRCLE, "w")),
    ((_TIER_MIN_EXTREMAL, "r"), (_TIER_MAX_EXTREMAL, "q")),
    ((_TIER_MIN_EXTREMAL, "r"), (_TIER_MAX_EXTREMAL, "r")),
    ((_TIER_MIN_EXTREMAL, "s"), (_TIER_MAX_EXTREMAL, "s")),
    ((_TIER_MIN_EXTREMAL, "s"), (_TIER_MAX_CIRCLE, "z")),
]:
    _LICENSED[(_src, _dst)] = "d2"


def connection_kind(blocks: dict, conn: GradientConnection) -> str:
    """Classify a connection as a d1 or d2 component, or raise IllegalConnection.

    This is the one licensing rule: validate_model applies it to every
    connection, so no assembly stage meets an unlicensed pair. blocks is
    the model's block_map(), built once by the caller.
    """
    lo_block = blocks[conn.to_point[0]]
    hi_block = blocks[conn.from_point[0]]
    key = (
        (lo_block.tier, conn.to_point[1]),
        (hi_block.tier, conn.from_point[1]),
    )
    kind = _LICENSED.get(key)
    if kind is None:
        raise IllegalConnection(
            f"connection {conn.from_point[0]}.{conn.from_point[1]} -> "
            f"{conn.to_point[0]}.{conn.to_point[1]}: no differential component is "
            f"induced between a {_TIER_NAMES[lo_block.tier]} point "
            f"'{conn.to_point[1]}' and a {_TIER_NAMES[hi_block.tier]} point "
            f"'{conn.from_point[1]}'"
        )
    return kind


def validate_model(model: BottModel) -> list[Diagnostic]:
    """Structural diagnostics for a model; empty list means valid.

    Checks the tier ordering of the block list, id uniqueness, non-decreasing
    critical values (ties within a tier are fine, list order breaks them),
    generator unitarity, word well-formedness, and every connection: its
    points must exist, and connection_kind must license the pair. A pair of
    non-consecutive index or between two saddle circles gets its own more
    specific message instead.
    """
    diags: list[Diagnostic] = []
    rep = model.representation

    seen = set()
    last_tier = -1
    last_value = -math.inf
    for b in model.blocks:
        if b.id in seen:
            diags.append(Diagnostic("InvalidInput", b.id, f"duplicate block id {b.id!r}"))
        seen.add(b.id)
        if b.tier < last_tier:
            diags.append(
                Diagnostic(
                    "ModelOrderError",
                    b.id,
                    f"block {b.id} ({_TIER_NAMES[b.tier]}) listed after a "
                    f"{_TIER_NAMES[last_tier]}",
                )
            )
        if b.critical_value < last_value - 1e-12:
            diags.append(
                Diagnostic(
                    "ModelOrderError",
                    b.id,
                    f"block {b.id}: critical value {b.critical_value} decreases in list order",
                )
            )
        last_tier = max(last_tier, b.tier)
        last_value = max(last_value, b.critical_value)
        words = [b.holonomy] if b.kind == CIRCLE else [b.alpha, b.beta]
        for word in words:
            for msg in rep.word_errors(word):
                diags.append(Diagnostic("InvalidInput", b.id, f"block {b.id}: {msg}"))

    from .representation import unitary_defect

    for name, mat in rep.generators.items():
        defect = unitary_defect(mat)
        if defect > 1e-9:
            diags.append(
                Diagnostic("InvalidInput", name, f"generator {name} unitarity defect {defect:.2e}")
            )

    blocks = model.block_map()
    for c, conn in enumerate(model.connections):
        subject = f"connection[{c}]"
        ok = True
        for end, point in (("from", conn.from_point), ("to", conn.to_point)):
            bid, label = point
            if bid not in blocks:
                diags.append(Diagnostic("InvalidInput", subject, f"{end} references unknown block {bid!r}"))
                ok = False
            elif label not in blocks[bid].labels():
                diags.append(
                    Diagnostic(
                        "InvalidInput",
                        subject,
                        f"{end} point {bid}.{label}: {blocks[bid].kind} blocks have labels "
                        f"{'/'.join(blocks[bid].labels())}",
                    )
                )
                ok = False
        if not ok:
            continue
        hi = blocks[conn.from_point[0]]
        lo = blocks[conn.to_point[0]]
        hi_index = hi.point_index(conn.from_point[1])
        lo_index = lo.point_index(conn.to_point[1])
        specific = len(diags)
        if hi_index != lo_index + 1:
            diags.append(
                Diagnostic(
                    "IllegalConnection",
                    subject,
                    f"{conn.from_point[0]}.{conn.from_point[1]} (index {hi_index}) -> "
                    f"{conn.to_point[0]}.{conn.to_point[1]} (index {lo_index}): gradient "
                    f"orbits join points of consecutive index",
                )
            )
        if hi.tier == _TIER_SADDLE and lo.tier == _TIER_SADDLE:
            diags.append(
                Diagnostic(
                    "AssumptionViolated",
                    subject,
                    f"connection between saddle circles {hi.id} and {lo.id}",
                )
            )
        if len(diags) == specific:
            try:
                connection_kind(blocks, conn)
            except IllegalConnection as err:
                diags.append(Diagnostic("IllegalConnection", subject, str(err)))
        for orbit in conn.orbits:
            for msg in rep.word_errors(orbit.word):
                diags.append(Diagnostic("InvalidInput", subject, msg))
    return diags


def ensure_valid(model: BottModel) -> None:
    """Raise the error class of the first diagnostic, message listing them all."""
    diags = validate_model(model)
    if not diags:
        return
    messages = "; ".join(f"[{d.subject}] {d.message}" for d in diags)
    raise _DIAG_ERRORS.get(diags[0].code, InvalidInput)(messages)


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


def _block_cohomologies(
    blocks: Sequence[CriticalBlock],
    rep: Representation,
    tol_rel: float = DEFAULT_TOL,
) -> list[BlockCohomology]:
    """block_cohomology of every block, in order, with the first page
    decided as stacks: every block word (circle holonomies, then alpha and
    beta of each torus / Klein bottle) is evaluated in one walk, every
    circle's D is decided in one LAPACK call, and the extremal blocks' D
    and D* in one call each. Each decision keeps the threshold it would
    have alone (linalg._rank_nullspaces); only the middle cut of an
    extremal block, ker D* against im D, is made block by block."""
    circles = [j for j, b in enumerate(blocks) if b.kind == CIRCLE]
    extremals = [j for j, b in enumerate(blocks) if b.kind != CIRCLE]
    words = [blocks[j].holonomy for j in circles]
    for j in extremals:
        words += [blocks[j].alpha, blocks[j].beta]
    values = rep.evaluate_words(words)
    eye = rep.identity()
    out: list = [None] * len(blocks)

    if circles:
        deltas = np.array([blocks[j].delta for j in circles])
        ds = eye - deltas[:, None, None] * np.array(values[: len(circles)])
        # unit-scale anchor: D is built from unitaries, so a holonomy that
        # reduces to the identity must give an honest zero matrix
        for j, d, res in zip(circles, ds, _rank_nullspaces(ds, tol_rel, scale=1.0)):
            out[j] = _circle_cohomology(blocks[j], d, res)

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
        decided = zip(
            _rank_nullspaces(ds, tol_rel, scale=1.0), _rank_nullspaces(d_stars, tol_rel, scale=1.0)
        )
        for j, d, d_star, comm, (res, res_star) in zip(extremals, ds, d_stars, comms, decided):
            out[j] = _extremal_cohomology(blocks[j], d, d_star, comm, res, res_star, tol_rel)
    return out


def _circle_cohomology(block: CriticalBlock, d: np.ndarray, res: RankResult) -> BlockCohomology:
    """A circle's cohomology ker D in degrees n, n + 1 from the rank decision
    of its D."""
    n = block.middle_degree
    ker = res.kernel_basis
    coker = res.cokernel_basis
    k = ker.shape[1]
    if k and np.abs(d @ ker).max() > STRUCT_TOL * max(1.0, float(np.abs(d).max())):
        raise BasisMismatch(f"block {block.id}: kernel basis does not lie in ker D")
    dims = {n: k, n + 1: k} if k else {}
    bases = {n: ker, n + 1: coker}
    # on the SVD's own kernel and cokernel bases the two-term complex
    # 0 -> C^m -D-> C^m -> 0 has torsion prod of the kept singular values
    factor = TorsionScalar(
        modulus_from_log((-1) ** n * res.log_kept, f"block {block.id} torsion factor"),
        ACYCLIC_NOTE if k == 0 else RELATIVE_NOTE,
    )
    return BlockCohomology(
        block_id=block.id,
        kind=block.kind,
        level=block.level,
        middle=n,
        D=d,
        D_star=None,
        dims=dims,
        bases=bases,
        torsion_factor=factor,
        acyclic=(k == 0),
        warnings=[],
        rank_result=res,
    )


def _extremal_cohomology(block, d, d_star, comm, res, res_star, tol_rel) -> BlockCohomology:
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
    return BlockCohomology(
        block_id=block.id,
        kind=block.kind,
        level=block.level,
        middle=n,
        D=d,
        D_star=d_star,
        dims=dims,
        bases=bases,
        torsion_factor=TorsionScalar(1.0, ACYCLIC_NOTE if acyclic else RELATIVE_NOTE),
        acyclic=acyclic,
        warnings=warn,
    )


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
    ensure_valid(model)
    points: list[list[MorsePoint]] = [[], [], [], []]
    slot: dict = {}
    for block in model.blocks:
        for label in block.labels():
            index = block.point_index(label)
            slot[(block.id, label)] = (index, len(points[index]))
            points[index].append(MorsePoint(block.id, label, index))
    return MorseData(points=tuple(tuple(p) for p in points), slot=slot)


def _block_internal_components(block: CriticalBlock, coh: BlockCohomology):
    """Within-block cochain components as (src label, dst label, matrix)."""
    if block.kind == CIRCLE:
        return [("w", "z", coh.D)]
    half = coh.D.shape[1]
    return [
        ("p", "q", coh.D[:half]),
        ("p", "r", coh.D[half:]),
        ("q", "s", coh.D_star[:, :half]),
        ("r", "s", coh.D_star[:, half:]),
    ]


def _morse_differential(model: BottModel, cohomologies) -> dict:
    """The Morse differential as m x m blocks keyed (k, target point, source
    point), a point being (block id, label) and k the source degree: the
    within-block matrices and the connection orbit sums, summed where one
    pair carries several. The model has been validated, so every pair is
    licensed."""
    rep = model.representation
    blocks = model.block_map()
    out: dict = {}

    def add(key, mat):
        out[key] = out[key] + mat if key in out else mat

    for block, coh in zip(model.blocks, cohomologies):
        for src, dst, mat in _block_internal_components(block, coh):
            add((block.point_index(src), (block.id, dst), (block.id, src)), mat)
    for conn in model.connections:
        k = blocks[conn.to_point[0]].point_index(conn.to_point[1])
        add((k, conn.from_point, conn.to_point), conn.matrix(rep))
    return out


def _not_a_complex(detail: str, cohomologies) -> NotAComplex:
    hints = [w for coh in cohomologies for w in coh.warnings]
    hint = f" ({'; '.join(hints)})" if hints else ""
    return NotAComplex(
        f"assembled Morse differential fails d*d = 0: {detail}{hint}; "
        f"the supplied connection orbits are not consistent gradient data"
    )


def _check_square_zero(diff: dict, cohomologies) -> None:
    """d*d = 0 on the nonzero block products: BasedComplex's entrywise test
    at its global scale max|d^(k+1)| max|d^k|, without forming d."""
    by_degree = [[] for _ in range(3)]
    outgoing = defaultdict(list)
    for (k, dst, src), mat in diff.items():
        by_degree[k].append(mat)
        outgoing[(k, src)].append((dst, mat))
    top = [float(np.abs(np.array(mats)).max()) if mats else 0.0 for mats in by_degree]
    for k in range(2):
        products: dict = {}
        for (degree, mid, src), mat in diff.items():
            if degree != k:
                continue
            for dst, after in outgoing.get((k + 1, mid), ()):
                term = after @ mat
                products[(dst, src)] = products[(dst, src)] + term if (dst, src) in products else term
        scale = max(1.0, top[k + 1] * top[k])
        defect = float(np.abs(np.array(list(products.values()))).max()) if products else 0.0
        if defect > STRUCT_TOL * scale:
            raise _not_a_complex(
                f"d^{k + 1} d^{k} has max entry {defect:.3e} (scale {scale:.3e})", cohomologies
            )


def _morse_anchor(diff: dict) -> float:
    """max(1, operator norm of the Morse differential), the anchor of the
    rank decisions on the Morse complex and on its pages: the largest
    norm of one degree's blocks (linalg.block_operator_norm)."""
    by_degree: list = [{} for _ in range(3)]
    for (k, dst, src), mat in diff.items():
        by_degree[k][(dst, src)] = mat
    return max([1.0] + [block_operator_norm(blocks) for blocks in by_degree])


def assemble_complex(
    model: BottModel,
    cohomologies: Optional[Sequence[BlockCohomology]] = None,
    tol_rel: float = DEFAULT_TOL,
) -> FilteredComplex:
    """The explicit Morse cochain complex of the model with its filtration.

    Degree k is the direct sum of one C^m fiber per index-k point; the
    differential carries the within-block matrices plus the connection orbit
    sums; the filtration level of a fiber is its block's level. This is the
    dense complex filtered_pages runs on; total_torsion does not form it.
    """
    morse = expand_morse(model)
    rep = model.representation
    m = rep.dim
    if cohomologies is None:
        cohomologies = _block_cohomologies(model.blocks, rep, tol_rel)
    dims = [m * len(morse.points[k]) for k in range(4)]
    diffs = [np.zeros((dims[k + 1], dims[k]), dtype=complex) for k in range(3)]
    diff = _morse_differential(model, cohomologies)
    for (k, dst, src), mat in diff.items():
        _, rows = morse.fiber(m, *dst)
        _, cols = morse.fiber(m, *src)
        diffs[k][rows, cols] = mat

    try:
        base = BasedComplex(dims, diffs, rank_scale=_morse_anchor(diff))
    except NotAComplex as err:
        raise _not_a_complex(str(err), cohomologies) from err
    blocks = model.block_map()
    levels = []
    for k in range(4):
        lv = np.zeros(dims[k], dtype=int)
        for j, point in enumerate(morse.points[k]):
            lv[j * m : (j + 1) * m] = blocks[point.block_id].level
        levels.append(lv)
    return FilteredComplex(base, levels, 3)


# ---------------------------------------------------------------------------
# first-page structure and the d1 / d2 assembly


@dataclass
class E1Data:
    """First page assembled from the block cohomologies.

    E_1 in Morse degree k has its columns grouped by level and within a
    level by block in model order; cols[(level, k)] is the column range of
    one level. points[(block id, label)] = (level, k, offset, piece): piece
    is the point's m fiber rows of its block's degree-k cohomology basis,
    which fill the slot (level, k) from column offset on. anchor is
    max(1, operator norm of the Morse differential).
    """

    cols: dict
    points: dict
    anchor: float

    def dims(self) -> dict:
        """Page dimension of every slot (level, q), levels outermost."""
        return {(level, k - level): s.stop - s.start for (level, k), s in self.cols.items()}


def _build_e1(model, cohomologies, anchor: float) -> E1Data:
    m = model.representation.dim
    width = Counter()
    for block, coh in zip(model.blocks, cohomologies):
        for k, b in coh.bases.items():
            width[(block.level, k)] += b.shape[1]
    cols = {}
    for level in range(3):
        for k in range(4):
            start = sum(width[(lower, k)] for lower in range(level))
            cols[(level, k)] = slice(start, start + width[(level, k)])
    offset = Counter()
    points = {}
    for block, coh in zip(model.blocks, cohomologies):
        # a degree's basis stacks the fibers of the block's points of that
        # index in label order (q above r for extremal blocks)
        level = block.level
        used = Counter()
        for label in block.labels():
            k = block.point_index(label)
            points[(block.id, label)] = (level, k, offset[(level, k)], coh.bases[k][used[k] : used[k] + m])
            used[k] += m
        for k, b in coh.bases.items():
            offset[(level, k)] += b.shape[1]
    return E1Data(cols=cols, points=points, anchor=anchor)


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


def _missing_connection_warnings(model: BottModel) -> list[str]:
    """One line per kind (d1, d2) counting the licensed block point pairs with
    no connection data and quoting the first few in model order.

    Blocks are grouped by tier: the count is a product of group sizes less
    the supplied pairs, and the example scan stops at the first gaps.
    """
    supplied = {(conn.to_point, conn.from_point) for conn in model.connections}
    tier = {b.id: b.tier for b in model.blocks}
    by_tier = {t: [] for t in _TIER_NAMES}
    for bid, t in tier.items():
        by_tier[t].append(bid)
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

    The Morse differential is held as m x m blocks, one per point pair, and
    checked for d*d = 0 on the block products. It is reduced once onto the
    E_1 bases, block by block: a block M from point a to point b adds
    B_b^H M B_a, B the points' rows of the block cohomology bases, and the
    level 0 -> 2 slice also gets the zig-zag -D_out D_s^+ D_in through the
    pseudo-inverse of each saddle's own D (what eliminating the saddle's
    acyclic part leaves behind). The level n -> n + 1 slices are d1;
    assemble_d2 reads the level 0 -> 2 slice. No dense ambient matrix is
    formed; the anchor, the Morse operator norm, comes from block-summed
    Gram matrices. Licensed pairs with no connection default to zero; the
    warnings then hold one summary line per kind (d1, d2) with the number
    of such pairs and the first few of them. Given cohomologies are the
    caller's, for a model it has validated (total_torsion passes its own);
    without them the model is validated here.
    """
    if cohomologies is None:
        ensure_valid(model)
        cohomologies = _block_cohomologies(model.blocks, model.representation, tol_rel)
    diff = _morse_differential(model, cohomologies)
    _check_square_zero(diff, cohomologies)
    e1 = _build_e1(model, cohomologies, _morse_anchor(diff))

    warnings = [w for coh in cohomologies for w in coh.warnings]
    warnings += _missing_connection_warnings(model)

    blocks, skips = _reduced_operator(model, cohomologies, diff, e1)
    return D1Data(blocks=blocks, skips=skips, e1=e1, warnings=warnings)


def _reduced_operator(model, cohomologies, diff, e1) -> tuple:
    """The level-raising slices of E^H (D - D[:, S] h D[S, :]) E, summed
    block by block: (d1 blocks, level 0 -> 2 slices).

    Same-level blocks vanish on the E_1 bases and are skipped. Only degree
    1 -> 2 has zig-zags: h maps a saddle's z fiber to its w fiber, so they
    need a level-0 orbit into s.z and a level-2 orbit out of s.w, and they
    vanish for a saddle with D = 0.
    """
    size = e1.dims()
    blocks = {
        (level, k - level): np.zeros((size[(level + 1, k - level)], size[(level, k - level)]), dtype=complex)
        for level in range(2)
        for k in range(3)
    }
    skips = {q: np.zeros((size[(2, q - 1)], size[(0, q)]), dtype=complex) for q in range(3)}
    into, out_of = defaultdict(list), defaultdict(list)
    for (k, dst, src), mat in diff.items():
        src_level, _, src_at, src_piece = e1.points[src]
        dst_level, _, dst_at, dst_piece = e1.points[dst]
        if k == 1 and src_level == 0:
            into[dst].append((src, mat))
        if k == 1 and dst_level == 2:
            out_of[src].append((dst, mat))
        if dst_level == src_level or not (src_piece.shape[1] and dst_piece.shape[1]):
            continue
        target = blocks[(src_level, k - src_level)] if dst_level == src_level + 1 else skips[k]
        target[dst_at : dst_at + dst_piece.shape[1], src_at : src_at + src_piece.shape[1]] += (
            dst_piece.conj().T @ mat @ src_piece
        )
    if not skips[1].size:
        return blocks, skips
    for block, coh in zip(model.blocks, cohomologies):
        res = coh.rank_result
        ins, outs = into.get((block.id, "z")), out_of.get((block.id, "w"))
        if block.tier != _TIER_SADDLE or res.rank == 0 or not (ins and outs):
            continue
        # h = D^+ = V S^-1 U^H = V S^-2 (D V)^H on the kept singular pairs
        v = res.row_basis
        h = (v / res.singular_values[: res.rank] ** 2) @ (coh.D @ v).conj().T
        for dst, out_mat in outs:
            _, _, dst_at, dst_piece = e1.points[dst]
            left = dst_piece.conj().T @ out_mat @ h
            for src, in_mat in ins:
                _, _, src_at, src_piece = e1.points[src]
                skips[1][dst_at : dst_at + dst_piece.shape[1], src_at : src_at + src_piece.shape[1]] -= (
                    left @ (in_mat @ src_piece)
                )
    return blocks, skips


@dataclass
class PageTwo:
    """Second page: orthonormal bases of ker d1 / im d1 in E_1 coordinates,
    and the log-torsion of the first page relative to them."""

    bases: dict
    d1: D1Data
    log_torsion: float


def page_two(d1: D1Data, tol_rel: float = DEFAULT_TOL) -> PageTwo:
    bases, log_tau = _page_step(d1.e1.dims(), d1.blocks, 1, tol_rel, d1.e1.anchor)
    return PageTwo(bases=bases, d1=d1, log_torsion=log_tau)


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

    The first page is decided as stacks (_block_cohomologies): one walk
    over every block word, one LAPACK call for every circle's D, one each
    for the extremal blocks' D and D*. mode "fast" uses the determinant
    product prod |det D_i|^((-1)^u_i), legal only when every block is a
    circle whose D was found nonsingular at tol_rel; the log |det D_i| then
    come from one stacked LU (numpy slogdet) and are summed in model order,
    so no second rank decision is made. mode "full" runs
    the page-by-page pipeline. mode "auto" runs the full pipeline and
    cross-checks the fast product whenever it is legal; the two logs must
    agree to 1e-8.

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
    ensure_valid(model)
    with _stage("block cohomology", model):
        cohomologies = _block_cohomologies(model.blocks, model.representation, tol_rel)
    fast_legal = all(
        b.kind == CIRCLE and coh.acyclic for b, coh in zip(model.blocks, cohomologies)
    )
    if mode == "fast" and not fast_legal:
        offenders = [
            f"{b.id} ({'non-circle' if b.kind != CIRCLE else 'singular D'})"
            for b, coh in zip(model.blocks, cohomologies)
            if b.kind != CIRCLE or not coh.acyclic
        ]
        raise FastPathUnavailable(
            "fast path needs all blocks to be circles with nonsingular D; "
            "offending blocks: " + ", ".join(offenders)
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
        d1 = assemble_d1(model, cohomologies, tol_rel=tol_rel)
        page2 = page_two(d1, tol_rel=tol_rel)

    e1_dims_full = d1.e1.dims()
    e2_dims_full = {key: b.shape[1] for key, b in page2.bases.items()}
    e1_dims = {key: n for key, n in e1_dims_full.items() if n}
    e2_dims = {key: n for key, n in e2_dims_full.items() if n}

    log_d0 = math.fsum(math.log(coh.torsion_factor.modulus) for coh in cohomologies)
    tau_d0_mod = modulus_from_log(log_d0, "tau_d0")
    all_blocks_acyclic = all(coh.acyclic for coh in cohomologies)
    tau_d0 = TorsionScalar(tau_d0_mod, ACYCLIC_NOTE if all_blocks_acyclic else RELATIVE_NOTE)

    tau_d1 = TorsionScalar(modulus_from_log(page2.log_torsion, "tau_d1"), _page_note(page2.bases))

    # third page: cohomology of (E_2, d_2); levels 0 and 2 move, level 1 is stable
    with _stage("second page", model):
        d2 = {(0, q): mat for q, mat in assemble_d2(page2).items()}
        page3, log_d2 = _page_step(e2_dims_full, d2, 2, tol_rel, d1.e1.anchor)
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
