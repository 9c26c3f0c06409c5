"""Seeded inputs for the benchmark workloads, with reference values.

Generators return plain data (numpy arrays, lists, dicts), never torsflow
objects: run.py turns the data into program objects during set-up. Every
reference value is computed here with numpy and closed forms, without
calling torsflow, except the per-copy totals of two non-acyclic patterns
(see ``pattern_copies``), which run.py takes from the generic spectral
route on one copy at a time.

Reference values are natural logarithms of torsion moduli, so a result of
``inf``, ``nan`` or ``0`` can never match one.

Sizes inside one operation kind are fixed per workload: a run holds only a
few dozen operations of ~0.1-1 s each, and a mix of sizes would make the
median and the tail depend on which sizes happened to fit in the run. The
seed draws the content (unitaries, phases, words, ids, critical values,
list order, lens parameters), not the sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

LOG4 = math.log(4.0)


@dataclass
class ModelData:
    """A Bott block model as plain data, plus what the correct answer is.

    einf maps (level, q) to the expected nonzero E_infinity dimensions;
    empty means acyclic.
    """

    name: str
    dim: int
    generators: dict
    blocks: list
    connections: list
    log_ref: float
    einf: dict = field(default_factory=dict)
    fast_legal: bool = False
    copies: list = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def to_document(self) -> dict:
        """The JSON document the command line reads."""
        def matrix(a):
            return [[[float(z.real), float(z.imag)] for z in row] for row in a]

        blocks = []
        for b in self.blocks:
            doc = {"id": b["id"], "kind": b["kind"], "critical_value": b["critical_value"]}
            if b["kind"] == "circle":
                doc.update(index=b["index"], delta=b["delta"], holonomy=list(b["holonomy"]))
            else:
                doc.update(extremal=b["extremal"], alpha=list(b["alpha"]), beta=list(b["beta"]))
            blocks.append(doc)
        return {
            "representation": {
                "dim": self.dim,
                "generators": {k: matrix(v) for k, v in self.generators.items()},
            },
            "blocks": blocks,
            "connections": [
                {
                    "from": f"{src[0]}.{src[1]}",
                    "to": f"{dst[0]}.{dst[1]}",
                    "orbits": [{"sign": s, "word": list(w)} for s, w in orbits],
                }
                for src, dst, orbits in self.connections
            ],
        }


@dataclass
class LensData:
    """L(p, q) with rho(t) = V diag(zeta^a_j) V^H, zeta = exp(2 pi i / p)."""

    name: str
    p: int
    q: int
    t: np.ndarray
    log_ref: float
    dims: tuple


@dataclass
class FilteredData:
    """A d-stable filtered complex: dims, differentials, levels."""

    name: str
    dims: list
    diffs: list
    levels: list
    num_levels: int
    log_ref: float
    einf: dict = field(default_factory=dict)


@dataclass
class Workload:
    """Cases per operation kind and the share of run time each kind gets.

    cases[kind] is a list of data objects; "generic" cases are ModelData
    (their assembled Morse complex) or FilteredData. cross_route lists
    (kind, index) cases on which every legal route is run and compared.
    """

    cases: dict
    shares: dict
    cross_route: list


def rand_unitary(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _sorted_values(rng, n, lo, hi):
    return sorted(float(v) for v in rng.uniform(lo, hi, size=n))


def _circle(bid, value, index, delta, word):
    return {"id": bid, "kind": "circle", "critical_value": value, "index": index,
            "delta": delta, "holonomy": tuple(word)}


def _extremal(bid, kind, value, extremal, alpha, beta):
    return {"id": bid, "kind": kind, "critical_value": value, "extremal": extremal,
            "alpha": tuple(alpha), "beta": tuple(beta)}


# ---------------------------------------------------------------------------
# block models


def kovalevskaya(rng, k, m, name, twist):
    """k disjoint copies of the Kovalevskaya pattern in one model.

    rho(g) = -I_m. Without twist the orbits are the paper's example (w orbit
    sum I - rho(g) = 2I, z orbit sum I); with twist each copy c gets fresh
    unitaries h_c, u_c and the orbit sums become h_c (I - rho(g)) = 2 h_c and
    u_c, which keeps d*d = 0 and |det| and makes the matrices dense. Either
    way each copy contributes |tau| = 4^m, so the total is 4^(k m).
    Blocks are ordered by tier with every saddle at critical value 1.0; the
    seed permutes the copies inside each tier and draws the other critical
    values.
    """
    gens = {"g": -np.eye(m, dtype=complex)}
    mins, saddles, maxs, conns = [], [], [], []
    for c in range(k):
        w_orbits = [(1, ()), (-1, ("g",))]
        z_orbits = [(1, ())]
        if twist:
            gens[f"h{c}"] = rand_unitary(rng, m)
            gens[f"u{c}"] = rand_unitary(rng, m)
            w_orbits = [(1, (f"h{c}",)), (-1, ("g", f"h{c}"))]
            z_orbits = [(1, (f"u{c}",))]
        mins += [(f"k{c}m1", 1, ()), (f"k{c}m2", 1, ())]
        saddles += [(f"k{c}r1", -1, ("g",)), (f"k{c}r2", -1, ("g",)), (f"k{c}r3", 1, ("g",))]
        maxs += [(f"k{c}n", 1, ("g",))]
        for i in (1, 2):
            conns.append(((f"k{c}r{i}", "w"), (f"k{c}m{i}", "w"), w_orbits))
            conns.append(((f"k{c}r{i}", "z"), (f"k{c}m{i}", "z"), z_orbits))
    blocks = []
    for index, group in enumerate((mins, saddles, maxs)):
        order = rng.permutation(len(group))
        if index == 1:
            values = [1.0] * len(group)
        else:
            values = _sorted_values(rng, len(group), 1.5 * index / 2, 1.5 * index / 2 + 0.5)
        for value, j in zip(values, order):
            bid, delta, word = group[j]
            blocks.append(_circle(bid, value, index, delta, word))
    conns = [conns[j] for j in rng.permutation(len(conns))]
    return ModelData(name, m, gens, blocks, conns, log_ref=k * m * LOG4)


def all_circle(rng, n_blocks, m, name, n_gens=4, min_sigma=0.2):
    """All-circle model with invertible D = I - delta rho(word) and no
    connections, so the determinant fast path is legal.

    Reference: sum of (-1)^index log |det D| over the blocks (numpy).
    """
    names = [f"a{i}" for i in range(n_gens)]
    gens = {n: rand_unitary(rng, m) for n in names}
    counts = [n_blocks // 3, n_blocks - 2 * (n_blocks // 3), n_blocks // 3]
    blocks = []
    log_ref = 0.0
    for index, count in enumerate(counts):
        values = _sorted_values(rng, count, float(index), index + 1.0)
        for j in range(count):
            while True:
                word = []
                for _ in range(int(rng.integers(1, 4))):
                    g = names[int(rng.integers(n_gens))]
                    word.append(g if rng.random() < 0.7 else f"{g}^-1")
                delta = 1 if rng.random() < 0.5 else -1
                hol = np.eye(m, dtype=complex)
                for token in word:
                    mat = gens[token.split("^")[0]]
                    hol = hol @ (mat.conj().T if token.endswith("^-1") else mat)
                d = np.eye(m) - delta * hol
                if np.linalg.svd(d, compute_uv=False).min() >= min_sigma:
                    break
            log_ref += (-1) ** index * np.linalg.slogdet(d)[1]
            blocks.append(_circle(f"b{index}_{j}", values[j], index, delta, word))
    return ModelData(name, m, gens, blocks, [], log_ref=float(log_ref), fast_legal=True)


def _d2_fires(c, m, gens, rng):
    """Circle pattern whose second-page differential is nonzero.

    rho(g) = diag(-1, 1, -1, 1, ...) makes every orbit sum rho(w)(I + rho(g))
    rank m/2; two parallel saddles with opposite signs keep d*d = 0 and the
    direct min.z -> max.w orbit gives d2 its rank.
    """
    for s in "abcde":
        gens[f"{s}{c}"] = rand_unitary(rng, m)
    mn, s1, s2, mx = (f"p{c}min", f"p{c}s1", f"p{c}s2", f"p{c}max")

    def orbits(word, sign=1):
        return [(sign, (word,)), (sign, (word, "g"))]

    blocks = {
        0: [_circle(mn, 0.0, 0, 1, ())],
        2: [_circle(s1, 1.0, 1, 1, ()), _circle(s2, 1.0, 1, 1, ())],
        4: [_circle(mx, 2.0, 2, 1, ())],
    }
    conns = [
        ((s1, "w"), (mn, "w"), orbits(f"a{c}")),
        ((s2, "w"), (mn, "w"), orbits(f"a{c}")),
        ((mx, "w"), (s1, "w"), orbits(f"b{c}")),
        ((mx, "w"), (s2, "w"), orbits(f"b{c}", -1)),
        ((s1, "z"), (mn, "z"), orbits(f"c{c}")),
        ((s2, "z"), (mn, "z"), orbits(f"c{c}")),
        ((mx, "z"), (s1, "z"), orbits(f"d{c}")),
        ((mx, "z"), (s2, "z"), orbits(f"d{c}", -1)),
        ((mx, "w"), (mn, "z"), [(1, (f"e{c}",))]),
    ]
    einf = {(0, 0): m // 2, (1, 0): m, (1, 1): m, (2, 1): m // 2}
    return blocks, conns, einf


def _extremal_to_saddle(c, m, gens, rng, kind):
    """Minimum torus or Klein bottle feeding a degenerate saddle.

    The beta holonomy makes the intra-block maps vanish through the
    kind-specific sign (rho(f) = -I for the Klein bottle), so any unitary
    orbit sums keep d*d = 0. Closed form: |tau| = 2^(-m/2),
    E_inf = m at (0, 1) and (0, 2).
    """
    for s in ("g1", "g3", "g4"):
        gens[f"{s}_{kind}{c}"] = rand_unitary(rng, m)
    t, s = f"x{kind}{c}", f"x{kind}{c}s"
    beta = () if kind == "torus" else ("f",)
    blocks = {1: [_extremal(t, kind, 0.0, "min", (), beta)], 2: [_circle(s, 1.0, 1, 1, ())]}
    conns = [
        ((s, "w"), (t, "p"), [(1, (f"g1_{kind}{c}",))]),
        ((s, "z"), (t, "q"), [(1, (f"g3_{kind}{c}",))]),
        ((s, "z"), (t, "r"), [(1, (f"g4_{kind}{c}",))]),
    ]
    return blocks, conns, {(0, 1): m, (0, 2): m}


def _d2_quotient_target(c, m, gens, rng):
    """Min circle -> max torus d2 components while the saddle feeds the torus
    through d1, so the second-page target is a real quotient."""
    for s in ("g3", "g4", "g5", "g6", "g7", "g8"):
        gens[f"{s}_q{c}"] = rand_unitary(rng, m)
    cc, s, t = f"q{c}c", f"q{c}s", f"q{c}T"
    blocks = {
        0: [_circle(cc, 0.0, 0, 1, ())],
        2: [_circle(s, 1.0, 1, 1, ())],
        3: [_extremal(t, "torus", 2.0, "max", (), ())],
    }
    conns = [
        ((t, "q"), (s, "w"), [(1, (f"g3_q{c}",))]),
        ((t, "r"), (s, "w"), [(1, (f"g4_q{c}",))]),
        ((t, "s"), (s, "z"), [(1, (f"g5_q{c}",))]),
        ((t, "p"), (cc, "w"), [(1, (f"g6_q{c}",))]),
        ((t, "q"), (cc, "z"), [(1, (f"g7_q{c}",))]),
        ((t, "r"), (cc, "z"), [(1, (f"g8_q{c}",))]),
    ]
    return blocks, conns, {}


PATTERNS = (
    ("d2-fires", _d2_fires),
    ("torus-to-saddle", lambda c, m, g, r: _extremal_to_saddle(c, m, g, r, "torus")),
    ("klein-to-saddle", lambda c, m, g, r: _extremal_to_saddle(c, m, g, r, "klein")),
    ("d2-quotient-target", _d2_quotient_target),
)


def pattern_copies(rng, k, m, name):
    """k copies of each non-acyclic test pattern, merged into one model.

    Torsion is multiplicative over disjoint unions and E_inf is additive,
    so the reference is the sum of the copies' log totals. ``copies`` holds
    one one-copy model per pattern copy; a copy's log_ref is a closed form
    where one is known and nan where the caller must supply it.
    """
    gens = {"g": np.diag([(-1.0) ** (i + 1) for i in range(m)]).astype(complex),
            "f": -np.eye(m, dtype=complex)}
    tiers: dict = {t: [] for t in range(5)}
    conns: list = []
    einf: dict = {}
    copies = []
    for c in range(k):
        for pname, make in PATTERNS:
            own: dict = {"g": gens["g"], "f": gens["f"]}
            blocks, pconns, pinf = make(c, m, own, rng)
            gens.update(own)
            for tier, bs in blocks.items():
                tiers[tier].extend(bs)
            conns.extend(pconns)
            for key, v in pinf.items():
                einf[key] = einf.get(key, 0) + v
            copy_blocks = [b for t in range(5) for b in blocks.get(t, [])]
            closed = -(m / 2) * math.log(2.0) if pname.endswith("-to-saddle") else math.nan
            copies.append(ModelData(f"{pname}#{c}", m, own, copy_blocks, pconns,
                                    log_ref=closed, einf=pinf))
    blocks = [b for t in range(5) for b in tiers[t]]
    conns = [conns[j] for j in rng.permutation(len(conns))]
    return ModelData(name, m, gens, blocks, conns, log_ref=math.nan, einf=einf, copies=copies)


# ---------------------------------------------------------------------------
# CW oracle inputs


def lens(rng, p, m, name, ones=0, q=None):
    """L(p, q) with a random unitary conjugate of diag(zeta^a_j).

    `ones` eigenvalues equal 1 (a_j = 0), which makes the complex
    non-acyclic. Reference per eigenvalue zeta^a: |zeta^a - 1| |zeta^(a q*) - 1|
    for a != 0 (q q* = 1 mod p), and 1/p relative to the harmonic basis for
    a = 0; the cohomology is one dimension in degrees 0 and 3 per a = 0.
    """
    if q is None:
        units = [x for x in range(1, p) if math.gcd(x, p) == 1]
        q = int(units[int(rng.integers(len(units)))])
    qstar = pow(q, -1, p)
    a = [0] * ones + [int(x) for x in rng.integers(1, p, size=m - ones)]
    zeta = np.exp(2j * np.pi / p)
    log_ref = -ones * math.log(p)
    for x in a[ones:]:
        log_ref += math.log(abs(zeta ** x - 1)) + math.log(abs(zeta ** (x * qstar % p) - 1))
    v = rand_unitary(rng, m)
    t = v @ np.diag(zeta ** np.array(a)) @ v.conj().T
    return LensData(name, p, q, t, log_ref, (ones, 0, 0, ones))


def random_acyclic_filtered(rng, pairs, num_levels, name):
    """Acyclic d-stable filtered complex in degrees 0..3.

    pairs[i] elementary arrows run from degree i to i + 1 with complex
    weights w, each from a coordinate of level s to one of level >= s; the
    differentials are then conjugated by filtered automorphisms g_i (the
    identity plus small noise on entries that keep levels). Reference:
    log |tau| = sum (-1)^i log|w| over arrows out of degree i
              + sum (-1)^(i+1) log|det g_i|.
    """
    dims = [pairs[0], pairs[0] + pairs[1], pairs[1] + pairs[2], pairs[2]]
    levels = [np.zeros(n, dtype=int) for n in dims]
    perm = [rng.permutation(n) for n in dims]
    fill = [0] * 4
    diffs = [np.zeros((dims[i + 1], dims[i]), dtype=complex) for i in range(3)]
    log_ref = 0.0
    for i in range(3):
        for _ in range(pairs[i]):
            src = int(perm[i][fill[i]])
            dst = int(perm[i + 1][fill[i + 1]])
            fill[i] += 1
            fill[i + 1] += 1
            lo = int(rng.integers(num_levels))
            levels[i][src] = lo
            levels[i + 1][dst] = int(rng.integers(lo, num_levels))
            w = complex(rng.standard_normal(), rng.standard_normal())
            if abs(w) < 0.3:
                w += 1.5
            diffs[i][dst, src] = w
            log_ref += (-1) ** i * math.log(abs(w))
    gs = []
    for i, n in enumerate(dims):
        noise = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * (0.3 / math.sqrt(n))
        allowed = (levels[i][:, None] >= levels[i][None, :]) & ~np.eye(n, dtype=bool)
        g = np.eye(n, dtype=complex) + np.where(allowed, noise, 0)
        gs.append(g)
        log_ref += (-1) ** (i + 1) * np.linalg.slogdet(g)[1]
    mixed = [gs[i + 1] @ diffs[i] @ np.linalg.inv(gs[i]) for i in range(3)]
    return FilteredData(name, dims, mixed, levels, num_levels, float(log_ref))


# ---------------------------------------------------------------------------
# the four workloads


def many_blocks(rng):
    """Python bookkeeping in bott: many tiny blocks (m = 1)."""
    kov = [kovalevskaya(rng, 24, 1, f"kov24x1#{i}", twist=False) for i in range(3)]
    circles = [all_circle(rng, 144, 1, f"circles144x1#{i}") for i in range(3)]
    return Workload(
        cases={
            "solve": kov,
            "cli": kov,
            "generic": kov,
            "fast": circles,
            "oracle": [_rp3_minus(1)],
        },
        shares={"solve": 0.45, "cli": 0.30, "generic": 0.15, "fast": 0.05, "oracle": 0.05},
        cross_route=[("solve", 0), ("fast", 0)],
    )


def _rp3_minus(m):
    """RP^3 = L(2, 1) with rho(t) = -I_m: the CW counterpart of one
    Kovalevskaya copy, |tau| = 4^m."""
    return LensData(f"rp3-minus-I{m}", 2, 1, -np.eye(m, dtype=complex), m * LOG4, (0, 0, 0, 0))


def wide_fiber(rng):
    """Dense linear algebra: few blocks, fiber dimension 32."""
    kov = [kovalevskaya(rng, 3, 32, f"kov3x32#{i}", twist=True) for i in range(3)]
    small = [kovalevskaya(rng, 1, 16, f"kov1x16#{i}", twist=True) for i in range(3)]
    circles = [all_circle(rng, 12, 32, f"circles12x32#{i}") for i in range(3)]
    return Workload(
        cases={
            "solve": kov,
            "cli": kov,
            "generic": small,
            "fast": circles,
            "oracle": [_rp3_minus(32)],
        },
        shares={"solve": 0.45, "cli": 0.25, "generic": 0.15, "fast": 0.10, "oracle": 0.05},
        cross_route=[("generic", 0), ("fast", 0)],
    )


def nonacyclic(rng):
    """Nonzero E2 and E_inf: page two, d2, the page-3 loop, harmonic kernels."""
    models = [pattern_copies(rng, 4, 4, f"patterns4x4#{i}") for i in range(3)]
    small = [pattern_copies(rng, 1, 2, f"patterns1x2#{i}") for i in range(3)]
    circles = [all_circle(rng, 44, 4, f"circles44x4#{i}") for i in range(3)]
    lenses = [lens(rng, 31, 4, f"lens31x4#{i}", ones=2) for i in range(4)]
    return Workload(
        cases={
            "solve": models,
            "cli": models,
            "generic": small,
            "fast": circles,
            "oracle": lenses,
        },
        shares={"solve": 0.40, "cli": 0.20, "generic": 0.20, "fast": 0.05, "oracle": 0.15},
        cross_route=[("generic", 0), ("generic", 1), ("fast", 0)],
    )


def oracle(rng):
    """The generic spectral route and the CW oracle at moderate size."""
    kov = [kovalevskaya(rng, 8, 4, f"kov8x4#{i}", twist=True) for i in range(2)]
    fcs = [random_acyclic_filtered(rng, (40, 80, 40), 3, f"filtered#{i}") for i in range(2)]
    lenses = [lens(rng, 97, 48, f"lens97x48#{i}", ones=(i % 2) * 3) for i in range(4)]
    circles = [all_circle(rng, 48, 4, f"circles48x4#{i}") for i in range(3)]
    return Workload(
        cases={
            "solve": kov,
            "cli": kov,
            "generic": [kov[0], fcs[0], kov[1], fcs[1]],
            "fast": circles,
            "oracle": lenses,
        },
        shares={"solve": 0.15, "cli": 0.10, "generic": 0.35, "fast": 0.05, "oracle": 0.35},
        cross_route=[("solve", 0), ("fast", 0)],
    )


WORKLOADS = {"many-blocks": many_blocks, "wide-fiber": wide_fiber,
             "nonacyclic": nonacyclic, "oracle": oracle}
NAMES = tuple(WORKLOADS)


def generate(name: str, seed: int) -> Workload:
    """The workload's inputs; the same seed gives the same inputs."""
    return WORKLOADS[name](np.random.default_rng([seed, NAMES.index(name)]))
