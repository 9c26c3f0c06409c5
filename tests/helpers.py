"""Shared random generators for the test suite (all seeded by the caller)."""
import numpy as np

from torsflow import (
    BasedComplex,
    BottModel,
    CriticalBlock,
    FilteredComplex,
    Representation,
)


def kovalevskaya_model(rep=None):
    """Rigid-body example: two minimal circles with trivial holonomy, two
    nonorientable and one orientable saddle, one maximal circle, all
    nontrivial holonomies equal to the generator g; two orbits join each
    minimal circle to its saddle (w components summing to 2, z to 1)."""
    from torsflow import GradientConnection, Orbit

    if rep is None:
        rep = Representation(1, {"g": [[-1.0]]})
    blocks = (
        CriticalBlock("m1", "circle", 0.0, index=0, delta=+1, holonomy=()),
        CriticalBlock("m2", "circle", 0.0, index=0, delta=+1, holonomy=()),
        CriticalBlock("r1", "circle", 1.0, index=1, delta=-1, holonomy=("g",)),
        CriticalBlock("r2", "circle", 1.0, index=1, delta=-1, holonomy=("g",)),
        CriticalBlock("r3", "circle", 2.0, index=1, delta=+1, holonomy=("g",)),
        CriticalBlock("n", "circle", 3.0, index=2, delta=+1, holonomy=("g",)),
    )
    connections = (
        GradientConnection(("r1", "w"), ("m1", "w"), (Orbit(+1, ()), Orbit(-1, ("g",)))),
        GradientConnection(("r2", "w"), ("m2", "w"), (Orbit(+1, ()), Orbit(-1, ("g",)))),
        GradientConnection(("r1", "z"), ("m1", "z"), (Orbit(+1, ()),)),
        GradientConnection(("r2", "z"), ("m2", "z"), (Orbit(+1, ()),)),
    )
    return BottModel(rep, blocks, connections)


def kovalevskaya_replica(k, m):
    """k disjoint copies of the Kovalevskaya pattern in one model, with
    rho(g) = -I_m, blocks ordered by tier; each copy has |tau| = 4^m."""
    from torsflow import GradientConnection, Orbit

    rep = Representation(m, {"g": -np.eye(m)})
    tiers = ([], [], [])
    connections = []
    for c in range(k):
        for i in (1, 2):
            tiers[0].append(CriticalBlock(f"k{c}m{i}", "circle", 0.0, index=0, delta=+1, holonomy=()))
            tiers[1].append(CriticalBlock(f"k{c}r{i}", "circle", 1.0, index=1, delta=-1, holonomy=("g",)))
            connections += [
                GradientConnection((f"k{c}r{i}", "w"), (f"k{c}m{i}", "w"), (Orbit(+1, ()), Orbit(-1, ("g",)))),
                GradientConnection((f"k{c}r{i}", "z"), (f"k{c}m{i}", "z"), (Orbit(+1, ()),)),
            ]
        tiers[1].append(CriticalBlock(f"k{c}r3", "circle", 1.0, index=1, delta=+1, holonomy=("g",)))
        tiers[2].append(CriticalBlock(f"k{c}n", "circle", 3.0, index=2, delta=+1, holonomy=("g",)))
    return BottModel(rep, tuple(tiers[0] + tiers[1] + tiers[2]), tuple(connections))


def word_fold(rep, word):
    """Reference rho(word): a plain left-to-right fold of the generator
    matrices, independent of Representation's prefix walk."""
    out = rep.identity()
    for token in word:
        out = out @ rep.token_matrix(token)
    return out


def lens_bott_model(p, q, rep):
    """Smallest Bott model with isoenergy surface the lens space L(p, q).

    A minimum circle m (index 0, delta = +1, holonomy t) and a maximum
    circle n (index 2, delta = +1, holonomy t^r) with r = q^-1 mod p, the
    exponent of lens_space's del_3 = t^(q*) - 1, joined by one connection
    n.w -> m.z with p orbits of sign +1 and words t^0 .. t^(p-1). rep must
    send t to a matrix whose p-th power is the identity.
    """
    from torsflow import GradientConnection, Orbit

    r = pow(q % p, -1, p)
    blocks = (
        CriticalBlock("m", "circle", 0.0, index=0, delta=+1, holonomy=("t",)),
        CriticalBlock("n", "circle", 1.0, index=2, delta=+1, holonomy=("t",) * r),
    )
    orbits = tuple(Orbit(+1, ("t",) * k) for k in range(p))
    return BottModel(rep, blocks, (GradientConnection(("n", "w"), ("m", "z"), orbits),))


def lens_rep(rng, p, m, ones=0):
    """rho(t) = V diag(zeta^a_j) V^H with `ones` exponents a_j = 0."""
    a = np.concatenate([np.zeros(ones, dtype=int), rng.integers(1, p, size=m - ones)])
    v = rand_unitary(rng, m)
    t = v @ np.diag(np.exp(2j * np.pi * a / p)) @ v.conj().T
    return Representation(m, {"t": t}), a


def rand_unitary(rng, m):
    """Haar-ish random unitary via QR with phase correction."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_based_complex(rng, dims):
    """Random complex via image projection: d_{i+1} := R (I - P_im(d_i)).

    The projections can cancel a differential down to rounding noise, so
    the complex carries a unit rank anchor like the library's assemblers.
    """
    diffs = []
    prev = None
    for i in range(len(dims) - 1):
        r = rand_complex_matrix(rng, dims[i + 1], dims[i])
        if prev is not None and prev.size:
            u, s, _ = np.linalg.svd(prev)
            rank = int((s > 1e-10 * max(prev.shape) * s[0]).sum()) if s.size and s[0] > 0 else 0
            im = u[:, :rank]
            r = r @ (np.eye(dims[i]) - im @ im.conj().T)
        diffs.append(r)
        prev = r
    anchor = max([1.0] + [float(np.linalg.norm(d, 2)) for d in diffs if d.size])
    return BasedComplex(dims, diffs, rank_scale=anchor)


def random_acyclic_complex(rng, length=3, max_pair=3):
    """Acyclic complex built from elementary paired coordinates, then mixed
    by a change of basis in each degree (torsion stays basis-relative)."""
    pairs = [int(rng.integers(1, max_pair + 1)) for _ in range(length)]
    dims = [pairs[0]]
    for i in range(1, length):
        dims.append(pairs[i - 1] + pairs[i])
    dims.append(pairs[-1])
    diffs = []
    for i in range(length):
        d = np.zeros((dims[i + 1], dims[i]), dtype=complex)
        prev = pairs[i - 1] if i > 0 else 0
        for j in range(pairs[i]):
            w = rng.standard_normal() + 1j * rng.standard_normal()
            if abs(w) < 0.3:
                w += 1.5
            d[j, prev + j] = w
        diffs.append(d)
    gs = []
    for n in dims:
        g = np.eye(n, dtype=complex)
        if n:
            g = g + 0.3 * rand_complex_matrix(rng, n, n)
        gs.append(g)
    mixed = [gs[i + 1] @ diffs[i] @ np.linalg.inv(gs[i]) for i in range(length)]
    return BasedComplex(dims, mixed)


def random_filtered_complex(rng, num_levels=3, max_degree=3, max_dim=8, density=0.7):
    """d-stable filtered complex: elementary level-compatible arrows,
    conjugated by a random filtered automorphism."""
    dims = [int(rng.integers(0, max_dim + 1)) for _ in range(max_degree + 1)]
    levels = [rng.integers(0, num_levels, size=d) for d in dims]
    diffs = [np.zeros((dims[i + 1], dims[i]), dtype=complex) for i in range(max_degree)]
    used_src = [set() for _ in dims]
    used_tgt = [set() for _ in dims]
    for i in range(max_degree):
        for a in range(dims[i]):
            if a in used_tgt[i] or rng.random() > density:
                continue
            cands = [
                b
                for b in range(dims[i + 1])
                if b not in used_src[i + 1]
                and b not in used_tgt[i + 1]
                and levels[i + 1][b] >= levels[i][a]
            ]
            if not cands:
                continue
            b = cands[int(rng.integers(len(cands)))]
            w = rng.standard_normal() + 1j * rng.standard_normal()
            if abs(w) < 0.3:
                w += 2.0
            diffs[i][b, a] = w
            used_src[i].add(a)
            used_tgt[i + 1].add(b)
    return _filtered_conjugate(rng, dims, levels, diffs, num_levels)


def random_acyclic_filtered_complex(rng, num_levels=3, max_degree=3, max_pairs=3):
    """Acyclic d-stable filtered complex: every coordinate sits in one
    level-compatible arrow, conjugated by a random filtered automorphism."""
    pairs = [int(rng.integers(0, max_pairs + 1)) for _ in range(max_degree)]
    dims = [0] * (max_degree + 1)
    arrows = []
    for i, count in enumerate(pairs):
        for _ in range(count):
            lo = int(rng.integers(0, num_levels))
            hi = int(rng.integers(lo, num_levels))
            arrows.append((i, dims[i], dims[i + 1], lo, hi))
            dims[i] += 1
            dims[i + 1] += 1
    levels = [np.zeros(d, dtype=int) for d in dims]
    diffs = [np.zeros((dims[i + 1], dims[i]), dtype=complex) for i in range(max_degree)]
    for i, a, b, lo, hi in arrows:
        levels[i][a], levels[i + 1][b] = lo, hi
        w = rng.standard_normal() + 1j * rng.standard_normal()
        diffs[i][b, a] = w + 2.0 if abs(w) < 0.3 else w
    return _filtered_conjugate(rng, dims, levels, diffs, num_levels)


def _filtered_conjugate(rng, dims, levels, diffs, num_levels):
    gs = []
    for i, d in enumerate(dims):
        g = np.eye(d, dtype=complex)
        if d:
            noise = 0.3 * rand_complex_matrix(rng, d, d)
            allowed = levels[i][:, None] >= levels[i][None, :]
            g = g + np.where(allowed, noise, 0) * (1 - np.eye(d))
        gs.append(g)
    mixed = [gs[i + 1] @ diffs[i] @ np.linalg.inv(gs[i]) for i in range(len(diffs))]
    return FilteredComplex(BasedComplex(dims, mixed), levels, num_levels)


def random_ses(rng, dims_sub, dims_quot):
    """Short exact sequence with assembled bases and a random coupling."""
    sub = random_based_complex(rng, dims_sub)
    quot = random_based_complex(rng, dims_quot)
    ys = [rand_complex_matrix(rng, ds, dq) for ds, dq in zip(dims_sub, dims_quot)]
    dims_total = [ds + dq for ds, dq in zip(dims_sub, dims_quot)]
    diffs = []
    for i in range(len(dims_sub) - 1):
        x = sub.diff(i) @ ys[i] - ys[i + 1] @ quot.diff(i)
        diffs.append(
            np.block(
                [
                    [sub.diff(i), x],
                    [np.zeros((dims_quot[i + 1], dims_sub[i])), quot.diff(i)],
                ]
            )
        )
    anchor = max([1.0] + [float(np.linalg.norm(d, 2)) for d in diffs if d.size])
    total = BasedComplex(dims_total, diffs, rank_scale=anchor)
    inclusion = [
        np.vstack([np.eye(ds, dtype=complex), np.zeros((dq, ds))])
        for ds, dq in zip(dims_sub, dims_quot)
    ]
    projection = [
        np.hstack([np.zeros((dq, ds)), np.eye(dq, dtype=complex)])
        for ds, dq in zip(dims_sub, dims_quot)
    ]
    return sub, total, quot, inclusion, projection


def random_word(rng, names, max_len=3):
    word = []
    for _ in range(int(rng.integers(0, max_len + 1))):
        name = names[int(rng.integers(len(names)))]
        word.append(name if rng.random() < 0.7 else f"{name}^-1")
    return tuple(word)


def random_circle_model(rng, m=None, nonsingular=True):
    """All-circle model with random unitary holonomies and random deltas.

    With nonsingular=True every block has invertible D (resampled until
    so), making the determinant fast path legal.
    """
    m = m if m is not None else int(rng.integers(1, 4))
    names = [f"g{i}" for i in range(int(rng.integers(1, 3)))]
    rep = Representation(m, {name: rand_unitary(rng, m) for name in names})
    blocks = []
    counts = [int(rng.integers(1, 3)), int(rng.integers(0, 3)), int(rng.integers(1, 3))]
    value = 0.0
    for index, count in enumerate(counts):
        for j in range(count):
            for _ in range(64):
                delta = 1 if rng.random() < 0.5 else -1
                word = random_word(rng, names)
                d = np.eye(m) - delta * rep.evaluate(word)
                s = np.linalg.svd(d, compute_uv=False)
                if not nonsingular or (s.size and s.min() > 1e-6):
                    break
            blocks.append(
                CriticalBlock(
                    f"b{index}{j}",
                    "circle",
                    critical_value=value,
                    index=index,
                    delta=delta,
                    holonomy=word,
                )
            )
            value += 1.0
    return BottModel(rep, tuple(blocks), ())


def stacked_kernel(rows, scale):
    """Reference for the library's subspaces (filtration cocycles, harmonic
    cohomology, the extremal block's middle degree): the kernel of the row
    blocks stacked into one matrix, from one rank decision at `scale`."""
    from torsflow.linalg import rank_nullspace

    return rank_nullspace(np.concatenate(rows, axis=0), scale=scale).kernel_basis


def assert_same_span(got, want, tol=1e-10):
    """Orthonormal column bases of one subspace: equal dimension and equal
    orthogonal projector."""
    assert got.shape == want.shape
    assert np.abs(got @ got.conj().T - want @ want.conj().T).max(initial=0.0) <= tol


def model_document(model):
    """The model as the JSON document `torsflow compute --input` reads."""

    def matrix(a):
        return [[[z.real, z.imag] for z in row] for row in np.asarray(a, dtype=complex).tolist()]

    blocks = []
    for b in model.blocks:
        doc = {"id": b.id, "kind": b.kind, "critical_value": b.critical_value}
        if b.kind == "circle":
            doc.update(index=b.index, delta=b.delta, holonomy=list(b.holonomy))
        else:
            doc.update(extremal=b.extremal, alpha=list(b.alpha), beta=list(b.beta))
        blocks.append(doc)
    rep = model.representation
    return {
        "representation": {"dim": rep.dim, "generators": {n: matrix(g) for n, g in rep.generators.items()}},
        "blocks": blocks,
        "connections": [
            {
                "from": ".".join(c.from_point),
                "to": ".".join(c.to_point),
                "orbits": [{"sign": o.sign, "word": list(o.word)} for o in c.orbits],
            }
            for c in model.connections
        ],
    }


def extremal_to_saddle_model(rng, kind):
    """Min torus / Klein bottle feeding a degenerate saddle, m = 2: the beta
    holonomy is chosen so the intra-block maps vanish through the
    kind-specific sign (I - rho(beta) for the torus, I + rho(beta) for the
    Klein bottle), so arbitrary unitary orbit sums keep d*d = 0 while the
    first-page differential runs through the block's kernel and middle
    cohomology. Returns the model and the p -> s.w orbit holonomy."""
    from torsflow import GradientConnection, Orbit

    m = 2
    beta_word = () if kind == "torus" else ("f",)
    u1, u3, u4 = (rand_unitary(rng, m) for _ in range(3))
    rep = Representation(m, {"g1": u1, "g3": u3, "g4": u4, "f": -np.eye(m)})
    blocks = (
        CriticalBlock("T", kind, 0.0, extremal="min", alpha=(), beta=beta_word),
        CriticalBlock("s", "circle", 1.0, index=1, delta=+1, holonomy=()),
    )
    conns = (
        GradientConnection(("s", "w"), ("T", "p"), (Orbit(1, ("g1",)),)),
        GradientConnection(("s", "z"), ("T", "q"), (Orbit(1, ("g3",)),)),
        GradientConnection(("s", "z"), ("T", "r"), (Orbit(1, ("g4",)),)),
    )
    return BottModel(rep, blocks, conns), u1


def quotient_target_model(rng, m=2):
    """Min circle -> max torus d2 components while the saddle feeds the
    torus through d1, so the second-page target is a real quotient."""
    from torsflow import GradientConnection, Orbit

    mats = {name: rand_unitary(rng, m) for name in ("g3", "g4", "g5", "g6", "g7", "g8")}
    blocks = (
        CriticalBlock("c", "circle", 0.0, index=0, delta=+1, holonomy=()),
        CriticalBlock("s", "circle", 1.0, index=1, delta=+1, holonomy=()),
        CriticalBlock("T", "torus", 2.0, extremal="max", alpha=(), beta=()),
    )
    conns = (
        GradientConnection(("T", "q"), ("s", "w"), (Orbit(1, ("g3",)),)),
        GradientConnection(("T", "r"), ("s", "w"), (Orbit(1, ("g4",)),)),
        GradientConnection(("T", "s"), ("s", "z"), (Orbit(1, ("g5",)),)),
        GradientConnection(("T", "p"), ("c", "w"), (Orbit(1, ("g6",)),)),
        GradientConnection(("T", "q"), ("c", "z"), (Orbit(1, ("g7",)),)),
        GradientConnection(("T", "r"), ("c", "z"), (Orbit(1, ("g8",)),)),
    )
    return BottModel(Representation(m, mats), blocks, conns)


def d2_fires_model(rng):
    """Rank-deficient orbit sums G = rho(w)(I + rho(g)) leave kernels on the
    first page, two parallel saddles with opposite signs keep d*d = 0, and
    the direct min.z -> max.w orbit gives a nonzero second-page
    differential (m = 2)."""
    from torsflow import GradientConnection, Orbit

    m = 2
    a, b, c, d, e = (rand_unitary(rng, m) for _ in range(5))
    g = np.diag([-1.0, 1.0])
    rep = Representation(m, {"a": a, "b": b, "c": c, "d": d, "e": e, "g": g})
    blocks = (
        CriticalBlock("min", "circle", 0.0, index=0, delta=+1, holonomy=()),
        CriticalBlock("s1", "circle", 1.0, index=1, delta=+1, holonomy=()),
        CriticalBlock("s2", "circle", 1.0, index=1, delta=+1, holonomy=()),
        CriticalBlock("max", "circle", 2.0, index=2, delta=+1, holonomy=()),
    )

    def orbits(word, sign=1):
        return (Orbit(sign, (word,)), Orbit(sign, (word, "g")))

    conns = (
        GradientConnection(("s1", "w"), ("min", "w"), orbits("a")),
        GradientConnection(("s2", "w"), ("min", "w"), orbits("a")),
        GradientConnection(("max", "w"), ("s1", "w"), orbits("b")),
        GradientConnection(("max", "w"), ("s2", "w"), orbits("b", -1)),
        GradientConnection(("s1", "z"), ("min", "z"), orbits("c")),
        GradientConnection(("s2", "z"), ("min", "z"), orbits("c")),
        GradientConnection(("max", "z"), ("s1", "z"), orbits("d")),
        GradientConnection(("max", "z"), ("s2", "z"), orbits("d", -1)),
        GradientConnection(("max", "w"), ("min", "z"), (Orbit(+1, ("e",)),)),
    )
    return BottModel(rep, blocks, conns)


def zigzag_model(rng, m):
    """c.z -u-> s.z, s.w -v-> n.w and c.z -e-> n.w with an invertible saddle
    block D_s = 2I: eliminating the saddle leaves d2 = e - v D_s^-1 u on
    E_2^(0,1) -> E_2^(2,0), not the bare e (three circles)."""
    from torsflow import GradientConnection, Orbit

    gens = {name: np.eye(1) if m == 1 else rand_unitary(rng, m) for name in ("u", "v", "e")}
    blocks = (
        CriticalBlock("c", "circle", 0.0, index=0, delta=+1, holonomy=()),
        CriticalBlock("s", "circle", 1.0, index=1, delta=-1, holonomy=()),
        CriticalBlock("n", "circle", 2.0, index=2, delta=+1, holonomy=()),
    )
    conns = (
        GradientConnection(("s", "z"), ("c", "z"), (Orbit(1, ("u",)),)),
        GradientConnection(("n", "w"), ("s", "w"), (Orbit(1, ("v",)),)),
        GradientConnection(("n", "w"), ("c", "z"), (Orbit(1, ("e",)),)),
    )
    return BottModel(Representation(m, gens), blocks, conns)


def acyclic_zigzag_model(rng):
    """The zig-zag of zigzag_model with the outer classes killed by d1
    through a second, degenerate saddle (four circles, m = 2): the total is
    canonical."""
    from torsflow import GradientConnection, Orbit

    m = 2
    gens = {name: rand_unitary(rng, m) for name in ("a", "b", "e", "u", "v")}
    blocks = (
        CriticalBlock("c", "circle", 0.0, index=0, delta=+1, holonomy=()),
        CriticalBlock("s1", "circle", 1.0, index=1, delta=+1, holonomy=()),
        CriticalBlock("s2", "circle", 1.0, index=1, delta=-1, holonomy=()),
        CriticalBlock("n", "circle", 2.0, index=2, delta=+1, holonomy=()),
    )
    conns = (
        GradientConnection(("s1", "w"), ("c", "w"), (Orbit(1, ("a",)),)),
        GradientConnection(("s2", "z"), ("c", "z"), (Orbit(1, ("u",)),)),
        GradientConnection(("n", "w"), ("s2", "w"), (Orbit(1, ("v",)),)),
        GradientConnection(("n", "w"), ("c", "z"), (Orbit(1, ("e",)),)),
        GradientConnection(("n", "z"), ("s1", "z"), (Orbit(1, ("b",)),)),
    )
    return BottModel(Representation(m, gens), blocks, conns)


def disjoint_union(models, rng):
    """One model holding the blocks and connections of every model (all of
    one fiber dimension), its isoenergy surface their disjoint union: copy
    c prefixes its block ids and generator names with "c<c>_". The blocks
    are shuffled within each tier, so the copies interleave in model order,
    and each block's critical value becomes its tier."""
    from dataclasses import replace

    from torsflow import GradientConnection, Orbit

    gens, blocks, conns = {}, [], []
    for c, model in enumerate(models):
        prefix = f"c{c}_"

        def word(tokens):
            return tuple(prefix + token for token in tokens)

        gens.update({prefix + name: mat for name, mat in model.representation.generators.items()})
        for b in model.blocks:
            blocks.append(
                replace(b, id=prefix + b.id, critical_value=float(b.tier), holonomy=word(b.holonomy),
                        alpha=word(b.alpha), beta=word(b.beta))
            )
        for conn in model.connections:
            conns.append(
                GradientConnection(
                    (prefix + conn.from_point[0], conn.from_point[1]),
                    (prefix + conn.to_point[0], conn.to_point[1]),
                    tuple(Orbit(o.sign, word(o.word)) for o in conn.orbits),
                )
            )
    order = rng.permutation(len(blocks))
    blocks = sorted((blocks[j] for j in order), key=lambda b: b.tier)
    return BottModel(Representation(models[0].representation.dim, gens), tuple(blocks), tuple(conns))


def e1_ambient(model, e1):
    """The orthonormal E_1 bases in ambient coordinates: entry k is (dim of
    Morse degree k) x (page dimension of degree k), its columns laid out as
    e1.cols. Block j's degree-k basis (block_cohomology, deterministic)
    fills e1.width[j, k] columns from e1.offset[j, k] on, its rows the
    fibers of the block's index-k points in label order."""
    from torsflow import block_cohomology
    from torsflow.bott import expand_morse

    morse = expand_morse(model)
    m = model.representation.dim
    out = [np.zeros((m * len(morse.points[k]), e1.cols[(2, k)].stop), dtype=complex) for k in range(4)]
    for j, block in enumerate(model.blocks):
        bases = block_cohomology(block, model.representation).bases
        for k, basis in bases.items():
            assert basis.shape[1] == e1.width[j, k]
            start = e1.cols[(block.level, k)].start + e1.offset[j, k]
            labels = [label for label in block.labels() if block.point_index(label) == k]
            for n, label in enumerate(labels):
                _, rows = morse.fiber(m, block.id, label)
                out[k][rows, start : start + basis.shape[1]] = basis[n * m : (n + 1) * m]
    return out


def e1_basis(model, e1):
    """basis[(level, k)]: the ambient basis of E_1 at that slot."""
    ambient = e1_ambient(model, e1)
    return {(level, k): ambient[k][:, s] for (level, k), s in e1.cols.items()}


def dense_reduced_operator(model, d1):
    """Reference for the block-built reduced operator: on the dense
    assembled Morse complex, E_{k+1}^H (D_k - D_k[:, S] h D_k[S, :]) E_k for
    k = 0, 1, 2, with E the ambient E_1 bases of d1 and h the pseudo-inverse
    of each saddle's D on the zig-zags level 0 -> s.z, s.w -> level 2."""
    from torsflow import assemble_complex, block_cohomology
    from torsflow.bott import expand_morse

    morse = expand_morse(model)
    # block_cohomology is deterministic: these are the cohomologies d1 was built on
    cohomologies = [block_cohomology(b, model.representation) for b in model.blocks]
    base = assemble_complex(model, cohomologies).base
    amb = e1_ambient(model, d1.e1)
    reduced = [amb[k + 1].conj().T @ base.diff(k) @ amb[k] for k in range(3)]
    src, tgt = d1.e1.cols[(0, 1)], d1.e1.cols[(2, 2)]
    if src.start == src.stop or tgt.start == tgt.stop:
        return reduced
    fed = {conn.from_point[0] for conn in model.connections if conn.from_point[1] == "z"}
    through = fed & {conn.to_point[0] for conn in model.connections if conn.to_point[1] == "w"}
    d = base.diff(1)
    m = model.representation.dim
    for block, coh in zip(model.blocks, cohomologies):
        if block.kind != "circle" or block.index != 1 or block.id not in through:
            continue
        res = coh.rank_result
        if res.rank == 0:
            continue
        v = res.row_basis
        h = (v / res.singular_values[: res.rank] ** 2) @ (coh.D @ v).conj().T
        _, w = morse.fiber(m, block.id, "w")
        _, z = morse.fiber(m, block.id, "z")
        reduced[1][tgt, src] -= (amb[2][:, tgt].conj().T @ d[:, w]) @ h @ (d[z, :] @ amb[1][:, src])
    return reduced


def reference_layout(model):
    """bott's model layout read off the blocks' own properties (tier,
    level, labels, point_index), a plain union-find over the connections
    and block_cohomology. Per block: tier, level, component (numbered by
    first block). Per Morse point (blocks in model order, labels in label
    order): index, level, component and row, its position among the points
    of its index. Per supplied pair in the order of first mention: source
    and target point, level gap and orbit sum (each connection's sum of
    sign * rho(word) from 0, then summed per pair in order). Per block and degree k of its cohomology: width and
    first column within the E_1 slot (its level, k), whose columns run
    component by component, model order within one; and parts[(level, k)],
    the slot's width per component, components with no E_1 left out."""
    from torsflow import block_cohomology

    blocks, rep = model.blocks, model.representation
    number = {b.id: j for j, b in enumerate(blocks)}
    points = [(j, label) for j, b in enumerate(blocks) for label in b.labels()]
    point = {(blocks[j].id, label): p for p, (j, label) in enumerate(points)}
    parent = list(range(len(blocks)))

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for conn in model.connections:
        a, b = find(number[conn.from_point[0]]), find(number[conn.to_point[0]])
        parent[max(a, b)] = min(a, b)
    roots = sorted({find(j) for j in range(len(blocks))})
    component = [roots.index(find(j)) for j in range(len(blocks))]
    index = [blocks[j].point_index(label) for j, label in points]
    pairs = {}
    for conn in model.connections:
        key = (point[conn.to_point], point[conn.from_point])
        total = np.zeros((rep.dim, rep.dim), dtype=complex)
        for orbit in conn.orbits:
            total = total + orbit.sign * rep.evaluate(orbit.word)
        pairs[key] = pairs[key] + total if key in pairs else total
    widths = [{k: basis.shape[1] for k, basis in block_cohomology(b, rep).bases.items()} for b in blocks]
    offset, parts = {}, {}
    for level in range(3):
        for k in range(4):
            at, sizes = 0, []
            for c in range(len(roots)):
                for j, b in enumerate(blocks):
                    if component[j] == c and b.level == level and k in widths[j]:
                        offset[(j, k)] = at
                        at += widths[j][k]
                sizes.append(at - sum(sizes))
            parts[(level, k)] = sizes
    kept = [c for c in range(len(roots)) if any(sizes[c] for sizes in parts.values())]
    return {
        "tier": [b.tier for b in blocks],
        "level": [b.level for b in blocks],
        "component": component,
        "index": index,
        "point_level": [blocks[j].level for j, _ in points],
        "point_component": [component[j] for j, _ in points],
        "row": [index[:p].count(index[p]) for p in range(len(points))],
        "source": [s for s, _ in pairs],
        "target": [t for _, t in pairs],
        "gap": [blocks[points[t][0]].level - blocks[points[s][0]].level for s, t in pairs],
        "sums": list(pairs.values()),
        "width": {(j, k): w for j, ws in enumerate(widths) for k, w in ws.items()},
        "offset": offset,
        "parts": {key: [sizes[c] for c in kept] for key, sizes in parts.items()},
    }
