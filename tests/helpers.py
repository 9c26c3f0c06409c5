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
