"""Spectral sequence of a filtered based complex, with per-page torsions.

A filtration here is a chain of coordinate subcomplexes

    V = F_0 >= F_1 >= ... >= F_L = 0,        d(F_n) <= F_n,

each F_n spanned per degree by a subset of the preferred basis. We record
it by giving every basis vector its level: the largest n with the vector
in F_n. Levels run 0..L-1.

Pages are computed from the classical cocycle ladders

    Z_r(n, k) = { x in F_n^k : d x in F_{n+r}^{k+1} }
    E_r(n, q) = Z_r(n, n+q) / ( Z_{r-1}(n+1, n+q) + d Z_{r-1}(n-r+1, n+q-1) )

realised concretely as orthonormal column bases of subquotient
representatives inside the ambient degree spaces: representatives are the
vectors of the numerator orthogonal to the denominator. Each subspace is
one rank decision on one operator at its own scale: Z_r(n, k) is the
kernel of d restricted to F_n and the rows of F_n outside F_{n+r}, d Z_{r-1}
is cut alone, and both orthonormal pieces meet Z_r in _within, once per
distinct subspace and per distinct cut. d-stability answers the rest
without a rank decision: Z(n, t) = F_n for t <= n, so E_0 is the
coordinate grading (the basis vectors of level exactly n). The
differential d_r maps E_r(n, q) to E_r(n+r, q-r+1) and is obtained by
conjugating the ambient differential with those representative bases.

Each page, graded by total degree n+q, is itself a based complex: the
direct sum of its d_r blocks. Torsion is multiplicative over direct sums
(Milnor 1966), so one page step decomposes each block once and reads the
page torsion off those rank decisions; a slot with an incoming block and
no outgoing one takes that block's cokernel basis as its next page.
Relative to next-page bases H that are orthonormal, inside ker d_r and
orthogonal to im d_r, the block out of slot (n, q) contributes
(-1)^(n+q) log of its kept singular values. The ladder's next-page
representatives, written in page-r coordinates C, are not orthonormal
there; each slot adds (-1)^(n+q+1) log|det(H^H C)| for them. The product
over all pages reproduces the torsion of the base complex relative to the
cohomology basis induced by the last page. filtered_pages verifies that
identity to 1e-8 relative on every call, against a direct complex_torsion
of the base complex.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .complexes import (
    ACYCLIC_NOTE,
    RELATIVE_NOTE,
    BasedComplex,
    TorsionScalar,
    _within,
    complex_torsion,
    modulus_from_log,
)
from .errors import InvalidFiltration, TorsionError
from .linalg import DEFAULT_TOL, range_basis, rank_nullspace


class FilteredComplex:
    """A based complex with a decreasing coordinate filtration.

    levels[i][j] is the filtration level of the j-th preferred basis vector
    of degree i; num_levels is L, so F_n for n in 0..L and F_L = 0.
    """

    def __init__(self, base: BasedComplex, levels: Sequence[np.ndarray], num_levels: int):
        if len(levels) != len(base.dims):
            raise InvalidFiltration("need one level array per degree")
        self.base = base
        self.num_levels = int(num_levels)
        if self.num_levels < 1:
            raise InvalidFiltration("filtration needs at least one level")
        lv = []
        for i, arr in enumerate(levels):
            arr = np.asarray(arr, dtype=int)
            if arr.shape != (base.dim(i),):
                raise InvalidFiltration(
                    f"degree {i}: {base.dim(i)} basis vectors, {arr.shape} levels"
                )
            if arr.size and (arr.min() < 0 or arr.max() >= self.num_levels):
                raise InvalidFiltration(
                    f"degree {i}: levels must lie in 0..{self.num_levels - 1}"
                )
            lv.append(arr)
        self.levels = lv
        lowering = self._check_stability()
        # the stability check declares every level-lowering entry zero; held
        # as zeros, no rank decision at any tolerance keeps rank from them
        if any(d[mask].any() for d, mask in zip(base.diffs, lowering)):
            self.base = BasedComplex(
                base.dims,
                [np.where(mask, 0, d) for d, mask in zip(base.diffs, lowering)],
                rank_scale=base.rank_scale,
            )

    @classmethod
    def from_subsets(cls, base: BasedComplex, subsets, num_levels: Optional[int] = None):
        """Build from explicit index subsets: subsets[n][i] lists the degree-i
        coordinates spanning F_n. F_0 must be everything; sets must decrease."""
        if num_levels is None:
            num_levels = len(subsets)
        levels = [np.zeros(base.dim(i), dtype=int) for i in range(len(base.dims))]
        prev = None
        for n, per_degree in enumerate(subsets):
            if len(per_degree) != len(base.dims):
                raise InvalidFiltration(f"step {n}: need one subset per degree")
            current = [frozenset(int(j) for j in idx) for idx in per_degree]
            for i, idx in enumerate(current):
                if idx and (min(idx) < 0 or max(idx) >= base.dim(i)):
                    raise InvalidFiltration(f"step {n}, degree {i}: index out of range")
                if n == 0 and len(idx) != base.dim(i):
                    raise InvalidFiltration("F_0 must span the whole complex")
                if prev is not None and not idx <= prev[i]:
                    raise InvalidFiltration(f"step {n}, degree {i}: filtration not decreasing")
                for j in idx:
                    levels[i][j] = n
            prev = current
        return cls(base, levels, num_levels)

    def _check_stability(self) -> list:
        """Raise InvalidFiltration where d maps a basis vector into a lower
        level by more than 1e-12 * max(1, max|d|); return the level-lowering
        positions of each differential."""
        lowering = []
        for i, d in enumerate(self.base.diffs):
            lower = self.levels[i + 1][:, None] < self.levels[i][None, :]
            lowering.append(lower)
            if d.size == 0:
                continue
            scale = max(1.0, float(np.abs(d).max()))
            bad = (np.abs(d) > 1e-12 * scale) & lower
            if bad.any():
                r, c = np.argwhere(bad)[0]
                raise InvalidFiltration(
                    f"not d-stable: d^{i}[{r},{c}] maps level {self.levels[i][c]} "
                    f"into level {self.levels[i + 1][r]}"
                )
        return lowering


@dataclass
class Page:
    """One page of the spectral sequence.

    spaces[(n, q)] is an ambient orthonormal representative basis for
    E_r(n, q), a matrix of shape (dim V^{n+q}, dim E_r); diffs[(n, q)]
    is the matrix of d_r into E_r(n+r, q-r+1) in those bases.
    """

    r: int
    spaces: dict = field(default_factory=dict)
    diffs: dict = field(default_factory=dict)
    torsion: TorsionScalar = TorsionScalar(1.0)

    def dims(self) -> dict:
        return {key: b.shape[1] for key, b in self.spaces.items() if b.shape[1] > 0}


@dataclass
class ProductCheck:
    """Outcome of the product-of-pages identity check."""

    page_product: float
    direct: float
    rel_error: float
    h_dims: tuple


@dataclass
class SpectralResult:
    pages: list
    product_check: ProductCheck
    infinity_dims: dict

    @property
    def total(self) -> TorsionScalar:
        acyclic = all(v == 0 for v in self.infinity_dims.values())
        return TorsionScalar(
            self.product_check.page_product, ACYCLIC_NOTE if acyclic else RELATIVE_NOTE
        )


def _zspace(
    fc: FilteredComplex, member: int, target: int, k: int, tol_rel: float, anchor: float
) -> np.ndarray:
    """Orthonormal basis of {x in F_member^k : dx in F_target^{k+1}}.

    member below 0 means F_0 (everything); target at or below member
    imposes nothing, target at or above the level count forces dx = 0. It
    is the kernel of d restricted to the member columns and the rows of
    level in [member, target), at the ambient operator scale `anchor` the
    block was cut out of, so rows that vanish in exact arithmetic stay rank
    zero. Rows below member are left out because d maps F_member into
    itself; so for target at or below member the answer is F_member's
    coordinate columns, and no rank decision is made. The rows left out
    hold only level-lowering entries, which FilteredComplex holds as exact
    zeros, so leaving them out is exact at every tolerance.
    """
    dim = fc.base.dim(k)
    if member >= fc.num_levels or k < 0 or k >= len(fc.base.dims):
        return np.zeros((dim, 0), dtype=complex)
    cols = fc.levels[k] >= member
    if k + 1 < len(fc.base.dims):
        row_levels = fc.levels[k + 1]
        rows = (row_levels >= member) & (row_levels < min(target, fc.num_levels))
    else:
        rows = []
    if not np.any(rows):
        kernel = np.eye(int(cols.sum()), dtype=complex)
    else:
        restricted = fc.base.diff(k)[np.ix_(rows, cols)]
        kernel = rank_nullspace(restricted, tol_rel, scale=max(1.0, anchor)).kernel_basis
    z = np.zeros((dim, kernel.shape[1]), dtype=complex)
    z[cols] = kernel
    return z


def _slots(fc: FilteredComplex):
    """Every (level, degree) pair, degree-major."""
    for k in range(len(fc.base.dims)):
        for n in range(fc.num_levels):
            yield n, k


class _Ladder:
    """The cocycle ladder of one filtered_pages call.

    Each subspace Z(member, target, k), each image d Z and each
    representative cut is decided once per distinct clamped key and kept
    in one plain dict. Nothing in it refers back to the ladder, so it dies
    with the call rather than with the cyclic collector. Past r = L every
    key repeats page L's.
    """

    def __init__(self, fc: FilteredComplex, tol_rel: float, anchor: float):
        self.fc, self.tol_rel, self.anchor = fc, tol_rel, anchor
        self.cache: dict = {}

    def key(self, member: int, target: int, k: int) -> tuple:
        return (max(member, 0), min(max(target, 0), self.fc.num_levels), k)

    def zspace(self, key: tuple, image: bool = False) -> np.ndarray:
        """Z at a clamped key, or with `image` a basis of d Z."""
        cache = self.cache
        if key not in cache:
            cache[key] = _zspace(self.fc, *key, self.tol_rel, self.anchor)
        if not image:
            return cache[key]
        if (key, "image") not in cache:
            d = self.fc.base.diff(key[2])
            cache[(key, "image")] = range_basis(d @ cache[key], self.tol_rel, scale=max(1.0, self.anchor))
        return cache[(key, "image")]

    def page(self, r: int) -> dict:
        """Representatives of E_r(n, k - n), keyed (n, k): the vectors of
        Z_r(n, k) orthogonal to Z_{r-1}(n+1, k) + d Z_{r-1}(n-r+1, k-1).
        E_0 is the coordinate grading, the basis vectors of level exactly n
        (d F_{n+1} lies in F_{n+1}), so page 0 makes no rank decision."""
        fc, cache = self.fc, self.cache
        if r == 0:
            return {(n, k): np.eye(fc.base.dim(k), dtype=complex)[:, fc.levels[k] == n] for n, k in _slots(fc)}
        reps = {}
        for n, k in _slots(fc):
            zkey = self.key(n, n + r, k)
            z = self.zspace(zkey)
            if z.shape[1] == 0:
                reps[(n, k)] = z
                continue
            cut = (zkey, self.key(n + 1, n + r, k), self.key(n - r + 1, n, k - 1) if k >= 1 else None)
            if cut not in cache:
                # the denominator's two pieces, each orthonormal at its own scale
                denom = [self.zspace(cut[1])]
                if cut[2] is not None:
                    denom.append(self.zspace(cut[2], image=True))
                cache[cut] = _within(z, np.concatenate(denom, axis=1), self.tol_rel)
            reps[(n, k)] = cache[cut]
        return reps


def filtered_pages(fc: FilteredComplex, tol_rel: float = DEFAULT_TOL) -> SpectralResult:
    """All pages E_0 .. E_L of the filtration spectral sequence.

    Returns the pages with their differentials and torsions, the limit page
    dimensions, and the verified product identity
    prod_r |tau_{d_r}| = |tau_d| (direct computation on the base complex,
    relative to the cohomology basis induced by the limit page).
    """
    base = fc.base
    L = fc.num_levels
    degrees = range(len(base.dims))
    # rank decisions are anchored by the operator norm and, from below, by
    # the scale the complex carries (an ambient norm it was conjugated out of)
    anchor = max(base.rank_scale, base.operator_scale())

    ladder = _Ladder(fc, tol_rel, anchor)
    reps = [ladder.page(r) for r in range(L + 2)]

    pages: list[Page] = []
    page_logs = []
    for r in range(L + 1):
        spaces = {}
        diffs = {}
        for n, k in _slots(fc):
            src = reps[r][(n, k)]
            spaces[(n, k - n)] = src
            tgt = reps[r].get((n + r, k + 1))
            if tgt is None:
                tgt = np.zeros((base.dim(k + 1), 0), dtype=complex)
            diffs[(n, k - n)] = tgt.conj().T @ base.diff(k) @ src
        dims = {key: b.shape[1] for key, b in spaces.items()}
        step, log_tau = _page_step(dims, diffs, r, tol_rel, anchor)
        # the ladder's next-page classes, C in page-r coordinates, are not the
        # step's orthonormal basis H: a slot in total degree k adds
        # (-1)^(k+1) log|det(H^H C)|
        terms = [log_tau]
        for n, k in _slots(fc):
            h = step[(n, k - n)]
            coords = reps[r][(n, k)].conj().T @ reps[r + 1][(n, k)]
            if h.shape[1] != coords.shape[1]:
                raise TorsionError(f"page {r}, slot {(n, k - n)}: page step and ladder disagree")
            if coords.shape[1]:
                terms.append((-1) ** (k + 1) * float(np.linalg.slogdet(h.conj().T @ coords)[1]))
        log_tau = math.fsum(terms)
        torsion = TorsionScalar(modulus_from_log(log_tau, f"page {r} torsion"), _page_note(step))
        pages.append(Page(r=r, spaces=spaces, diffs=diffs, torsion=torsion))
        page_logs.append(log_tau)
    product = modulus_from_log(math.fsum(page_logs), "page torsion product")

    limit = reps[L]
    infinity_dims = {(n, k - n): limit[(n, k)].shape[1] for n, k in _slots(fc)}

    # at least one level, so every degree has slots to concatenate
    h_bases = {k: np.concatenate([limit[(n, k)] for n in range(L)], axis=1) for k in degrees}
    anchored = BasedComplex(base.dims, base.diffs, rank_scale=anchor)
    direct = complex_torsion(anchored, h_bases, tol_rel=tol_rel)

    # complex_torsion has checked each limit basis against dim H^k
    rel = abs(product - direct.modulus) / max(direct.modulus, 1e-300)
    h_dims = tuple(h_bases[k].shape[1] for k in degrees)
    if not (rel <= 1e-8):
        raise TorsionError(
            f"page torsion product {product:.12g} disagrees with direct torsion "
            f"{direct.modulus:.12g} (rel {rel:.3e})"
        )
    return SpectralResult(
        pages=pages,
        product_check=ProductCheck(product, direct.modulus, rel, h_dims),
        infinity_dims=infinity_dims,
    )


def _page_step(dims: dict, diffs: dict, r: int, tol_rel: float, anchor: float):
    """One page step: the next page's bases and this page's log-torsion.

    dims[(level, q)] is a slot's page dimension and diffs[(level, q)] the
    matrix of d_r from it to (level + r, q - r + 1). Per slot the next page
    is an orthonormal basis of ker(d_r out of the slot) meet (im d_r into
    it)^perp, in the slot's coordinates. Each block is decomposed once: its
    rank decision gives the kernel in its source slot, the range and its
    complement in its target slot and, relative to these bases, its term
    (-1)^(level + q) log_kept of the log-torsion. A slot with an incoming
    map and no outgoing one takes the incoming decision's cokernel basis,
    (im d_r)^perp, as it stands; only a slot with both maps is cut again.
    """
    ranks = {key: rank_nullspace(mat, tol_rel, scale=anchor) for key, mat in diffs.items() if mat.size}
    bases = {}
    for (level, q), dim in dims.items():
        if dim == 0:
            bases[(level, q)] = np.zeros((0, 0), dtype=complex)
            continue
        out = ranks.get((level, q))
        into = ranks.get((level - r, q + r - 1))
        if out is None:
            span = into.cokernel_basis if into is not None else np.eye(dim, dtype=complex)
        elif into is None:
            span = out.kernel_basis
        else:
            span = _within(out.kernel_basis, into.range_basis, tol_rel)
            if span.shape[1] != dim - into.rank - out.rank:
                raise TorsionError(f"page {r}, slot {(level, q)}: im d_{r} not inside ker d_{r}")
        bases[(level, q)] = span
    log_tau = math.fsum((-1) ** (level + q) * res.log_kept for (level, q), res in ranks.items())
    return bases, log_tau


def _page_note(bases: dict) -> str:
    """Basis note of a page torsion: canonical exactly when the next page
    is zero in every slot."""
    return RELATIVE_NOTE if any(b.shape[1] for b in bases.values()) else ACYCLIC_NOTE
