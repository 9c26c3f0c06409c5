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
vectors of the numerator orthogonal to the denominator. The differential
d_r maps E_r(n, q) to E_r(n+r, q-r+1) and is obtained by conjugating the
ambient differential with those representative bases.

Each page, graded by total degree n+q, is itself a based complex; its
torsion is taken relative to the next page's representatives, and the
product over all pages reproduces the torsion of the base complex relative
to the cohomology basis induced by the last page. filtered_pages verifies
that identity to 1e-8 relative on every call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .complexes import (
    ACYCLIC_NOTE,
    RELATIVE_NOTE,
    BasedComplex,
    TorsionScalar,
    cohomology_dims,
    complex_torsion,
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
        self._check_stability()

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

    def _check_stability(self):
        for i, d in enumerate(self.base.diffs):
            if d.size == 0:
                continue
            scale = max(1.0, float(np.abs(d).max()))
            row_lv = self.levels[i + 1][:, None]
            col_lv = self.levels[i][None, :]
            bad = (np.abs(d) > 1e-12 * scale) & (row_lv < col_lv)
            if bad.any():
                r, c = np.argwhere(bad)[0]
                raise InvalidFiltration(
                    f"not d-stable: d^{i}[{r},{c}] maps level {self.levels[i][c]} "
                    f"into level {self.levels[i + 1][r]}"
                )

    def membership_rows(self, n: int, i: int) -> np.ndarray:
        """Rows of the identity selecting coordinates outside F_n in degree i."""
        mask = self.levels[i] < n
        eye = np.eye(self.base.dim(i), dtype=complex)
        return eye[mask]


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

    member below 0 means F_0 (everything); target below 1 imposes nothing,
    target at or above the level count forces dx = 0. `anchor` is the
    ambient operator scale used to keep rank decisions honest on rows that
    vanish in exact arithmetic.
    """
    dim = fc.base.dim(k)
    if member >= fc.num_levels or k < 0 or k >= len(fc.base.dims):
        return np.zeros((dim, 0), dtype=complex)
    rows = []
    if member > 0:
        rows.append(fc.membership_rows(member, k))
    if target > 0 and k + 1 < len(fc.base.dims):
        mask = fc.levels[k + 1] < min(target, fc.num_levels)
        rows.append(fc.base.diff(k)[mask])
    if not rows:
        return np.eye(dim, dtype=complex)
    stacked = np.concatenate(rows, axis=0)
    return rank_nullspace(stacked, tol_rel, scale=max(1.0, anchor)).kernel_basis


def _within(span: np.ndarray, constraint: np.ndarray, tol_rel: float) -> np.ndarray:
    """Orthonormal basis of (column span of `span`) intersected with the
    orthogonal complement of `constraint`. Both inputs have orthonormal
    columns, so 1.0 is the honest scale for the rank decision."""
    if span.shape[1] == 0 or constraint.shape[1] == 0:
        return span
    coeff = rank_nullspace(constraint.conj().T @ span, tol_rel, scale=1.0).kernel_basis
    return span @ coeff


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

    def key_range():
        for k in degrees:
            for n in range(L):
                yield n, k

    z_cache: dict = {}

    def zspace(member, target, k):
        member = max(member, 0)
        target = min(max(target, 0), L)
        if (member, target, k) not in z_cache:
            z_cache[(member, target, k)] = _zspace(fc, member, target, k, tol_rel, anchor)
        return z_cache[(member, target, k)]

    reps: list[dict] = []
    for r in range(L + 2):
        page_reps = {}
        for n, k in key_range():
            z = zspace(n, n + r, k)
            if z.shape[1] == 0:
                page_reps[(n, k)] = z
                continue
            blocks = []
            z_sub = zspace(n + 1, n + r, k)
            if z_sub.shape[1]:
                blocks.append(z_sub)
            z_img = zspace(n - r + 1, n, k - 1)
            if z_img.shape[1] and k >= 1:
                blocks.append(base.diff(k - 1) @ z_img)
            if blocks:
                denom = range_basis(
                    np.concatenate(blocks, axis=1), tol_rel, scale=max(1.0, anchor)
                )
            else:
                denom = np.zeros((base.dim(k), 0), dtype=complex)
            page_reps[(n, k)] = _within(z, denom, tol_rel)
        reps.append(page_reps)

    pages: list[Page] = []
    product = 1.0
    for r in range(L + 1):
        spaces = {}
        diffs = {}
        for n, k in key_range():
            src = reps[r][(n, k)]
            spaces[(n, k - n)] = src
            tgt = reps[r].get((n + r, k + 1))
            if tgt is None:
                tgt = np.zeros((base.dim(k + 1), 0), dtype=complex)
            diffs[(n, k - n)] = tgt.conj().T @ base.diff(k) @ src
        coords = {(n, k - n): reps[r][(n, k)].conj().T @ reps[r + 1][(n, k)] for n, k in key_range()}
        torsion = _page_torsion(len(base.dims), L, coords, diffs, r, tol_rel, anchor)
        pages.append(Page(r=r, spaces=spaces, diffs=diffs, torsion=torsion))
        product *= torsion.modulus

    limit = reps[L]
    infinity_dims = {(n, k - n): limit[(n, k)].shape[1] for n, k in key_range()}

    h_bases = {}
    for k in degrees:
        cols = [limit[(n, k)] for n in range(L)]
        h_bases[k] = np.concatenate(cols, axis=1) if cols else np.zeros((base.dim(k), 0), dtype=complex)
    anchored = BasedComplex(base.dims, base.diffs, rank_scale=anchor)
    direct = complex_torsion(anchored, h_bases, tol_rel=tol_rel)

    rel = abs(product - direct.modulus) / max(direct.modulus, 1e-300)
    h_dims = cohomology_dims(anchored, tol_rel)
    for k in degrees:
        spread = sum(infinity_dims[(n, k - n)] for n in range(L))
        if spread != h_dims[k]:
            raise TorsionError(
                f"degree {k}: limit page dimensions sum to {spread}, H^{k} has dim {h_dims[k]}"
            )
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


def _page_torsion(num_degrees, L, next_coords, diffs, r, tol_rel, anchor) -> TorsionScalar:
    """Torsion of one page, graded by total degree, relative to the next page.

    next_coords[(n, q)] is the next page's basis at a slot written in page-r
    coordinates (shape dim E_r x dim E_{r+1}); it is the block-diagonal
    cohomology basis of the page complex in each total degree, valid
    because next-page cocycle spaces sit inside page-r ones. diffs[(n, q)]
    is d_r out of the slot, missing where it is zero. Degrees run
    0 .. num_degrees - 1 and levels 0 .. L - 1.
    """
    degrees = range(num_degrees)
    offsets = []
    dims = []
    for k in degrees:
        off = {}
        pos = 0
        for n in range(L):
            off[n] = pos
            pos += next_coords[(n, k - n)].shape[0]
        offsets.append(off)
        dims.append(pos)

    page_diffs = []
    for k in degrees:
        if k + 1 >= num_degrees:
            break
        mat = np.zeros((dims[k + 1], dims[k]), dtype=complex)
        for n in range(L):
            block = diffs.get((n, k - n))
            if block is None or block.size == 0 or n + r >= L:
                continue
            r0 = offsets[k + 1][n + r]
            c0 = offsets[k][n]
            mat[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
        page_diffs.append(mat)
    page_complex = BasedComplex(dims, page_diffs, rank_scale=anchor)

    h = {}
    for k in degrees:
        cols = []
        for n in range(L):
            coords = next_coords[(n, k - n)]
            lifted = np.zeros((dims[k], coords.shape[1]), dtype=complex)
            lifted[offsets[k][n] : offsets[k][n] + coords.shape[0]] = coords
            cols.append(lifted)
        h[k] = np.concatenate(cols, axis=1) if cols else np.zeros((dims[k], 0), dtype=complex)
    return complex_torsion(page_complex, h, tol_rel=tol_rel)
