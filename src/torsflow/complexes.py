"""Torsion of finite based cochain complexes over the complex numbers.

A based complex is a finite cochain complex

    0 -> V^0 -d-> V^1 -d-> ... -d-> V^m -> 0

of coordinate spaces C^{n_i}, each carrying its standard basis as the
preferred basis. The torsion element of such a complex lives in
det(V) (x) det(H)^{-1}. Once a basis of each cohomology group is fixed it
becomes a scalar; for unitary-flavoured inputs all choices within a
U(1)-orbit share one modulus, and that modulus is the number this module
produces.

The scalar is evaluated degree by degree. Pick, per degree i,

    t_i : a basis of any complement of the cocycles Z^i in V^i
          (orthogonal complement of ker d^i by default),
    h_i : cocycle representatives of the chosen basis of H^i
          (orthonormal harmonic representatives by default),

and form the square matrix M_i = [ d t_{i-1} | h_i | t_i ] in the
preferred coordinates of V^i. Then

    |torsion| = prod_i |det M_i| ^ ((-1)^(i+1)).

For an acyclic complex the value is independent of all internal choices;
for a two-term complex 0 -> V -A-> W -> 0 with invertible A it is |det A|.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BasisMismatch, InvalidInput, NotAComplex, NotExact, TorsionError
from .linalg import DEFAULT_TOL, as_cmatrix, modulus_from_log, operator_norm, rank_nullspace

__all__ = [
    "ACYCLIC_NOTE", "RELATIVE_NOTE", "BasedComplex", "TorsionScalar", "cohomology_bases", "cohomology_dims",
    "complex_torsion", "map_torsion", "ses_torsion", "shifted_complex"
]

#: basis_note flag values for TorsionScalar
ACYCLIC_NOTE = "acyclic-canonical"
RELATIVE_NOTE = "relative-to-computed-cohomology-bases"

# d*d = 0 and exactness checks are absolute at unit scale; inputs are
# rescaled by their largest entry magnitude before comparing.
STRUCT_TOL = 1e-9


@dataclass(frozen=True)
class TorsionScalar:
    """Modulus of a torsion element plus a note about the basis convention."""

    modulus: float
    basis_note: str = ACYCLIC_NOTE

    def __float__(self) -> float:
        return self.modulus


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


class BasedComplex:
    """Finite cochain complex of coordinate spaces with its standard bases.

    dims[i] is the dimension of degree i; diffs[i] maps degree i to i+1 and
    has shape (dims[i+1], dims[i]). Construction verifies the shape chain
    and d*d = 0 (entrywise, 1e-9 at unit scale).

    rank_scale anchors every internal rank decision from below; complexes
    whose differentials were conjugated out of a larger computation should
    carry the ambient operator scale here so that exact-zero blocks full of
    float noise are not mistaken for rank.
    """

    def __init__(self, dims: Sequence[int], diffs: Sequence[np.ndarray], rank_scale: float = 0.0):
        dims = tuple(int(n) for n in dims)
        if not dims or any(n < 0 for n in dims):
            raise InvalidInput(f"bad degree dimensions {dims}")
        # own copies: the complex is immutable and must not freeze caller arrays
        diffs = tuple(as_cmatrix(d, f"differential {i}").copy() for i, d in enumerate(diffs))
        if len(diffs) != len(dims) - 1:
            raise InvalidInput(
                f"{len(dims)} degrees need {len(dims) - 1} differentials, got {len(diffs)}"
            )
        for i, d in enumerate(diffs):
            if d.shape != (dims[i + 1], dims[i]):
                raise InvalidInput(
                    f"differential {i} has shape {d.shape}, expected {(dims[i + 1], dims[i])}"
                )
        for i in range(len(diffs) - 1):
            scale = max(1.0, _max_abs(diffs[i + 1]) * _max_abs(diffs[i]))
            defect = _max_abs(diffs[i + 1] @ diffs[i])
            if defect > STRUCT_TOL * scale:
                raise NotAComplex(
                    f"d^{i + 1} d^{i} has max entry {defect:.3e} (scale {scale:.3e})"
                )
        self.dims = dims
        self.diffs = diffs
        self.rank_scale = float(rank_scale)
        for d in self.diffs:
            d.setflags(write=False)

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def operator_scale(self) -> float:
        """Largest singular value over all differentials (0 for zero complexes)."""
        return max([0.0] + [operator_norm(d) for d in self.diffs])

    def dim(self, i: int) -> int:
        if 0 <= i < len(self.dims):
            return self.dims[i]
        return 0

    def diff(self, i: int) -> np.ndarray:
        """Differential out of degree i, zero-shaped outside the support."""
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return np.zeros((self.dim(i + 1), self.dim(i)), dtype=complex)

    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self) -> str:
        return f"BasedComplex(dims={self.dims})"


def shifted_complex(
    degree: int, dims: Sequence[int], diffs: Sequence[np.ndarray], rank_scale: float = 0.0
) -> BasedComplex:
    """Place a small complex so its first listed space sits at the given degree."""
    pad = [0] * degree
    pad_d = [np.zeros((0, 0), dtype=complex)] * (degree - 1)
    join = [np.zeros((dims[0], 0), dtype=complex)] if degree > 0 else []
    return BasedComplex(pad + list(dims), pad_d + join + list(diffs), rank_scale=rank_scale)


def cohomology_bases(c: BasedComplex, tol_rel: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal harmonic representatives of H^i, one column block per degree.

    Harmonic means: in ker d^i and orthogonal to im d^{i-1}. Both come from
    one rank decision per differential, and H^i is ker d^i cut against
    im d^(i-1) by _within; no stacked kernel is formed.
    """
    return _harmonic_bases(c, tol_rel)[2]


def cohomology_dims(c: BasedComplex, tol_rel: float = DEFAULT_TOL) -> tuple[int, ...]:
    return tuple(b.shape[1] for b in cohomology_bases(c, tol_rel))


def _harmonic_bases(c: BasedComplex, tol_rel: float, skip=(), known=None) -> tuple[list, list, list]:
    """One rank decision per differential, or the caller's in `known` (keyed
    by degree, made at c.rank_scale); from those decisions the basis of
    each im d^(i-1) and, in every degree not in `skip` (None there), the
    harmonic basis H^i = ker d^i cut against im d^(i-1)."""
    known = known or {}
    ranks = [known.get(i) or rank_nullspace(c.diff(i), tol_rel, scale=c.rank_scale) for i in range(len(c.dims))]
    bounds = [np.zeros((c.dim(0), 0), dtype=complex)] + [res.range_basis for res in ranks[:-1]]
    bases = [
        None if i in skip else _within(ranks[i].kernel_basis, bounds[i], tol_rel)
        for i in range(len(c.dims))
    ]
    return ranks, bounds, bases


def _check_supplied_cohomology(c, i, h, rank_out, rank_in, boundaries, tol_rel):
    h = as_cmatrix(h, f"cohomology basis in degree {i}")
    want = c.dim(i) - rank_out - rank_in
    if h.shape != (c.dim(i), want):
        raise BasisMismatch(
            f"degree {i}: expected {want} cohomology vectors of length {c.dim(i)}, "
            f"got shape {h.shape}"
        )
    if h.size:
        scale = max(1.0, _max_abs(c.diff(i))) * max(1.0, _max_abs(h))
        if _max_abs(c.diff(i) @ h) > STRUCT_TOL * scale:
            raise BasisMismatch(f"degree {i}: supplied vectors are not cocycles")
        joint = np.concatenate([boundaries, h], axis=1)
        if rank_nullspace(joint, tol_rel).rank < boundaries.shape[1] + h.shape[1]:
            raise BasisMismatch(
                f"degree {i}: supplied vectors dependent modulo coboundaries"
            )
    return h


def _within(span: np.ndarray, constraint: np.ndarray, tol_rel: float) -> np.ndarray:
    """Orthonormal basis of (column span of `span`) intersected with the
    orthogonal complement of the columns of `constraint`. `span` has
    orthonormal columns; `constraint` is orthonormal or a concatenation of
    orthonormal pieces, whose spans may overlap. Every column then has unit
    norm, so 1.0 is the honest scale for the rank decision."""
    if span.shape[1] == 0 or constraint.shape[1] == 0:
        return span
    coeff = rank_nullspace(constraint.conj().T @ span, tol_rel, scale=1.0).kernel_basis
    return span @ coeff


def complex_torsion(
    c: BasedComplex,
    cohomology_bases_by_degree: Optional[dict[int, np.ndarray]] = None,
    complements: Optional[dict[int, np.ndarray]] = None,
    tol_rel: float = DEFAULT_TOL,
) -> TorsionScalar:
    """Torsion modulus of a based complex relative to its preferred bases.

    If the complex has cohomology and no bases are supplied, orthonormal
    harmonic bases are taken from the rank decisions already made, one per
    differential: H^i = ker d^i cut against im d^(i-1). The result is then
    flagged relative-to-computed-cohomology-bases. `complements` overrides
    the internal choice of a complement of the cocycles in chosen degrees;
    any complement gives the same modulus for acyclic complexes, which the
    test suite exercises.
    """
    return _dims_and_torsion(c, cohomology_bases_by_degree, complements, tol_rel)[1]


def _dims_and_torsion(c, supplied, complements, tol_rel, decided=None) -> tuple[tuple[int, ...], TorsionScalar]:
    """complex_torsion together with the cohomology dimension of each degree;
    `decided` is the complex's _harmonic_bases triple if the caller holds it."""
    supplied = supplied or {}
    complements = complements or {}
    ranks, bounds, harmonic = decided or _harmonic_bases(c, tol_rel, skip=supplied)

    t_bases: list[np.ndarray] = []
    for i in range(len(c.dims)):
        rank = ranks[i].rank
        if i in complements:
            t = as_cmatrix(complements[i], f"complement in degree {i}")
            if t.shape != (c.dim(i), rank):
                raise BasisMismatch(
                    f"degree {i}: complement must have shape {(c.dim(i), rank)}, got {t.shape}"
                )
            joint = np.concatenate([ranks[i].kernel_basis, t], axis=1)
            if rank_nullspace(joint, tol_rel).rank < c.dim(i):
                raise BasisMismatch(f"degree {i}: complement meets the cocycles")
        else:
            # orthonormal basis of (ker d^i) perp from the rank decision's SVD
            t = ranks[i].row_basis
        t_bases.append(t)

    log_tau = 0.0
    h_dims = []
    for i in range(len(c.dims)):
        rank_out = ranks[i].rank
        rank_in = ranks[i - 1].rank if i > 0 else 0
        dim_h = c.dim(i) - rank_out - rank_in
        if dim_h < 0:
            raise TorsionError(f"degree {i}: negative cohomology dimension, bad ranks")
        if i in supplied:
            h = _check_supplied_cohomology(
                c, i, supplied[i], rank_out, rank_in, bounds[i], tol_rel
            )
        else:
            h = harmonic[i]
            if h.shape[1] != dim_h:
                raise TorsionError(
                    f"degree {i}: harmonic dimension {h.shape[1]} != expected {dim_h}"
                )
        d_prev_t = c.diff(i - 1) @ t_bases[i - 1] if i > 0 else np.zeros((c.dim(i), 0), dtype=complex)
        h_dims.append(h.shape[1])
        m = np.concatenate([d_prev_t, h, t_bases[i]], axis=1)
        if m.shape[1] != c.dim(i):
            raise BasisMismatch(
                f"degree {i}: assembled {m.shape[1]} columns for a {c.dim(i)}-dim space"
            )
        if c.dim(i) == 0:
            continue
        _, logdet = np.linalg.slogdet(m)
        if not np.isfinite(logdet):
            raise BasisMismatch(f"degree {i}: assembled basis is singular")
        log_tau += (-1) ** (i + 1) * logdet

    note = RELATIVE_NOTE if any(h_dims) else ACYCLIC_NOTE
    return tuple(h_dims), TorsionScalar(modulus_from_log(log_tau, "complex torsion"), note)


def map_torsion(
    a, ker_basis, coker_basis, tol_rel: float = DEFAULT_TOL, scale: float = 0.0
) -> TorsionScalar:
    """Torsion of the two-term complex 0 -> V -a-> W -> 0.

    ker_basis must span ker a and coker_basis must span a complement of
    im a in W; complex_torsion checks both against its rank decision and
    raises BasisMismatch otherwise. For invertible a this is |det a|; for
    a = 0 with the preferred bases it is 1. `scale` anchors the rank
    decision as in rank_nullspace.
    """
    a = as_cmatrix(a, "map")
    two_term = BasedComplex([a.shape[1], a.shape[0]], [a], rank_scale=scale)
    return complex_torsion(two_term, {0: ker_basis, 1: coker_basis}, tol_rel=tol_rel)


def _class_coords(vectors, h_basis, boundary_basis, what):
    """Coordinates of cohomology classes of cocycle columns in the given basis."""
    a = np.concatenate([h_basis, boundary_basis], axis=1)
    return _sub_lift(a, vectors, f"{what}: expressing a class")[: h_basis.shape[1]]


def _sub_lift(matrix, rhs, what):
    """Solve matrix @ x = rhs column-wise, insisting on a near-exact fit."""
    x, _, _, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    resid = _max_abs(matrix @ x - rhs)
    if resid > 1e-7 * max(1.0, _max_abs(rhs)):
        raise NotExact(f"{what}: residual {resid:.3e}")
    return x


def ses_torsion(
    sub: BasedComplex,
    total: BasedComplex,
    quot: BasedComplex,
    inclusion: Sequence[np.ndarray],
    projection: Sequence[np.ndarray],
    tol_rel: float = DEFAULT_TOL,
):
    """Additivity of torsion over a short exact sequence of based complexes.

    inclusion[k]: sub degree k -> total degree k, projection[k]: total -> quot.
    The preferred bases must be compatible: degreewise, the three-term
    complex (sub_k -> total_k -> quot_k) must itself have torsion 1, which
    holds when sub and quot bases assemble to the total basis.

    Returns (tau_sub, tau_total, tau_quot, tau_les) where tau_les is the
    torsion of the long exact cohomology sequence, all moduli taken
    relative to one consistent set of computed cohomology bases, and checks
    |tau_total| = |tau_sub| * |tau_quot| * |tau_les| to 1e-8 relative.
    """
    m = total.top_degree
    if sub.top_degree != m or quot.top_degree != m:
        raise InvalidInput("sub, total, quot must share the same degree range")
    inc = [as_cmatrix(a, f"inclusion[{k}]") for k, a in enumerate(inclusion)]
    prj = [as_cmatrix(a, f"projection[{k}]") for k, a in enumerate(projection)]
    if len(inc) != m + 1 or len(prj) != m + 1:
        raise InvalidInput("need one inclusion and one projection per degree")

    for k in range(m + 1):
        if inc[k].shape != (total.dim(k), sub.dim(k)):
            raise InvalidInput(f"inclusion[{k}] has shape {inc[k].shape}")
        if prj[k].shape != (quot.dim(k), total.dim(k)):
            raise InvalidInput(f"projection[{k}] has shape {prj[k].shape}")
        if sub.dim(k) + quot.dim(k) != total.dim(k):
            raise NotExact(f"degree {k}: dimensions {sub.dim(k)}+{quot.dim(k)} != {total.dim(k)}")
        if rank_nullspace(inc[k], tol_rel).rank < sub.dim(k):
            raise NotExact(f"degree {k}: inclusion not injective")
        if rank_nullspace(prj[k], tol_rel).rank < quot.dim(k):
            raise NotExact(f"degree {k}: projection not surjective")
        if prj[k].size and inc[k].size:
            scale = max(1.0, _max_abs(prj[k]) * _max_abs(inc[k]))
            if _max_abs(prj[k] @ inc[k]) > STRUCT_TOL * scale:
                raise NotExact(f"degree {k}: projection o inclusion nonzero")
        # chain map conditions
        if k < m:
            lhs = total.diff(k) @ inc[k]
            rhs = inc[k + 1] @ sub.diff(k)
            if _max_abs(lhs - rhs) > STRUCT_TOL * max(1.0, _max_abs(lhs), _max_abs(rhs)):
                raise NotExact(f"degree {k}: inclusion is not a chain map")
            lhs = prj[k + 1] @ total.diff(k)
            rhs = quot.diff(k) @ prj[k]
            if _max_abs(lhs - rhs) > STRUCT_TOL * max(1.0, _max_abs(lhs), _max_abs(rhs)):
                raise NotExact(f"degree {k}: projection is not a chain map")
        # compatible volume elements: degreewise SES has torsion 1
        if total.dim(k):
            seq = BasedComplex([sub.dim(k), total.dim(k), quot.dim(k)], [inc[k], prj[k]])
            vol = complex_torsion(seq, tol_rel=tol_rel)
            if vol.basis_note != ACYCLIC_NOTE:
                raise NotExact(f"degree {k}: sequence of spaces is not exact")
            if not (abs(vol.modulus - 1.0) <= 1e-8):
                raise BasisMismatch(
                    f"degree {k}: bases are not volume compatible, |tau| = {vol.modulus:.6g}"
                )

    # one harmonic pass per complex gives its cohomology bases, the coboundary
    # bases b[k] = im d^(k-1) that the class coordinates use, and its torsion
    decided = [_harmonic_bases(c, tol_rel) for c in (sub, total, quot)]
    (_, b_sub, h_sub), (_, b_tot, h_tot), (_, b_quo, h_quo) = decided
    tau_sub, tau_tot, tau_quo = (
        _dims_and_torsion(c, None, None, tol_rel, decided=d)[1]
        for c, d in zip((sub, total, quot), decided)
    )

    # Long exact sequence ... -> H^k(sub) -> H^k(total) -> H^k(quot) -> H^{k+1}(sub) -> ...
    # as a based complex with H^k(sub) sitting at degree 3k.
    les_dims: list[int] = []
    les_diffs: list[np.ndarray] = []
    for k in range(m + 1):
        hs, ht, hq = h_sub[k], h_tot[k], h_quo[k]
        les_dims += [hs.shape[1], ht.shape[1], hq.shape[1]]
        i_star = _class_coords(inc[k] @ hs, ht, b_tot[k], f"H^{k} inclusion")
        j_star = _class_coords(prj[k] @ ht, hq, b_quo[k], f"H^{k} projection")
        les_diffs += [i_star, j_star]
        if k < m:
            lifts = _sub_lift(prj[k], hq, f"degree {k}: lifting quotient classes")
            dc = total.diff(k) @ lifts
            pulled = _sub_lift(inc[k + 1], dc, f"degree {k}: pulling back coboundaries")
            delta = _class_coords(pulled, h_sub[k + 1], b_sub[k + 1], f"H^{k} connecting map")
            les_diffs.append(delta)
    # maps are coordinates against orthonormal bases of subquotients; anchor
    # the rank decisions so exact-zero maps full of noise stay rank zero
    les_anchor = max(1.0, total.operator_scale(), sub.operator_scale(), quot.operator_scale())
    try:
        les = BasedComplex(les_dims, les_diffs, rank_scale=les_anchor)
    except NotAComplex as err:
        raise NotExact(f"long exact sequence is not a complex: {err}") from err
    les_cohomology, tau_les = _dims_and_torsion(les, None, None, tol_rel)
    if any(les_cohomology):
        raise NotExact("long exact cohomology sequence is not exact")

    expect = tau_sub.modulus * tau_quo.modulus * tau_les.modulus
    if not (abs(tau_tot.modulus - expect) <= 1e-8 * max(abs(expect), 1e-300)):
        raise TorsionError(
            f"additivity violated: |tau_total| = {tau_tot.modulus:.12g} vs "
            f"|tau_sub||tau_quot||tau_les| = {expect:.12g}"
        )
    return tau_sub, tau_tot, tau_quo, tau_les
