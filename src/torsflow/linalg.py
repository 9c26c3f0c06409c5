"""Dense complex matrix kernel: rank decisions, null spaces, determinant moduli.

Every torsion computation in this package eventually reduces to questions
about a single dense complex matrix: its rank under an explicit tolerance,
orthonormal bases of its kernel and cokernel, and the modulus of its
determinant. Those decisions live here so the tolerance policy stays in
one auditable place.

Conventions
-----------
* Matrices are numpy arrays of dtype complex, shape (rows, cols).
* A "basis" is a matrix whose *columns* are the basis vectors.
* Kernel/cokernel bases come straight from the SVD, so they are
  orthonormal to machine precision and deterministic for a given input.
  The residual sign/phase freedom of singular vectors never reaches a
  reported number: downstream torsion moduli are invariant under unitary
  changes of these bases.
* One SVD per rank decision, and one LAPACK call per stack of
  same-shape decisions. rank_nullspace returns a RankResult that carries
  everything later steps need from that one decomposition: the rank, the
  kernel, cokernel, row-space and range bases, the singular values and the
  threshold. Callers reuse it rather than decomposing the same matrix
  again; the product of the kept singular values is the torsion of the
  two-term complex on the SVD's own kernel and cokernel bases. Many small
  decisions of one shape (a model's block matrices) go to
  _rank_nullspaces as one (n, rows, cols) stack: one np.linalg.svd call,
  and each matrix keeps its own threshold, rank and ambiguity flag, so
  each RankResult equals the lone decision of its matrix bit for bit.
  rank_nullspace is the stack of one; there is no second cut.
* A block-diagonal matrix is decided part by part (_rank_parts), the
  parts of one shape as one stack through the same cut. The singular
  values of a direct sum are those of its parts, so each part is cut at
  the whole matrix's threshold and its rank is its share of the whole's.
* Operator norms come from Gram matrices (_largest_norm), all Gram
  matrices of one size in one eigvalsh call; no SVD runs.
"""
from __future__ import annotations

import math
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, TorsionError

__all__ = [
    "DEFAULT_TOL", "AmbiguousRankWarning", "RankResult", "det_modulus", "range_basis", "rank_nullspace",
    "singular_product"
]

#: Default relative tolerance for rank decisions, user overridable.
DEFAULT_TOL = 1e-10

_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)


def modulus_from_log(log_modulus: float, what: str) -> float:
    """exp(log_modulus), raising TorsionError where that is not a normal
    positive float (overflow to inf, underflow towards 0, or nan)."""
    if not (_LOG_MIN <= log_modulus <= _LOG_MAX):
        raise TorsionError(
            f"{what}: log-modulus {log_modulus:.6g} lies outside the floating-point "
            f"range [{_LOG_MIN:.6g}, {_LOG_MAX:.6g}]"
        )
    return math.exp(log_modulus)


class AmbiguousRankWarning(UserWarning):
    """Some singular value fell within a factor of 10 of the rank threshold."""


def _as_carray(a, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != ndim:
        raise InvalidInput(f"{what}: expected a {ndim}-d array, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInput(f"{what}: non-finite entry")
    return arr


def as_cmatrix(a, what: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex array, raising InvalidInput otherwise."""
    return _as_carray(a, 2, what)


@dataclass(frozen=True)
class RankResult:
    """Rank decision for one matrix.

    kernel_basis has shape (cols, cols - rank), cokernel_basis has shape
    (rows, rows - rank), row_basis, spanning the orthogonal complement of
    the kernel, has shape (cols, rank) and range_basis, spanning the column
    space, has shape (rows, rank); all have orthonormal columns and come
    from one SVD (range_basis equals the range_basis() of the same matrix,
    tolerance and scale). singular_values is non-increasing.
    tolerance_used is the absolute threshold actually applied to the
    singular values.
    """

    rank: int
    kernel_basis: np.ndarray
    cokernel_basis: np.ndarray
    row_basis: np.ndarray
    range_basis: np.ndarray
    singular_values: np.ndarray
    tolerance_used: float
    ambiguous: bool = field(default=False)

    @property
    def log_kept(self) -> float:
        """Sum of the logs of the kept singular values: log |det| of the map
        from the row space onto the range, the torsion of the two-term
        complex on this decision's own kernel and cokernel bases."""
        return float(np.log(self.singular_values[: self.rank]).sum())


def _svd(stack: np.ndarray, full: bool = True):
    """SVD of every matrix of an (n, rows, cols) stack in one LAPACK call;
    identity factors for zero-size matrices. A stack of one goes to LAPACK
    as its 2-d matrix, the same routine on the same data, so a trace that
    reads np.linalg.svd shapes (perfbench's flop count) still sees it."""
    n, rows, cols = stack.shape
    if rows == 0 or cols == 0:
        u = np.eye(rows, dtype=complex)[None].repeat(n, axis=0)
        vh = np.eye(cols, dtype=complex)[None].repeat(n, axis=0)
        return u, np.zeros((n, 0)), vh
    if n == 1:
        u, s, vh = np.linalg.svd(stack[0], full_matrices=full)
        return u[None], s[None], vh[None]
    return np.linalg.svd(stack, full_matrices=full)


def _cut(stacks, tol_rel: float, scale: float, full: bool = True, stacklevel: int = 3, whole=None):
    """The SVDs of each (n, rows, cols) stack (thin unless full) and, per
    stack, as lists over its matrices: the threshold tol_rel * max(rows,
    cols) * sigma_max (sigma_max anchored from below by scale, tol_rel
    itself for zero), the rank and whether the cut is ambiguous, some
    singular value within a factor of 10 of the threshold. With `whole`,
    the max(rows, cols) of the block-diagonal matrix whose parts are all
    the matrices given, every part gets that matrix's threshold: `whole`
    stands for max(rows, cols) and sigma_max is the largest over all parts.
    One AmbiguousRankWarning covers the call, raised at the frame
    `stacklevel` up (the caller of the public entry point). tol_rel must
    lie in (0, 1)."""
    if not 0.0 < tol_rel < 1.0:
        raise InvalidInput(f"tol_rel must lie in (0, 1), got {tol_rel}")
    svds = [_svd(stack, full) for stack in stacks]
    scale = float(scale)
    if whole is not None:
        # the largest sigma over every part, so each row's smax below is it
        scale = max([scale] + [float(s[:, 0].max()) for _, s, _ in svds if s.size])
    out, flagged, count = [], [], 0
    for stack, (u, s, vh) in zip(stacks, svds):
        n, rows, cols = stack.shape
        big = tol_rel * (max(rows, cols) if whole is None else whole)
        thresholds, ranks, ambiguous = [], [], []
        for row in s.tolist():
            smax = max(row[0], scale) if row else scale
            threshold = big * smax if smax > 0.0 else tol_rel
            rank = sum(map(threshold.__lt__, row))
            thresholds.append(threshold)
            ranks.append(rank)
            # row is non-increasing: the values nearest the threshold are the
            # last one kept and the first one dropped
            ambiguous.append(
                (rank > 0 and row[rank - 1] < threshold * 10.0)
                or (rank < len(row) and row[rank] > threshold / 10.0)
            )
            if ambiguous[-1]:
                flagged.append(threshold)
        count += n
        out.append((u, s, vh, thresholds, ranks, ambiguous))
    if flagged:
        where = f" ({len(flagged)} of {count} matrices)" if count > 1 else ""
        warnings.warn(
            AmbiguousRankWarning(f"singular value within a factor of 10 of threshold {flagged[0]:.3e}{where}"),
            stacklevel=stacklevel,
        )
    return out


def _decide(stacks, tol_rel: float, scale: float, stacklevel: int, whole=None) -> list:
    """The RankResults of every matrix of each stack, per stack (_cut)."""
    stacks = [_as_carray(stack, 3, "matrix") for stack in stacks]
    return [_results(*cut) for cut in _cut(stacks, tol_rel, scale, True, stacklevel + 1, whole)]


def _results(u, s, vh, thresholds, ranks, flags) -> list:
    """The RankResult of each matrix of one cut stack (_cut's lists); its
    bases are views of u and of V = vh^H, conjugated once for the stack."""
    return [
        # fields in order: rank, kernel, cokernel, row and range bases,
        # singular values, threshold, ambiguity
        RankResult(rank, vj[:, rank:], uj[:, rank:], vj[:, :rank], uj[:, :rank], sj, threshold, flag)
        for uj, sj, vj, threshold, rank, flag in zip(u, s, vh.conj().transpose(0, 2, 1), thresholds, ranks, flags)
    ]


def _rank_nullspaces(
    stack, tol_rel: float = DEFAULT_TOL, scale: float = 0.0, stacklevel: int = 2
) -> list[RankResult]:
    """rank_nullspace of every matrix of an (n, rows, cols) stack, in
    order, from one LAPACK call. Each matrix keeps its own threshold, rank
    and ambiguity flag, so each result equals its matrix decided alone;
    one AmbiguousRankWarning covers the stack, raised as warnings.warn
    would with `stacklevel` here (2: at the caller)."""
    return _decide([stack], tol_rel, scale, stacklevel + 1)[0]


def _by_shape(*lists) -> dict:
    """The indices i of the same-index tuples (a[i], b[i], ...) of the
    given lists of matrices, in order, grouped by the tuple of shapes."""
    groups: dict = defaultdict(list)
    for i, mats in enumerate(zip(*lists)):
        groups[tuple(mat.shape for mat in mats)].append(i)
    return groups


def _rank_parts(
    parts, tol_rel: float = DEFAULT_TOL, scale: float = 0.0, stacklevel: int = 2
) -> list[RankResult]:
    """rank_nullspace of the direct sum of `parts` (2-d matrices, its
    diagonal blocks), part by part, in order: each RankResult holds its
    part's bases and rank, cut at the threshold the whole block-diagonal
    matrix gets (_cut with `whole`). The parts of one shape go to LAPACK
    as one stack; a lone part is rank_nullspace of it."""
    if len(parts) == 1:
        return _rank_nullspaces(parts[0][None], tol_rel, scale, stacklevel + 1)
    groups = _by_shape(parts)
    whole = max(sum(p.shape[0] for p in parts), sum(p.shape[1] for p in parts))
    stacks = [np.stack([parts[i] for i in idx]) for idx in groups.values()]
    out: list = [None] * len(parts)
    for idx, results in zip(groups.values(), _decide(stacks, tol_rel, scale, stacklevel + 1, whole)):
        for i, res in zip(idx, results):
            out[i] = res
    return out


def rank_nullspace(a, tol_rel: float = DEFAULT_TOL, scale: float = 0.0) -> RankResult:
    """SVD rank decision with orthonormal kernel and cokernel bases.

    The threshold is tol_rel * max(rows, cols) * sigma_max, falling back to
    tol_rel itself for the zero matrix. Singular values within a factor of
    10 of the threshold trigger an AmbiguousRankWarning; the computation
    still proceeds with the stated cut.

    `scale` anchors the threshold from below for matrices derived from
    larger computations: a product like P @ A @ Q that is zero in exact
    arithmetic carries float noise, and measuring it against its own
    largest singular value would invent rank. Passing the ambient scale
    keeps the cut honest. Zero (the default) preserves the self-relative
    behaviour. This is _rank_nullspaces on a stack of one, which checks
    the entries.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise InvalidInput(f"matrix: expected a 2-d array, got ndim={a.ndim}")
    return _rank_nullspaces(a[None], tol_rel, scale, stacklevel=3)[0]


def range_basis(a, tol_rel: float = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of a, as an array of
    its own (from a thin SVD; the threshold and the AmbiguousRankWarning
    are rank_nullspace's).

    `scale` has the same role as in rank_nullspace.
    """
    u, _, _, _, rank, _ = _cut([as_cmatrix(a)[None]], tol_rel, scale, full=False)[0]
    return u[0, :, : rank[0]].copy()


def _largest_norm(stacks) -> float:
    """Largest singular value over every matrix of the given (n, rows,
    cols) stacks; 0.0 when all are zero or empty.

    It is sqrt of the top eigenvalue of each matrix's smaller Gram matrix,
    the Gram matrices of one size, over all stacks, in one eigvalsh call;
    no SVD runs. Each stack is first scaled by one power of two (exact)
    that brings its largest entry into [1/2, 1), so entries beyond sqrt of
    the float range do not overflow a Gram matrix. A matrix of the largest
    norm has an entry within sqrt(rows * cols) of the stack's largest, so
    its Gram matrix does not underflow either.
    """
    grams: dict = defaultdict(list)
    for stack in stacks:
        top = float(np.abs(stack).max()) if stack.size else 0.0
        if top == 0.0:
            continue
        exp = math.frexp(top)[1]
        a = stack * math.ldexp(1.0, -exp)
        ah = a.conj().swapaxes(1, 2)
        # the smaller Gram matrix
        grams[min(a.shape[1:])].append((exp, ah @ a if a.shape[2] <= a.shape[1] else a @ ah))
    largest = 0.0
    for items in grams.values():
        tops = np.linalg.eigvalsh(np.concatenate([gram for _, gram in items]))[:, -1]
        at = 0
        for exp, gram in items:
            top = max(float(tops[at : at + len(gram)].max()), 0.0)
            largest = max(largest, math.ldexp(math.sqrt(top), exp))
            at += len(gram)
    return largest


def operator_norm(a) -> float:
    """Largest singular value of a (_largest_norm of one matrix)."""
    return _largest_norm([as_cmatrix(a)[None]])


def det_modulus(a) -> float:
    """|det a| via a pivoted factorization, exactly 0.0 for rank-deficient input.

    Rank deficiency is decided with the default tolerance, so a numerically
    singular matrix reports 0 instead of a meaningless tiny modulus. A
    modulus outside the float range raises TorsionError.
    """
    a = as_cmatrix(a)
    rows, cols = a.shape
    if rows != cols:
        raise InvalidInput(f"det_modulus needs a square matrix, got {rows}x{cols}")
    if rows == 0:
        return 1.0
    if rank_nullspace(a).rank < rows:
        return 0.0
    _, logdet = np.linalg.slogdet(a)
    return modulus_from_log(float(logdet), "determinant")


def singular_product(a, tol_rel: float = DEFAULT_TOL) -> float:
    """Product of the retained (above-threshold) singular values of a.

    For an invertible matrix this equals |det a|; in general it is the
    determinant modulus of the map restricted to the orthogonal complement
    of its kernel, which is what torsion factors of non-acyclic blocks use.
    A product outside the float range raises TorsionError.
    """
    return modulus_from_log(rank_nullspace(a, tol_rel).log_kept, "singular product")
