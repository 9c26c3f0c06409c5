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
* block_operator_norm reads a matrix from its nonzero blocks, so a norm
  of a large block-sparse operator needs no dense copy of it.
"""
from __future__ import annotations

import math
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, TorsionError

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


def _cut(stack: np.ndarray, tol_rel: float, scale: float, full: bool = True, stacklevel: int = 3):
    """The SVDs of an (n, rows, cols) stack (thin unless full), and per
    matrix, as lists: its threshold tol_rel * max(rows, cols) * sigma_max
    (sigma_max anchored from below by scale, tol_rel itself for zero), its
    rank and whether its cut is ambiguous: some singular value within a
    factor of 10 of the threshold. One AmbiguousRankWarning covers the
    stack, raised at the frame `stacklevel` up (the caller of the public
    entry point). tol_rel must lie in (0, 1)."""
    if not 0.0 < tol_rel < 1.0:
        raise InvalidInput(f"tol_rel must lie in (0, 1), got {tol_rel}")
    u, s, vh = _svd(stack, full)
    n, rows, cols = stack.shape
    big, scale = tol_rel * max(rows, cols), float(scale)
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
    if any(ambiguous):
        where = f" ({sum(ambiguous)} of {n} matrices)" if n > 1 else ""
        warnings.warn(
            AmbiguousRankWarning(
                f"singular value within a factor of 10 of threshold "
                f"{thresholds[ambiguous.index(True)]:.3e}{where}"
            ),
            stacklevel=stacklevel,
        )
    return u, s, vh, thresholds, ranks, ambiguous


def _rank_nullspaces(
    stack, tol_rel: float = DEFAULT_TOL, scale: float = 0.0, stacklevel: int = 2
) -> list[RankResult]:
    """rank_nullspace of every matrix of an (n, rows, cols) stack, in
    order, from one LAPACK call. Each matrix keeps its own threshold, rank
    and ambiguity flag, so each result equals its matrix decided alone;
    one AmbiguousRankWarning covers the stack, raised as warnings.warn
    would with `stacklevel` here (2: at the caller)."""
    u, s, vh, thresholds, ranks, ambiguous = _cut(
        _as_carray(stack, 3, "matrix"), tol_rel, scale, stacklevel=stacklevel + 1
    )
    return [
        RankResult(
            rank=rank,
            kernel_basis=vh_i[rank:].conj().T,
            cokernel_basis=u_i[:, rank:],
            row_basis=vh_i[:rank].conj().T,
            range_basis=u_i[:, :rank],
            singular_values=s_i,
            tolerance_used=threshold,
            ambiguous=flag,
        )
        for u_i, s_i, vh_i, rank, threshold, flag in zip(u, s, vh, ranks, thresholds, ambiguous)
    ]


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
    u, _, _, _, rank, _ = _cut(as_cmatrix(a)[None], tol_rel, scale, full=False)
    return u[0, :, : rank[0]].copy()


def operator_norm(a) -> float:
    """Largest singular value of a; block_operator_norm with a as its one
    block."""
    return block_operator_norm({(0, 0): as_cmatrix(a)})


def block_operator_norm(blocks: dict) -> float:
    """Largest singular value of the matrix whose nonzero blocks are
    blocks[(row, col)] (every block of one row key has the same height,
    every block of one column key the same width), as sqrt of the top
    eigenvalue of the smaller Gram matrix; 0.0 for a zero or empty matrix.

    The Gram matrix is summed block by block, so the matrix itself is never
    formed, and no SVD runs. It is formed from the blocks scaled by one
    power of two (exact), so entries beyond sqrt of the float range do not
    overflow it.
    """
    top = max((float(np.abs(b).max()) for b in blocks.values() if b.size), default=0.0)
    if top == 0.0:
        return 0.0
    exp = math.frexp(top)[1]
    factor = math.ldexp(1.0, -exp)
    heights = {r: b.shape[0] for (r, _), b in blocks.items()}
    widths = {c: b.shape[1] for (_, c), b in blocks.items()}
    if sum(widths.values()) > sum(heights.values()):
        # the smaller Gram matrix is that of the conjugate transpose
        blocks = {(c, r): b.conj().T for (r, c), b in blocks.items()}
        widths = heights
    start, size = {}, 0
    for c, width in widths.items():
        start[c], size = size, size + width
    by_row = defaultdict(list)
    for (r, c), b in blocks.items():
        by_row[r].append((slice(start[c], start[c] + b.shape[1]), b * factor))
    gram = np.zeros((size, size), dtype=complex)
    for row in by_row.values():
        for i, left in row:
            for j, right in row:
                gram[i, j] += left.conj().T @ right
    return math.ldexp(math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)), exp)


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
