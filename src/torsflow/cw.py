"""Twisted cochain complexes of finite CW complexes, the independent oracle.

Cells carry boundary data with explicit basepoint-path holonomies: the
boundary of a cell is a list of (face id, incidence, path word). The
twisted coboundary block from an i-cell sigma to an (i+1)-cell tau is

    sum of incidence * rho(path)  over boundary terms of tau on sigma,

and del o del = 0 is checked numerically for each representation. Each
twisted_cochain call evaluates all boundary paths in one
Representation.evaluate_words walk. cw_torsion then decides each
differential's rank once and takes the cohomology dimensions and harmonic
bases from those decisions.

The corpus (point, circle, torus, Klein bottle, lens spaces) gives every
block type of the critical-block model an independently computable
counterpart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import BasedComplex, TorsionScalar, _dims_and_torsion
from .errors import InvalidCW, InvalidInput, NotAComplex
from .linalg import DEFAULT_TOL, operator_norm
from .representation import Representation, parse_word, split_token

__all__ = [
    "CWComplex", "circle", "cw_torsion", "elementary_expansion", "klein_bottle", "lens_space", "point",
    "rp3", "torus", "twisted_cochain"
]


@dataclass(frozen=True)
class BoundaryTerm:
    face: str
    incidence: int
    path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "path", parse_word(self.path))
        if not isinstance(self.incidence, int) or isinstance(self.incidence, bool):
            raise InvalidInput(f"incidence must be an integer, got {self.incidence!r}")


class CWComplex:
    """Finite CW complex of dimension at most 3.

    cells[k] is the ordered tuple of k-cell ids; boundaries[cell_id] the
    boundary terms of that cell (absent or empty for 0-cells).
    """

    def __init__(self, cells: dict, boundaries: dict):
        self.cells = {k: tuple(str(c) for c in cells.get(k, ())) for k in range(4)}
        names = [c for k in range(4) for c in self.cells[k]]
        if len(set(names)) != len(names):
            raise InvalidCW("cell ids must be unique")
        self.dim_of = {}
        for k in range(4):
            for c in self.cells[k]:
                self.dim_of[c] = k
        self.boundaries = {}
        for cell, terms in boundaries.items():
            cell = str(cell)
            if cell not in self.dim_of:
                raise InvalidCW(f"boundary given for unknown cell {cell!r}")
            k = self.dim_of[cell]
            if k == 0 and terms:
                raise InvalidCW(f"0-cell {cell} cannot have boundary terms")
            parsed = []
            for t in terms:
                term = t if isinstance(t, BoundaryTerm) else BoundaryTerm(*t)
                if term.face not in self.dim_of:
                    raise InvalidCW(f"cell {cell}: unknown face {term.face!r}")
                if self.dim_of[term.face] != k - 1:
                    raise InvalidCW(
                        f"cell {cell} (dim {k}): face {term.face} has dim "
                        f"{self.dim_of[term.face]}, expected {k - 1}"
                    )
                parsed.append(term)
            self.boundaries[cell] = tuple(parsed)

    def counts(self) -> tuple:
        return tuple(len(self.cells[k]) for k in range(4))

    def generator_names(self) -> list[str]:
        names = []
        for terms in self.boundaries.values():
            for t in terms:
                for token in t.path:
                    name, _ = split_token(token)
                    if name not in names:
                        names.append(name)
        return names

    def to_document(self) -> dict:
        """The same structure the command line reads back."""
        return {
            "cells": {str(k): list(self.cells[k]) for k in range(4) if self.cells[k]},
            "boundaries": {
                cell: [[t.face, t.incidence, list(t.path)] for t in terms]
                for cell, terms in self.boundaries.items()
                if terms
            },
        }


def twisted_cochain(k_complex: CWComplex, rep: Representation) -> BasedComplex:
    """Cochain complex with local coefficients: one C^m fiber per cell.

    Raises InvalidCW when the twisted coboundary fails del o del = 0, which
    also catches representations incompatible with the attaching data.
    """
    m = rep.dim
    dims = [m * len(k_complex.cells[k]) for k in range(4)]
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
    pos = {c: i for k in range(4) for i, c in enumerate(k_complex.cells[k])}
    diffs = [np.zeros((dims[k + 1], dims[k]), dtype=complex) for k in range(len(dims) - 1)]
    terms = [(cell, t) for cell, ts in k_complex.boundaries.items() for t in ts]
    for (cell, t), value in zip(terms, rep.evaluate_words(t.path for _, t in terms)):
        rows = slice(pos[cell] * m, (pos[cell] + 1) * m)
        cols = slice(pos[t.face] * m, (pos[t.face] + 1) * m)
        diffs[k_complex.dim_of[cell] - 1][rows, cols] += t.incidence * value
    # blocks are sums of unitaries: anchor rank decisions at the complex's
    # own scale so a boundary that cancels to rounding noise stays rank 0
    anchor = max([1.0] + [operator_norm(d) for d in diffs])
    try:
        return BasedComplex(dims, diffs, rank_scale=anchor)
    except NotAComplex as err:
        raise InvalidCW(f"twisted boundary is not a complex: {err}") from err


def cw_torsion(
    k_complex: CWComplex, rep: Representation, tol_rel: float = DEFAULT_TOL
) -> tuple[tuple, TorsionScalar]:
    """Twisted cohomology dimensions and torsion modulus of a CW complex.

    The modulus is taken relative to the cell-preferred basis; in the
    acyclic case it is independent of every internal choice. One rank
    decision per differential gives the dimensions, the harmonic bases
    (ker d^i cut against im d^(i-1)) and the torsion, as complex_torsion
    computes it.
    """
    return _dims_and_torsion(twisted_cochain(k_complex, rep), None, None, tol_rel)


# ---------------------------------------------------------------------------
# corpus


def point() -> CWComplex:
    return CWComplex({0: ["v"]}, {})


def circle() -> CWComplex:
    """One 0-cell, one 1-cell attached along the generator t."""
    return CWComplex(
        {0: ["v"], 1: ["e"]},
        {"e": [("v", 1, ("t",)), ("v", -1, ())]},
    )


def _attaching_terms(word):
    """Boundary terms of a 2-cell attached along a word in edge generators.

    word is a sequence of (edge name, +1 or -1); walking it keeps the
    prefix path, and a reversed letter contributes -1 translated past its
    own inverse.
    """
    terms = []
    prefix: list[str] = []
    for name, exp in word:
        if exp == 1:
            terms.append((name, 1, tuple(prefix)))
            prefix.append(name)
        else:
            prefix.append(f"{name}^-1")
            terms.append((name, -1, tuple(prefix)))
    return terms


def _one_vertex_surface(word) -> CWComplex:
    edges = []
    for name, _ in word:
        if name not in edges:
            edges.append(name)
    boundaries = {e: [("v", 1, (e,)), ("v", -1, ())] for e in edges}
    boundaries["F"] = _attaching_terms(word)
    return CWComplex({0: ["v"], 1: edges, 2: ["F"]}, boundaries)


def torus() -> CWComplex:
    """Standard one-vertex torus, face attached along a b a^-1 b^-1."""
    return _one_vertex_surface([("a", 1), ("b", 1), ("a", -1), ("b", -1)])


def klein_bottle() -> CWComplex:
    """Standard one-vertex Klein bottle, face attached along a b a b^-1."""
    return _one_vertex_surface([("a", 1), ("b", 1), ("a", 1), ("b", -1)])


def lens_space(p: int, q: int) -> CWComplex:
    """Lens space L(p, q) with one cell per dimension.

    Boundary words encode del_1 = t - 1, del_2 = 1 + t + ... + t^(p-1),
    del_3 = t^(q*) - 1 with q q* = 1 mod p. Representations must send t to
    a p-th root of unity for the twisted complex to close.
    """
    p, q = int(p), int(q)
    if p < 2:
        raise InvalidInput(f"lens space needs p >= 2, got {p}")
    if math.gcd(p, q) != 1:
        raise InvalidInput(f"lens space needs gcd(p, q) = 1, got p={p}, q={q}")
    qstar = pow(q % p, -1, p)
    return CWComplex(
        {0: ["v"], 1: ["e"], 2: ["f"], 3: ["c"]},
        {
            "e": [("v", 1, ("t",)), ("v", -1, ())],
            "f": [("e", 1, ("t",) * k) for k in range(p)],
            "c": [("f", 1, ("t",) * qstar), ("f", -1, ())],
        },
    )


def rp3() -> CWComplex:
    """Real projective 3-space, alias for L(2, 1)."""
    return lens_space(2, 1)


def elementary_expansion(k_complex: CWComplex, dim: int = 0) -> CWComplex:
    """Glue a collapsible cell pair (dim, dim + 1) onto the first 0-cell.

    dim 0 adds a vertex and an edge to it; dim 1 adds a trivial loop and a
    face collapsing onto it. Twisted cohomology and torsion modulus are
    invariant under this, which the tests use as a subdivision proxy.
    """
    if not k_complex.cells[0]:
        raise InvalidInput("need a 0-cell to expand at")
    v = k_complex.cells[0][0]
    cells = {k: list(k_complex.cells[k]) for k in range(4)}
    boundaries = {c: list(t) for c, t in k_complex.boundaries.items()}
    if dim == 0:
        cells[0] = cells[0] + ["v+"]
        cells[1] = cells[1] + ["e+"]
        boundaries["e+"] = [("v+", 1, ()), (v, -1, ())]
    elif dim == 1:
        cells[1] = cells[1] + ["e+"]
        cells[2] = cells[2] + ["f+"]
        boundaries["e+"] = [(v, 1, ()), (v, -1, ())]
        boundaries["f+"] = [("e+", 1, ())]
    else:
        raise InvalidInput("expansion implemented for dim 0 and 1")
    return CWComplex(cells, boundaries)
