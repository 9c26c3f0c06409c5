"""Unitary representations of a finitely generated fundamental group.

A representation is a finite set of named unitary matrices. Holonomy
words are sequences of generator tokens, each token a generator name or
the name followed by "^-1"; evaluation is the left-to-right matrix
product, with inverses taken as conjugate transposes (valid for unitary
generators). A word may also be given as a single whitespace separated
string.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Union

import numpy as np

from .errors import InvalidInput
from .linalg import as_cmatrix

__all__ = ["Representation", "trivial_representation"]

UNITARY_TOL = 1e-9

Word = Union[str, Iterable[str]]


def parse_word(word: Word) -> tuple[str, ...]:
    """Normalize a holonomy word to a tuple of tokens."""
    if word is None:
        return ()
    if isinstance(word, str):
        tokens = tuple(word.split())
    else:
        tokens = tuple(word)
    for t in tokens:
        if not isinstance(t, str) or not t:
            raise InvalidInput(f"bad word token {t!r}")
    return tokens


def split_token(token: str) -> tuple[str, bool]:
    """A word token as (generator name, whether it names the inverse)."""
    if token.endswith("^-1"):
        return token[:-3], True
    return token, False


def unitary_defect(u: np.ndarray) -> float:
    """Max-norm of u^H u - I."""
    n = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(n)).max()) if n else 0.0


class Representation:
    """Generators of pi_1 mapped to unitary matrices, with word evaluation."""

    def __init__(self, dim: int, generators: Mapping[str, np.ndarray]):
        self.dim = int(dim)
        if self.dim < 1:
            raise InvalidInput(f"representation dimension must be positive, got {dim}")
        gens = {}
        for name, mat in generators.items():
            if not isinstance(name, str) or not name or "^" in name or " " in name:
                raise InvalidInput(f"bad generator name {name!r}")
            m = as_cmatrix(mat, f"generator {name}").copy()
            if m.shape != (self.dim, self.dim):
                raise InvalidInput(
                    f"generator {name} has shape {m.shape}, expected {(self.dim, self.dim)}"
                )
            defect = unitary_defect(m)
            if defect > UNITARY_TOL:
                raise InvalidInput(
                    f"generator {name} is not unitary: max |U^H U - I| = {defect:.3e}"
                )
            m.setflags(write=False)
            gens[name] = m
        self.generators = gens

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def token_matrix(self, token: str) -> np.ndarray:
        name, invert = split_token(token)
        if name not in self.generators:
            raise InvalidInput(f"unknown generator {name!r}")
        mat = self.generators[name]
        return mat.conj().T if invert else mat

    def evaluate(self, word: Word) -> np.ndarray:
        """Product of generator matrices along the word; identity for the empty word."""
        return self.evaluate_words([word])[0]

    def evaluate_words(self, words: Iterable[Word]) -> list[np.ndarray]:
        """rho of each word, in order, evaluating every distinct prefix once.

        A word extends its longest prefix evaluated in this call by one
        product per further letter (t^0 .. t^(p-1) cost p - 1 products), left
        to right from the identity, so each value is bit-identical to its word
        evaluated alone. The prefix table is local to the call, so no
        reference cycle outlives it. Repeated words share one array.
        """
        values = {(): self.identity()}
        out = []
        for word in words:
            path = parse_word(word)
            n = len(path)
            while path[:n] not in values:
                n -= 1
            value = values[path[:n]]
            for j in range(n, len(path)):
                value = value @ self.token_matrix(path[j])
                values[path[: j + 1]] = value
            out.append(value)
        return out

    def word_errors(self, word: Word) -> list[str]:
        """Unknown-generator messages for a word, without raising."""
        bad = []
        for token in parse_word(word):
            name, _ = split_token(token)
            if name not in self.generators:
                bad.append(f"unknown generator {name!r}")
        return bad

    def conjugated(self, v: np.ndarray) -> "Representation":
        """Representation with every generator g replaced by v g v^H."""
        v = as_cmatrix(v, "conjugating matrix")
        if unitary_defect(v) > UNITARY_TOL:
            raise InvalidInput("conjugating matrix must be unitary")
        return Representation(
            self.dim, {name: v @ g @ v.conj().T for name, g in self.generators.items()}
        )


def trivial_representation(names: Iterable[str], dim: int = 1) -> Representation:
    """Identity representation on the given generator names."""
    eye = np.eye(dim, dtype=complex)
    return Representation(dim, {name: eye for name in names})
