import numpy as np
import pytest

from torsflow import CWComplex, InvalidInput, Representation, trivial_representation
from helpers import rand_unitary, word_fold


def test_identity_on_empty_word():
    rep = Representation(2, {"a": np.eye(2)})
    assert np.allclose(rep.evaluate(()), np.eye(2))
    assert np.allclose(rep.evaluate(""), np.eye(2))


def test_word_products_and_inverses():
    rng = np.random.default_rng(5)
    u = rand_unitary(rng, 3)
    v = rand_unitary(rng, 3)
    rep = Representation(3, {"a": u, "b": v})
    assert np.allclose(rep.evaluate(["a", "b"]), u @ v, atol=1e-12)
    assert np.allclose(rep.evaluate(["a", "a^-1"]), np.eye(3), atol=1e-12)
    assert np.allclose(rep.evaluate("b^-1 a"), v.conj().T @ u, atol=1e-12)


def test_non_unitary_rejected():
    with pytest.raises(InvalidInput):
        Representation(1, {"a": [[2.0]]})


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidInput):
        Representation(2, {"a": np.eye(3)})


def test_unknown_generator():
    rep = Representation(1, {"a": [[1.0]]})
    with pytest.raises(InvalidInput):
        rep.evaluate(["b"])
    assert rep.word_errors(["b", "a"]) != []
    assert rep.word_errors(["a"]) == []


def test_inverse_suffix_parses_alike_everywhere():
    # token matrices, word errors and CW generator names read "a^-1" as
    # the generator "a", inverted
    rng = np.random.default_rng(7)
    u = rand_unitary(rng, 2)
    rep = Representation(2, {"a": u})
    assert np.array_equal(rep.token_matrix("a"), u)
    assert np.array_equal(rep.token_matrix("a^-1"), u.conj().T)
    assert rep.word_errors(["a^-1"]) == rep.word_errors(["a"]) == []
    assert rep.word_errors(["b^-1"]) == rep.word_errors(["b"]) == ["unknown generator 'b'"]
    for token in ("a", "a^-1"):
        cw = CWComplex({0: ["v"], 1: ["e"]}, {"e": [("v", 1, (token,)), ("v", -1, ())]})
        assert cw.generator_names() == ["a"]


def test_bad_generator_names():
    with pytest.raises(InvalidInput):
        Representation(1, {"a^": [[1.0]]})
    with pytest.raises(InvalidInput):
        Representation(1, {"": [[1.0]]})


def test_conjugated():
    rng = np.random.default_rng(6)
    u = rand_unitary(rng, 2)
    v = rand_unitary(rng, 2)
    rep = Representation(2, {"a": u}).conjugated(v)
    assert np.allclose(rep.evaluate(["a"]), v @ u @ v.conj().T, atol=1e-12)


def test_trivial_representation():
    rep = trivial_representation(["t", "s"], dim=2)
    assert np.allclose(rep.evaluate(["t", "s^-1"]), np.eye(2))


def test_evaluate_words_matches_a_plain_fold(monkeypatch):
    # repeated words, words listed before their prefixes, the empty word and
    # inverse tokens: each value is array_equal to its word folded alone, and
    # each distinct nonempty prefix costs one generator product
    rng = np.random.default_rng(7)
    rep = Representation(3, {"a": rand_unitary(rng, 3), "b": rand_unitary(rng, 3)})
    words = [
        ("a", "b", "a^-1", "b"), ("a",), (), ("a", "b"), ("a", "b", "a^-1", "b"),
        ("b^-1", "a^-1"), ("b^-1",), (), ("a", "b", "a^-1"), ("a", "a^-1"), "b^-1 a b",
    ]
    tokens = [tuple(w.split()) if isinstance(w, str) else w for w in words]
    want = [word_fold(rep, w) for w in tokens]
    calls = []
    original = Representation.token_matrix

    def counted(self, token):
        calls.append(token)
        return original(self, token)

    monkeypatch.setattr(Representation, "token_matrix", counted)
    got = rep.evaluate_words(words)
    assert len(got) == len(words)
    for value, expect in zip(got, want):
        assert np.array_equal(value, expect)
    assert len(calls) == len({w[:n] for w in tokens for n in range(1, len(w) + 1)})
