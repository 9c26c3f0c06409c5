import numpy as np
import pytest

from torsflow import (
    RELATIVE_NOTE,
    CWComplex,
    InvalidCW,
    InvalidInput,
    Representation,
    circle,
    cohomology_bases,
    cw_torsion,
    elementary_expansion,
    klein_bottle,
    lens_space,
    point,
    rp3,
    torus,
    trivial_representation,
    twisted_cochain,
)
from torsflow.documents import parse_cw
from helpers import assert_same_span, lens_rep, rand_unitary, stacked_kernel, word_fold


def char_rep(z):
    return Representation(1, {"t": [[z]]})


class TestTwistedCochain:
    def test_point(self):
        rng = np.random.default_rng(40)
        rep = Representation(3, {"t": rand_unitary(rng, 3)})
        c = twisted_cochain(point(), rep)
        assert c.dims == (3,)

    def test_circle_block(self):
        c = twisted_cochain(circle(), char_rep(-1.0))
        assert np.allclose(c.diffs[0], [[-2.0]])

    def test_torus_trivial_rep(self):
        dims, _ = cw_torsion(torus(), trivial_representation(["a", "b"]))
        assert dims == (1, 2, 1)

    def test_incompatible_rep_rejected(self):
        # rho(t) must be a p-th root of unity on a lens space
        with pytest.raises(InvalidCW):
            twisted_cochain(lens_space(3, 1), char_rep(-1.0))

    def test_bad_cells_rejected(self):
        from torsflow import CWComplex

        with pytest.raises(InvalidCW):
            CWComplex({0: ["v", "v"]}, {})
        with pytest.raises(InvalidCW):
            CWComplex({0: ["v"], 2: ["f"]}, {"f": [("v", 1, ())]})


class TestCwTorsion:
    def test_circle_minus_one(self):
        dims, tau = cw_torsion(circle(), char_rep(-1.0))
        assert dims == (0, 0)
        assert tau.modulus == pytest.approx(2.0, rel=1e-12)

    def test_rp3_matches_kovalevskaya_total(self):
        dims, tau = cw_torsion(rp3(), char_rep(-1.0))
        assert dims == (0, 0, 0, 0)
        assert tau.modulus == pytest.approx(4.0, rel=1e-10)

    def test_trivial_rep_gives_betti_numbers(self):
        for k, expect in [
            (point(), (1,)),
            (circle(), (1, 1)),
            (torus(), (1, 2, 1)),
            (lens_space(7, 2), (1, 0, 0, 1)),
        ]:
            rep = trivial_representation(k.generator_names() or ["t"])
            dims, _ = cw_torsion(k, rep)
            assert dims == expect

    def test_klein_bottle_complex_coefficients(self):
        dims, _ = cw_torsion(klein_bottle(), trivial_representation(["a", "b"]))
        assert dims == (1, 1, 0)

    def test_euler_characteristic(self):
        # alternating sum of m * (cell counts) = alternating sum of twisted dims
        rng = np.random.default_rng(41)
        cases = [
            (circle(), Representation(2, {"t": rand_unitary(rng, 2)})),
            (torus(), trivial_representation(["a", "b"], 2)),
            (klein_bottle(), trivial_representation(["a", "b"])),
            (rp3(), Representation(2, {"t": np.diag([-1.0, 1.0])})),
            (lens_space(5, 2), char_rep(np.exp(2j * np.pi * 2 / 5))),
        ]
        for k, rep in cases:
            m = rep.dim
            dims, _ = cw_torsion(k, rep)
            cells = k.counts()
            lhs = sum((-1) ** i * m * c for i, c in enumerate(cells))
            rhs = sum((-1) ** i * d for i, d in enumerate(dims + (0,) * 4))
            assert lhs == rhs


class TestLensSpaces:
    def test_gcd_rejected(self):
        with pytest.raises(InvalidInput):
            lens_space(4, 2)
        with pytest.raises(InvalidInput):
            lens_space(1, 1)

    def test_character_formula(self):
        for p, q in [(2, 1), (3, 1), (5, 1), (5, 2), (7, 1), (7, 3)]:
            qstar = pow(q, -1, p)
            for k in range(1, p):
                z = np.exp(2j * np.pi * k / p)
                dims, tau = cw_torsion(lens_space(p, q), char_rep(z))
                assert dims == (0, 0, 0, 0)
                expect = abs(z - 1) * abs(z ** qstar - 1)
                assert tau.modulus == pytest.approx(expect, rel=1e-10)

    def test_conjugate_character_invariance(self):
        for p, q in [(5, 1), (7, 2)]:
            z = np.exp(2j * np.pi / p)
            t1 = cw_torsion(lens_space(p, q), char_rep(z))[1].modulus
            t2 = cw_torsion(lens_space(p, q), char_rep(np.conj(z)))[1].modulus
            assert t1 == pytest.approx(t2, rel=1e-10)

    def test_higher_dimensional_rep(self):
        # direct sum of two nontrivial characters of Z_5
        u = np.diag([np.exp(2j * np.pi / 5), np.exp(4j * np.pi / 5)])
        rep = Representation(2, {"t": u})
        dims, tau = cw_torsion(lens_space(5, 1), rep)
        assert dims == (0, 0, 0, 0)
        expect = abs(u[0, 0] - 1) ** 2 * abs(u[1, 1] - 1) ** 2
        assert tau.modulus == pytest.approx(expect, rel=1e-10)


class TestExpansionInvariance:
    @pytest.mark.parametrize("dim", [0, 1])
    def test_expansion_preserves_acyclic_torsion(self, dim):
        cases = [
            (rp3(), char_rep(-1.0)),
            (circle(), char_rep(-1.0)),
            (lens_space(5, 2), char_rep(np.exp(2j * np.pi / 5))),
            (lens_space(7, 3), char_rep(np.exp(4j * np.pi / 7))),
        ]
        for k, rep in cases:
            dims0, tau0 = cw_torsion(k, rep)
            expanded = elementary_expansion(k, dim)
            dims1, tau1 = cw_torsion(expanded, rep)
            assert tuple(dims1[: len(dims0)]) == dims0
            assert tau1.modulus == pytest.approx(tau0.modulus, rel=1e-9)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_expansion_preserves_cohomology_dims(self, dim):
        # with nonzero cohomology the torsion modulus is relative to computed
        # bases, which change across complexes; the dimensions must not
        cases = [
            (torus(), trivial_representation(["a", "b"])),
            (lens_space(3, 1), trivial_representation(["t"])),
        ]
        for k, rep in cases:
            dims0, _ = cw_torsion(k, rep)
            dims1, _ = cw_torsion(elementary_expansion(k, dim), rep)
            assert tuple(dims1[: len(dims0)]) == dims0


def test_boolean_incidence_rejected():
    from torsflow import ParseError
    from torsflow.cw import BoundaryTerm

    with pytest.raises(InvalidInput):
        BoundaryTerm("v", True)
    doc = {"cells": {"0": ["v"], "1": ["e"]}, "boundaries": {"e": [["v", True, ["t"]], ["v", -1, []]]}}
    with pytest.raises(ParseError):
        parse_cw(doc)


def test_document_round_trip():
    for k in (circle(), torus(), rp3()):
        doc = k.to_document()
        back = parse_cw(doc)
        assert back.counts() == k.counts()
        rep = trivial_representation(k.generator_names() or ["t"])
        assert cw_torsion(back, rep)[0] == cw_torsion(k, rep)[0]
        z = -1.0 if k.cells[3] else None
        if z is not None:
            r = char_rep(z)
            assert cw_torsion(back, r)[1].modulus == pytest.approx(
                cw_torsion(k, r)[1].modulus, rel=1e-12
            )


# ---------------------------------------------------------------------------
# one prefix walk per twisted_cochain, one rank decision per differential


def word_cochain(k, rep):
    """Reference cochain: every block from a fold over its whole path."""
    m = rep.dim
    pos = {c: i for d in range(4) for i, c in enumerate(k.cells[d])}
    dims = [m * len(k.cells[d]) for d in range(4)]
    diffs = [np.zeros((dims[d + 1], dims[d]), dtype=complex) for d in range(3)]
    for cell, terms in k.boundaries.items():
        rows = slice(pos[cell] * m, (pos[cell] + 1) * m)
        for t in terms:
            cols = slice(pos[t.face] * m, (pos[t.face] + 1) * m)
            diffs[k.dim_of[cell] - 1][rows, cols] += t.incidence * word_fold(rep, t.path)
    return diffs


def surface_reps(rng):
    """Seeded 3x3 unitaries on the torus (commuting a, b) and the Klein
    bottle (b a b^-1 = a^-1)."""
    v = rand_unitary(rng, 3)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 3)))
    conj = lambda d: v @ d @ v.conj().T
    torus_rep = Representation(3, {"a": conj(np.diag(phases[0])), "b": conj(np.diag(phases[1]))})
    theta = phases[2, 0]
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) @ np.diag(phases[2])
    klein_rep = Representation(3, {"a": conj(np.diag([theta, np.conj(theta), 1])), "b": conj(swap)})
    return [(torus(), torus_rep), (klein_bottle(), klein_rep)]


def test_lens_cohomology_bases_match_the_stacked_kernel():
    # `ones` trivial eigenvalues of rho(t) give H = C^ones in degrees 0 and 3
    rng = np.random.default_rng(74)
    for p, q, m, ones in [(2, 1, 1, 0), (2, 1, 1, 1), (5, 2, 3, 1), (31, 7, 4, 2), (97, 54, 6, 0)]:
        c = twisted_cochain(lens_space(p, q), lens_rep(rng, p, m, ones)[0])
        bases = cohomology_bases(c)
        assert [h.shape[1] for h in bases] == [ones, 0, 0, ones]
        for i, h in enumerate(bases):
            assert_same_span(h, stacked_kernel([c.diff(i), c.diff(i - 1).conj().T], c.rank_scale))


def test_prefix_walk_matches_word_evaluation():
    rng = np.random.default_rng(71)
    cases = [
        (lens_space(p, q), lens_rep(rng, p, m)[0])
        for p, q in [(2, 1), (31, 7), (97, 54)]
        for m in (1, 4, 48)
    ]
    cases += surface_reps(rng)
    cases += [(elementary_expansion(k, i % 2), rep) for i, (k, rep) in enumerate(cases)]
    for k, rep in cases:
        c = twisted_cochain(k, rep)
        # the reference keeps the empty top differentials that twisted_cochain drops
        for got, want in zip(c.diffs, word_cochain(k, rep)):
            assert np.array_equal(got, want)


def test_prefix_walk_token_products(monkeypatch):
    # boundary words t^0 .. t^96 and t^(q*): one product per new letter
    rep = lens_rep(np.random.default_rng(72), 97, 48)[0]
    calls = []
    original = Representation.token_matrix

    def counted(self, token):
        calls.append(token)
        return original(self, token)

    monkeypatch.setattr(Representation, "token_matrix", counted)
    twisted_cochain(lens_space(97, 54), rep)
    assert len(calls) == 96


def test_long_word_before_its_prefixes():
    # t^1499 is listed before all its prefixes: the walk evaluates it
    # letter by letter without recursing
    p, a = 1500, 7
    lens = lens_space(p, 1)
    boundaries = dict(lens.boundaries)
    boundaries["f"] = sorted(boundaries["f"], key=lambda t: -len(t.path))
    assert len(boundaries["f"][0].path) == p - 1
    k = CWComplex({d: list(lens.cells[d]) for d in range(4)}, boundaries)
    zeta = np.exp(2j * np.pi / p)
    dims, tau = cw_torsion(k, char_rep(zeta ** a))
    assert dims == (0, 0, 0, 0)
    qstar = 1
    expect = abs(zeta ** a - 1) * abs(zeta ** (a * qstar) - 1)
    assert tau.modulus == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("ones, svds", [(0, 5), (3, 6)])
def test_one_rank_decision_per_differential(monkeypatch, ones, svds):
    # L(97, 54), m = 48: one SVD per nonempty differential (3) and one cut
    # of ker d^i against im d^(i-1) in each degree where both are nonzero
    # (degrees 1 and 3; degree 2 too when rho has trivial eigenvalues)
    p, q = 97, 54
    rep, a = lens_rep(np.random.default_rng(73), p, 48, ones=ones)
    calls = []
    original = np.linalg.svd

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    dims, tau = cw_torsion(lens_space(p, q), rep)
    assert len(calls) == svds
    qstar = pow(q, -1, p)
    zeta = np.exp(2j * np.pi / p)
    # a nontrivial eigenvalue zeta^a contributes |zeta^a - 1||zeta^(a q*) - 1|,
    # a trivial one 1/p relative to the harmonic basis
    log_expect = -ones * np.log(p) + sum(
        np.log(abs(zeta ** x - 1)) + np.log(abs(zeta ** (x * qstar % p) - 1)) for x in a[ones:]
    )
    assert np.log(tau.modulus) == pytest.approx(log_expect, abs=1e-8)
    assert dims == (ones, 0, 0, ones)
    if ones:
        assert tau.basis_note == RELATIVE_NOTE
