"""Lens-space Bott models: the block route, the generic filtered route and
the CW oracle on the same manifold and representation.

The model of tests/helpers.lens_bott_model has L(p, q) as its isoenergy
surface, so total_torsion, filtered_pages(assemble_complex(model)) and
cw_torsion(lens_space(p, q)) must give the same modulus, and Reidemeister
torsion must tell lens spaces apart that homotopy cannot.
"""
import numpy as np
import pytest

from torsflow import (
    Representation,
    assemble_complex,
    cw_torsion,
    filtered_pages,
    lens_space,
    rp3,
    total_torsion,
)
from helpers import kovalevskaya_replica, lens_bott_model, lens_rep


def char_rep(p, j):
    return Representation(1, {"t": [[np.exp(2j * np.pi * j / p)]]})


def routes(p, q, rep):
    """(E_inf dims, modulus) from the block route, the generic route and
    the CW oracle; the generic route's E_inf drops zero entries."""
    model = lens_bott_model(p, q, rep)
    report = total_torsion(model)
    res = filtered_pages(assemble_complex(model))
    generic = {k: v for k, v in res.infinity_dims.items() if v}
    dims, tau = cw_torsion(lens_space(p, q), rep)
    return (report.einf_dims, report.total.modulus), (generic, res.product_check.direct), (dims, tau.modulus)


@pytest.mark.parametrize("p, q", [(2, 1), (5, 1), (5, 2), (7, 2), (7, 3), (11, 3)])
def test_every_character_agrees_across_routes(p, q):
    for j in range(1, p):
        block, generic, (dims, cw) = routes(p, q, char_rep(p, j))
        assert dims == (0, 0, 0, 0)
        assert block[0] == generic[0] == {}
        assert block[1] == pytest.approx(cw, rel=1e-8)
        assert generic[1] == pytest.approx(cw, rel=1e-8)


@pytest.mark.parametrize("p, q", [(5, 2), (7, 3), (97, 54)])
@pytest.mark.parametrize("ones", [0, 1, 2])
def test_four_dimensional_representations_agree_across_routes(p, q, ones):
    # rho(t) = U diag(characters) U^H with `ones` trivial eigenvalues: H^0
    # and H^3 are C^ones, seen on the limit page at (0, 0) and (2, 1)
    rep, _ = lens_rep(np.random.default_rng(1000 + 10 * p + ones), p, 4, ones)
    block, generic, (dims, cw) = routes(p, q, rep)
    assert dims == (ones, 0, 0, ones)
    einf = {(0, 0): ones, (2, 1): ones} if ones else {}
    assert block[0] == generic[0] == einf
    assert block[1] == pytest.approx(cw, rel=1e-8)
    assert generic[1] == pytest.approx(cw, rel=1e-8)


def character_torsions(p, q, torsion):
    return sorted(torsion(p, q, char_rep(p, j)) for j in range(1, p))


def block_torsion(p, q, rep):
    return total_torsion(lens_bott_model(p, q, rep)).total.modulus


def cw_modulus(p, q, rep):
    return cw_torsion(lens_space(p, q), rep)[1].modulus


def test_torsion_separates_homotopy_equivalent_lens_spaces():
    # L(7, 1) and L(7, 2) are homotopy equivalent (1 * 2 = 3^2 mod 7) but
    # not homeomorphic; their torsions over the characters differ
    one = character_torsions(7, 1, cw_modulus)
    two = character_torsions(7, 2, cw_modulus)
    assert one == pytest.approx([0.753, 0.753, 2.445, 2.445, 3.802, 3.802], abs=1e-3)
    assert two == pytest.approx([1.357, 1.357, 1.692, 1.692, 3.049, 3.049], abs=1e-3)
    assert character_torsions(7, 1, block_torsion) == pytest.approx(one, rel=1e-8)
    assert character_torsions(7, 2, block_torsion) == pytest.approx(two, rel=1e-8)


def test_homeomorphic_lens_spaces_share_their_torsions():
    # 2 * 3 = -1 mod 7, so L(7, 2) and L(7, 3) are homeomorphic
    for torsion in (block_torsion, cw_modulus):
        assert character_torsions(7, 3, torsion) == pytest.approx(
            character_torsions(7, 2, torsion), rel=1e-8
        )


def test_block_route_walks_the_orbit_words_once(monkeypatch):
    # L(97, 54), m = 48: the block and orbit words go in one walk, so the
    # orbit words t^0 .. t^96 cost 96 products and the holonomies t and t^9
    # (9 = 54^-1 mod 97), prefixes of them, none
    rep = lens_rep(np.random.default_rng(72), 97, 48)[0]
    calls = []
    original = Representation.token_matrix

    def counted(self, token):
        calls.append(token)
        return original(self, token)

    monkeypatch.setattr(Representation, "token_matrix", counted)
    total_torsion(lens_bott_model(97, 54, rep))
    assert len(calls) == 96


@pytest.mark.parametrize("k, m", [(24, 1), (5, 4), (2, 16)])
def test_kovalevskaya_replicas_are_copies_of_rp3(k, m):
    # each Kovalevskaya copy with rho(g) = -I_m has the torsion of RP^3 =
    # L(2, 1) with rho(t) = -I_m, so k disjoint copies give k times its log
    report = total_torsion(kovalevskaya_replica(k, m))
    dims, tau = cw_torsion(rp3(), Representation(m, {"t": -np.eye(m)}))
    assert dims == (0, 0, 0, 0)
    assert report.acyclic
    assert np.log(report.total.modulus) == pytest.approx(k * np.log(tau.modulus), abs=1e-8)
