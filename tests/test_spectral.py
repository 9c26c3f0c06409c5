import numpy as np
import pytest

from torsflow import (
    BasedComplex,
    FilteredComplex,
    InvalidFiltration,
    Representation,
    assemble_complex,
    cohomology_dims,
    complex_torsion,
    filtered_pages,
)
from helpers import kovalevskaya_model, random_acyclic_filtered_complex, random_filtered_complex


def test_one_step_filtration_is_plain_cohomology():
    d = np.array([[1.0, 2.0], [0.0, 3.0]])
    base = BasedComplex([2, 2], [d])
    fc = FilteredComplex(base, [np.zeros(2, int), np.zeros(2, int)], 1)
    res = filtered_pages(fc)
    assert res.pages[0].torsion.modulus == pytest.approx(complex_torsion(base).modulus, rel=1e-12)
    assert all(p.torsion.modulus == pytest.approx(1.0, rel=1e-10) for p in res.pages[1:])
    # E_1 = H(base) here, which is zero
    assert not any(res.infinity_dims.values())


def test_diag_two_three_split_filtration():
    base = BasedComplex([2, 2], [np.diag([2.0, 3.0])])
    fc = FilteredComplex(base, [np.array([0, 1]), np.array([0, 1])], 2)
    res = filtered_pages(fc)
    # two graded blocks, torsions 2 and 3, product 6, later pages trivial
    page0 = res.pages[0]
    assert page0.dims() == {(0, 0): 1, (0, 1): 1, (1, -1): 1, (1, 0): 1}
    assert abs(page0.diffs[(0, 0)][0, 0]) == pytest.approx(2.0)
    assert abs(page0.diffs[(1, -1)][0, 0]) == pytest.approx(3.0)
    assert page0.torsion.modulus == pytest.approx(6.0, rel=1e-12)
    assert res.pages[1].torsion.modulus == pytest.approx(1.0, rel=1e-12)
    assert res.product_check.page_product == pytest.approx(6.0, rel=1e-10)
    assert not any(res.infinity_dims.values())


def test_filtration_must_decrease_and_cover():
    base = BasedComplex([2, 2], [np.diag([2.0, 3.0])])
    with pytest.raises(InvalidFiltration):
        FilteredComplex(base, [np.array([0, 3]), np.array([0, 0])], 2)
    with pytest.raises(InvalidFiltration):
        FilteredComplex.from_subsets(base, [[[0], [0, 1]], [[], []]])


def test_filtration_must_be_d_stable():
    # d maps the level-1 coordinate onto a level-0 coordinate
    base = BasedComplex([1, 1], [np.array([[1.0]])])
    with pytest.raises(InvalidFiltration):
        FilteredComplex(base, [np.array([1]), np.array([0])], 2)


def test_from_subsets_matches_levels():
    base = BasedComplex([2, 2], [np.diag([2.0, 3.0])])
    fc = FilteredComplex.from_subsets(base, [[[0, 1], [0, 1]], [[1], [1]]])
    assert fc.num_levels == 2
    assert list(fc.levels[0]) == [0, 1]
    assert list(fc.levels[1]) == [0, 1]


def test_product_theorem_random():
    rng = np.random.default_rng(31)
    nonacyclic = 0
    for _ in range(60):
        fc = random_filtered_complex(rng)
        res = filtered_pages(fc)  # raises TorsionError on violation
        assert res.product_check.rel_error < 1e-8
        if any(res.infinity_dims.values()):
            nonacyclic += 1
    assert nonacyclic > 10  # the generator must exercise nonzero limit pages


def test_product_theorem_varied_depth():
    # filtration depths other than three, including the trivial one
    rng = np.random.default_rng(34)
    for _ in range(40):
        levels = int(rng.integers(1, 6))
        degree = int(rng.integers(1, 5))
        fc = random_filtered_complex(rng, num_levels=levels, max_degree=degree, max_dim=7)
        res = filtered_pages(fc)
        assert res.product_check.rel_error < 1e-8
        assert len(res.pages) == levels + 1


def test_page_dimension_bookkeeping():
    rng = np.random.default_rng(32)
    for _ in range(20):
        fc = random_filtered_complex(rng, num_levels=3)
        res = filtered_pages(fc)
        h = cohomology_dims(fc.base)
        for k in range(len(fc.base.dims)):
            spread = sum(
                res.infinity_dims.get((n, k - n), 0) for n in range(fc.num_levels)
            )
            assert spread == h[k]
        # dim E_{r+1} = dim ker d_r - rank d_r(in)
        for r in range(len(res.pages) - 1):
            cur, nxt = res.pages[r], res.pages[r + 1]
            for (n, q), basis in cur.spaces.items():
                out = cur.diffs[(n, q)]
                into = cur.diffs.get((n - r, q + r - 1))
                rank_out = np.linalg.matrix_rank(out, tol=1e-8) if out.size else 0
                rank_in = np.linalg.matrix_rank(into, tol=1e-8) if into is not None and into.size else 0
                expect = basis.shape[1] - rank_out - rank_in
                got = nxt.spaces[(n, q)].shape[1]
                assert got == expect, (r, n, q)


def test_page_differentials_square_to_zero():
    rng = np.random.default_rng(33)
    fc = random_filtered_complex(rng, num_levels=3)
    res = filtered_pages(fc)
    for page in res.pages:
        r = page.r
        for (n, q), mat in page.diffs.items():
            nxt = page.diffs.get((n + r, q - r + 1))
            if nxt is not None and nxt.size and mat.size:
                assert np.abs(nxt @ mat).max() < 1e-9 * max(
                    1.0, np.abs(nxt).max() * np.abs(mat).max()
                )


def test_trivial_complex():
    base = BasedComplex([0, 0], [np.zeros((0, 0))])
    fc = FilteredComplex(base, [np.zeros(0, int), np.zeros(0, int)], 2)
    res = filtered_pages(fc)
    assert res.product_check.page_product == pytest.approx(1.0)


def test_nan_torsion_fails_product_check(monkeypatch):
    from torsflow import TorsionError, TorsionScalar, spectral

    fc = random_filtered_complex(np.random.default_rng(4))
    monkeypatch.setattr(spectral, "complex_torsion", lambda *a, **k: TorsionScalar(float("nan")))
    with pytest.raises(TorsionError, match="page torsion product"):
        filtered_pages(fc)


def test_rank_scale_anchors_page_rank_decisions():
    # a degree-2 differential of float noise in a complex that carries unit
    # scale: every rank decision, on the pages as in the direct check, must
    # read it as zero
    noise = np.full((3, 3), 1e-17)
    base = BasedComplex([0, 0, 3, 3], [np.zeros((0, 0)), np.zeros((3, 0)), noise], rank_scale=1.0)
    levels = [np.zeros(0, int), np.zeros(0, int), np.full(3, 2), np.full(3, 2)]
    res = filtered_pages(FilteredComplex(base, levels, 3))
    assert {k: v for k, v in res.infinity_dims.items() if v} == {(2, 0): 3, (2, 1): 3}
    assert res.total.modulus == pytest.approx(complex_torsion(base).modulus, rel=1e-12)


def test_operator_scale_beyond_the_gram_range():
    # the anchor is the operator norm of a 1e160 entry, whose square
    # overflows: the page ranks and the torsion must still come out right
    base = BasedComplex([1, 1], [np.array([[1e160]])])
    res = filtered_pages(FilteredComplex(base, [np.zeros(1, int), np.zeros(1, int)], 1))
    assert res.pages[0].torsion.modulus == pytest.approx(1e160, rel=1e-12)
    assert not any(res.infinity_dims.values())



def _assembled_page_torsion(fc, page, next_page):
    """Reference: the page complex assembled by total degree from the page's
    d_r blocks, its torsion from complex_torsion relative to the next
    page's classes C written in page-r coordinates (the ladder's, not
    orthonormal in general)."""
    num_degrees, L, r = len(fc.base.dims), fc.num_levels, page.r
    offsets, dims = [], []
    for k in range(num_degrees):
        off, pos = {}, 0
        for n in range(L):
            off[n] = pos
            pos += page.spaces[(n, k - n)].shape[1]
        offsets.append(off)
        dims.append(pos)
    diffs = []
    for k in range(num_degrees - 1):
        mat = np.zeros((dims[k + 1], dims[k]), dtype=complex)
        for n in range(L - r):
            block = page.diffs[(n, k - n)]
            r0, c0 = offsets[k + 1][n + r], offsets[k][n]
            mat[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
        diffs.append(mat)
    classes = {}
    for k in range(num_degrees):
        cols = []
        for n in range(L):
            coords = page.spaces[(n, k - n)].conj().T @ next_page.spaces[(n, k - n)]
            lifted = np.zeros((dims[k], coords.shape[1]), dtype=complex)
            lifted[offsets[k][n] : offsets[k][n] + coords.shape[0]] = coords
            cols.append(lifted)
        classes[k] = np.concatenate(cols, axis=1)
    anchor = max(fc.base.rank_scale, fc.base.operator_scale())
    return complex_torsion(BasedComplex(dims, diffs, rank_scale=anchor), classes)


def _check_pages_against_assembly(fc):
    """Every page torsion against the assembled reference; returns whether
    the limit page is nonzero and whether some ladder coordinates C are not
    orthonormal (so the log|det(H^H C)| correction is exercised)."""
    res = filtered_pages(fc)
    skewed = False
    for page, next_page in zip(res.pages, res.pages[1:]):
        ref = _assembled_page_torsion(fc, page, next_page)
        assert page.torsion.modulus == pytest.approx(ref.modulus, rel=1e-10)
        assert page.torsion.basis_note == ref.basis_note
        for key, basis in page.spaces.items():
            coords = basis.conj().T @ next_page.spaces[key]
            if coords.size and abs(np.linalg.slogdet(coords.conj().T @ coords)[1]) > 1e-6:
                skewed = True
    return any(res.infinity_dims.values()), skewed


def test_page_torsions_match_the_assembled_page_complex():
    rng = np.random.default_rng(35)
    for _ in range(15):
        nonacyclic, _ = _check_pages_against_assembly(random_acyclic_filtered_complex(rng))
        assert not nonacyclic
    skewed = 0
    for _ in range(15):
        nonacyclic, skew = _check_pages_against_assembly(random_filtered_complex(rng))
        assert nonacyclic
        skewed += skew
    assert skewed > 3


def test_morse_page_torsions_match_the_assembled_page_complex():
    # trivial-representation Kovalevskaya model: E_2 and E_inf are nonzero
    model = kovalevskaya_model(Representation(1, {"g": [[1.0]]}))
    nonacyclic, _ = _check_pages_against_assembly(assemble_complex(model))
    assert nonacyclic
