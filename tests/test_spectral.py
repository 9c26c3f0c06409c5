import numpy as np
import pytest

from torsflow import (
    BasedComplex,
    FilteredComplex,
    InvalidFiltration,
    cohomology_dims,
    complex_torsion,
    filtered_pages,
)
from helpers import random_filtered_complex


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
