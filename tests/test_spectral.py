import gc
import warnings

import numpy as np
import pytest

from torsflow import (
    ACYCLIC_NOTE,
    AmbiguousRankWarning,
    BasedComplex,
    FilteredComplex,
    InvalidFiltration,
    InvalidInput,
    Representation,
    TorsionError,
    assemble_complex,
    cohomology_dims,
    complex_torsion,
    filtered_pages,
)
from torsflow.complexes import _within
from torsflow.linalg import rank_nullspace
from torsflow import spectral
from torsflow.spectral import _Ladder, _page_step, _zspace
from helpers import (
    assert_same_span,
    rand_complex_matrix,
    kovalevskaya_model,
    random_acyclic_filtered_complex,
    random_filtered_complex,
    stacked_kernel,
)


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
    monkeypatch.setattr(spectral, "_dims_and_torsion", lambda *a, **k: ((), TorsionScalar(float("nan"))))
    with pytest.raises(TorsionError, match="page torsion product"):
        filtered_pages(fc)


@pytest.mark.parametrize("scale, reused", [(0.5, []), (2.0, [0])])
def test_direct_check_reuses_ladder_decisions_only_at_its_own_scale(monkeypatch, scale, reused):
    # the ladder decides the whole d^k at max(1, anchor), the direct check
    # at anchor: below anchor 1 the check must decide d^k itself
    seen = []
    original = spectral._harmonic_bases

    def spy(c, tol_rel, skip=(), known=None):
        seen.append(sorted(known or {}))
        return original(c, tol_rel, skip=skip, known=known)

    monkeypatch.setattr(spectral, "_harmonic_bases", spy)
    base = BasedComplex([2, 2], [np.diag([scale, scale / 2])])
    res = filtered_pages(FilteredComplex(base, [np.array([0, 1])] * 2, 2))
    assert seen == [reused]
    assert res.total.modulus == pytest.approx(scale * scale / 2, rel=1e-12)


def test_small_norm_complex_keeps_its_ranks():
    # a 1 x 1 differential below tol_rel: the ladder decides at the anchor,
    # the scale of the page step, so the two read the same rank
    base = BasedComplex([1, 1], [np.array([[1e-11]])])
    res = filtered_pages(FilteredComplex(base, [np.zeros(1, int)] * 2, 1))
    assert res.total.modulus == pytest.approx(complex_torsion(base).modulus, rel=1e-12)
    assert res.total.modulus == pytest.approx(1e-11, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-6, 1e-11])
def test_small_norm_random_filtered_complexes(scale):
    rng = np.random.default_rng(44)
    for _ in range(6):
        fc = random_acyclic_filtered_complex(rng)
        base = BasedComplex(fc.base.dims, [scale * d for d in fc.base.diffs])
        res = filtered_pages(FilteredComplex(base, fc.levels, fc.num_levels))
        assert res.total.basis_note == ACYCLIC_NOTE
        assert res.total.modulus == pytest.approx(complex_torsion(base).modulus, rel=1e-10)


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



@pytest.mark.parametrize("s", [1e10, 1e12, 1e14])
def test_large_norm_filtration(s):
    # the filtration's membership constraints have no scale of their own:
    # a well-conditioned complex of any norm keeps its exact page ranks
    base = BasedComplex([2, 2], [np.diag([s, s / 10])])
    fc = FilteredComplex(base, [np.array([0, 1]), np.array([0, 1])], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmbiguousRankWarning)
        res = filtered_pages(fc)
    assert res.total.modulus == pytest.approx(s * s / 10, rel=1e-10)
    assert res.total.basis_note == ACYCLIC_NOTE


def _stacked_zspace(fc, member, target, k):
    """Reference: Z(member, target, k) as the kernel of the identity rows
    outside F_member stacked on the rows of d below F_target, at unit
    scale."""
    rows = [np.eye(fc.base.dim(k), dtype=complex)[fc.levels[k] < member]]
    if k + 1 < len(fc.base.dims):
        rows.append(fc.base.diff(k)[fc.levels[k + 1] < target])
    return stacked_kernel(rows, 1.0)


def test_zspace_matches_the_stacked_membership_kernel():
    rng = np.random.default_rng(36)
    cases = [random_filtered_complex(rng) for _ in range(8)]
    cases += [random_acyclic_filtered_complex(rng) for _ in range(8)]
    nonzero = 0
    for fc in cases:
        anchor = max(fc.base.rank_scale, fc.base.operator_scale())
        for k in range(len(fc.base.dims)):
            for member in range(fc.num_levels + 1):
                for target in range(fc.num_levels + 1):
                    z = _zspace(fc, member, target, k, 1e-10, anchor)
                    assert_same_span(z, _stacked_zspace(fc, member, target, k))
                    nonzero += z.shape[1]
    assert nonzero > 100


def test_svd_count_on_the_morse_complex(monkeypatch):
    # trivial-representation Kovalevskaya Morse complex, three levels:
    # 9 restricted kernels Z and 9 image ranges d Z (one per key, keys
    # naming the rows they select), 5 cuts of Z against Z_{r-1}(n+1) (the
    # others are all of Z or nothing, and cost none) and 2 cuts of those
    # against an image (E_0 is the coordinate grading and page L + 1
    # repeats page L, so neither cuts), 8 page-step block decisions and no
    # page-step intersection (a slot with only an incoming d_r takes that
    # block's cokernel), and in the direct check 4 independence checks of
    # the supplied limit bases; its 3 differentials are the ladder's
    # decisions on the whole d^k
    fc = assemble_complex(kovalevskaya_model(Representation(1, {"g": [[1.0]]})))
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    res = filtered_pages(fc)
    assert res.total.modulus == pytest.approx(0.2, rel=1e-12)
    assert len(calls) == 37


@pytest.mark.parametrize("rank", [0, 2, 3])
def test_incoming_only_slot_takes_the_cokernel(rank):
    # slot (1, 0) has an incoming d_1 of the given rank and an empty
    # outgoing one: its next-page basis spans (im d_1)^perp, as the cut of
    # the whole slot against the range would
    rng = np.random.default_rng(40 + rank)
    mat = rand_complex_matrix(rng, 5, rank) @ rand_complex_matrix(rng, rank, 3)
    dims = {(0, 0): 3, (1, 0): 5}
    diffs = {(0, 0): mat, (1, 0): np.zeros((0, 5), dtype=complex)}
    bases = _page_step(dims, diffs, 1, 1e-10, 1.0)[0]
    got = bases[(1, 0)]
    want = _within(np.eye(5, dtype=complex), rank_nullspace(mat, 1e-10, scale=1.0).range_basis, 1e-10)
    assert got.shape[1] == 5 - rank
    assert np.allclose(got.conj().T @ got, np.eye(5 - rank), atol=1e-12)
    assert np.abs(got @ got.conj().T - want @ want.conj().T).max() < 1e-12


def test_page_zero_is_the_coordinate_grading():
    rng = np.random.default_rng(41)
    for fc in [random_filtered_complex(rng) for _ in range(5)]:
        res = filtered_pages(fc)
        for k in range(len(fc.base.dims)):
            for n in range(fc.num_levels):
                want = np.eye(fc.base.dim(k), dtype=complex)[:, fc.levels[k] == n]
                assert np.array_equal(res.pages[0].spaces[(n, k - n)], want)


def _graded_complex(rng, noise, deficient=False):
    """Two-term complex on three levels, each level an invertible block
    (with `deficient`, a block of rank one less), random level-raising
    coupling, and every level-lowering entry set to `noise` times the
    stability bound 1e-12 * max(1, max|d|)."""
    levels = np.repeat(np.arange(3), [2, 3, 2])
    lower = levels[:, None] < levels[None, :]
    d = np.where(lower, 0, rand_complex_matrix(rng, 7, 7))
    if deficient:
        for n, size in enumerate([2, 3, 2]):
            at = np.ix_(levels == n, levels == n)
            d[at] = rand_complex_matrix(rng, size, size - 1) @ rand_complex_matrix(rng, size - 1, size)
    scale = max(1.0, float(np.abs(d).max()))
    phases = np.exp(2j * np.pi * rng.random((7, 7)))
    d = np.where(lower, noise * 1e-12 * scale * phases, d)
    return FilteredComplex(BasedComplex([7, 7], [d]), [levels, levels], 3)


@pytest.mark.parametrize("tol_rel", [1e-10, 1e-14])
def test_level_lowering_noise_under_the_stability_bound_is_zero(tol_rel):
    # the stability check admits level-lowering entries up to 1e-12 of the
    # scale; with every level block invertible the pages treat them as the
    # zeros it declared them, also at a tolerance below 1e-12
    for seed in range(4):
        noisy = _graded_complex(np.random.default_rng(seed), 0.9)
        zeroed = _graded_complex(np.random.default_rng(seed), 0.0)
        got, want = filtered_pages(noisy, tol_rel), filtered_pages(zeroed, tol_rel)
        assert [p.dims() for p in got.pages] == [p.dims() for p in want.pages]
        assert got.total.modulus == pytest.approx(want.total.modulus, rel=1e-12)


@pytest.mark.parametrize("tol_rel", [1e-10, 1e-14])
def test_level_lowering_noise_beside_rank_deficient_level_blocks(tol_rel):
    # a rank-deficient level block leaves a kernel for level-lowering noise
    # to lift off the cut; FilteredComplex holds that noise as the zeros the
    # stability check declared it, so the noisy copy is its zeroed copy
    for seed in range(4):
        noisy = _graded_complex(np.random.default_rng(seed), 0.9, deficient=True)
        zeroed = _graded_complex(np.random.default_rng(seed), 0.0, deficient=True)
        assert all(np.array_equal(a, b) for a, b in zip(noisy.base.diffs, zeroed.base.diffs))
        assert noisy.base.rank_scale == zeroed.base.rank_scale
        got, want = filtered_pages(noisy, tol_rel), filtered_pages(zeroed, tol_rel)
        assert [p.dims() for p in got.pages] == [p.dims() for p in want.pages]
        assert got.total.modulus == want.total.modulus
        assert any(p.dims() for p in got.pages[1:])


def test_ladder_page_past_the_last_level_costs_no_svd(monkeypatch):
    # every clamped key of page L + 1 is one of page L's
    fc = random_filtered_complex(np.random.default_rng(38), num_levels=3)
    ladder = _Ladder(fc, 1e-10, max(fc.base.rank_scale, fc.base.operator_scale()))
    for r in range(fc.num_levels):
        ladder.page(r)
    last = ladder.page(fc.num_levels)
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    beyond = ladder.page(fc.num_levels + 1)
    assert calls == []
    assert beyond.keys() == last.keys()
    assert all(beyond[key] is last[key] for key in last)


def _ladder(fc, tol_rel=1e-10):
    return _Ladder(fc, tol_rel, max(fc.base.rank_scale, fc.base.operator_scale()))


def test_two_stage_cut_spans_the_concatenated_cut():
    # reference: Z cut once against Z_{r-1}(n+1) and the image side by side
    rng = np.random.default_rng(42)
    cases = [random_filtered_complex(rng) for _ in range(8)]
    cases += [random_acyclic_filtered_complex(rng) for _ in range(8)]
    nonzero = 0
    for fc in cases:
        ladder = _ladder(fc)
        for r in range(1, fc.num_levels + 1):
            reps = ladder.page(r)
            for n, k in reps:
                z = ladder.zspace(ladder.key(n, n + r, k))
                denom = [ladder.zspace(ladder.key(n + 1, n + r, k))]
                if k >= 1:
                    denom.append(ladder.zspace(ladder.key(n - r + 1, n, k - 1), image=True))
                assert_same_span(reps[(n, k)], _within(z, np.concatenate(denom, axis=1), 1e-10))
                nonzero += reps[(n, k)].shape[1]
    assert nonzero > 50


def test_cocycles_outside_z_are_caught(monkeypatch):
    # Z_{r-1}(n+1, k) lies inside Z_r(n, k); a piece outside it must not be
    # cut away silently
    fc = random_filtered_complex(np.random.default_rng(38), num_levels=3)
    ladder = _ladder(fc)
    r, n, k = next(
        (r, n, k)
        for r in range(1, fc.num_levels + 1)
        for n, k in ladder.page(r)
        if ladder.zspace(ladder.key(n, n + r, k)).shape[1] < fc.base.dim(k)
        and 0 < ladder.zspace(ladder.key(n + 1, n + r, k)).shape[1]
        < ladder.zspace(ladder.key(n, n + r, k)).shape[1]
    )
    z = ladder.zspace(ladder.key(n, n + r, k))
    inner_key = ladder.key(n + 1, n + r, k)
    inner = ladder.zspace(inner_key)
    # as many vectors as Z_{r-1}(n+1, k) has, one of them orthogonal to Z
    outside = np.concatenate([rank_nullspace(z.conj().T).kernel_basis[:, :1], inner[:, 1:]], axis=1)
    original = _Ladder.zspace

    def patched(self, key, image=False):
        if key == inner_key and not image:
            return outside
        return original(self, key, image)

    monkeypatch.setattr(_Ladder, "zspace", patched)
    with pytest.raises(TorsionError, match=rf"page {r}, slot \({n}, {k - n}\): .* not inside"):
        _ladder(fc).page(r)


def test_keys_selecting_the_same_rows_share_one_zspace(monkeypatch):
    # degree-1 rows sit at levels 0 and 2 only: the targets 1 and 2 select
    # the same rows out of F_0, as do 3 and every target past the last level
    d = np.array([[1.0, 0.0], [0.0, 2.0]])
    fc = FilteredComplex(BasedComplex([2, 2], [d]), [np.array([0, 1]), np.array([0, 2])], 3)
    ladder = _ladder(fc)
    calls = []
    original = spectral._zspace

    def counted(*args, **kwargs):
        calls.append(args[1:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "_zspace", counted)
    assert ladder.key(0, 1, 0) == ladder.key(0, 2, 0) == (0, 1, 0)
    assert ladder.key(0, 3, 0) == ladder.key(0, 7, 0) == (0, 3, 0)
    for target in range(8):
        ladder.zspace(ladder.key(0, target, 0))
    assert calls == [(0, 0, 0), (0, 1, 0), (0, 3, 0)]


@pytest.mark.parametrize("tol_rel", [0.0, 1.0, 2.0, float("nan")])
def test_filtered_pages_rejects_a_bad_tolerance(tol_rel):
    trivial = FilteredComplex(BasedComplex([0, 0], [np.zeros((0, 0))]), [np.zeros(0, int)] * 2, 2)
    one = FilteredComplex(BasedComplex([1, 1], [np.array([[3.0]])]), [np.array([0]), np.array([1])], 2)
    for fc in (trivial, one):
        with pytest.raises(InvalidInput, match="tol_rel"):
            filtered_pages(fc, tol_rel=tol_rel)


def test_filtered_pages_leaves_no_reference_cycles():
    # the subspace cache dies with the call; a cycle through it would keep
    # every cached basis alive until the cyclic collector happens to run
    fc = random_filtered_complex(np.random.default_rng(37))
    gc.collect()
    gc.disable()
    try:
        filtered_pages(fc)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
