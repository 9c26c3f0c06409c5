import numpy as np
import pytest

from torsflow import (
    AmbiguousRankWarning,
    InvalidInput,
    TorsionError,
    det_modulus,
    range_basis,
    rank_nullspace,
    singular_product,
)
from torsflow.linalg import _rank_nullspaces
from helpers import assert_same_span, rand_complex_matrix, rand_unitary


def test_diag_two_zero():
    res = rank_nullspace(np.diag([2.0, 0.0]), 1e-10)
    assert res.rank == 1
    assert res.kernel_basis.shape == (2, 1)
    assert abs(abs(res.kernel_basis[1, 0]) - 1) < 1e-12
    assert abs(res.kernel_basis[0, 0]) < 1e-12
    assert res.cokernel_basis.shape == (2, 1)
    assert abs(abs(res.cokernel_basis[1, 0]) - 1) < 1e-12


def test_identity_full_rank():
    res = rank_nullspace(np.eye(3))
    assert res.rank == 3
    assert res.kernel_basis.shape == (3, 0)
    assert res.cokernel_basis.shape == (3, 0)


def test_rank_one_symmetric():
    # hand SVD: eigenvalues 2 and 0, kernel (1,1)/sqrt(2)
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    res = rank_nullspace(a)
    assert res.rank == 1
    assert np.allclose(res.singular_values, [2.0, 0.0], atol=1e-12)
    k = res.kernel_basis[:, 0]
    assert abs(abs(k[0]) - 1 / np.sqrt(2)) < 1e-12
    assert np.allclose(a @ k, 0, atol=1e-12)


def test_kernel_orthonormality():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    a[:, 0] = a[:, 1]  # force one kernel and three cokernel directions
    res = rank_nullspace(a)
    k = res.kernel_basis
    assert k.shape[1] == 1
    assert np.abs(k.conj().T @ k - np.eye(k.shape[1])).max() < 1e-12
    c = res.cokernel_basis
    assert c.shape[1] == 3
    assert np.abs(c.conj().T @ c - np.eye(c.shape[1])).max() < 1e-12


def test_unitary_has_no_kernel():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rand_unitary(rng, 4)
        res = rank_nullspace(u)
        assert res.rank == 4
        assert res.kernel_basis.shape[1] == 0


def test_rank_of_adjoint_and_counting():
    rng = np.random.default_rng(2)
    for rows, cols in [(3, 5), (5, 3), (4, 4), (1, 6)]:
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        if rng.random() < 0.5:
            a[:, -1] = 0
        ra = rank_nullspace(a)
        rh = rank_nullspace(a.conj().T)
        assert ra.rank == rh.rank
        assert ra.kernel_basis.shape[1] - ra.cokernel_basis.shape[1] == cols - rows


def test_invariants_sanity():
    res = rank_nullspace(np.zeros((3, 2)))
    assert res.rank == 0
    assert res.kernel_basis.shape == (2, 2)
    assert res.cokernel_basis.shape == (3, 3)


def test_non_finite_rejected():
    with pytest.raises(InvalidInput):
        rank_nullspace([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidInput):
        rank_nullspace([[np.nan]])


def test_bad_tolerance_rejected():
    # both rank entry points share one cut, and with it this check
    for entry in (rank_nullspace, range_basis):
        with pytest.raises(InvalidInput):
            entry(np.eye(2), 0.0)
        with pytest.raises(InvalidInput):
            entry(np.eye(2), 2.0)


def test_ambiguous_rank_warns():
    # second singular value sits right at the threshold scale; both rank
    # entry points share one cut and warn at their own caller
    a = np.diag([1.0, 3e-10])
    with pytest.warns(AmbiguousRankWarning) as caught:
        res = rank_nullspace(a, 1e-10)
    assert res.ambiguous
    with pytest.warns(AmbiguousRankWarning) as also:
        range_basis(a, 1e-10)
    assert [w.filename for w in [*caught, *also]] == [__file__, __file__]


def test_scale_anchor_suppresses_noise_rank():
    noise = np.diag([1e-16, 2e-16])
    assert rank_nullspace(noise).rank == 2  # self-relative sees structure
    assert rank_nullspace(noise, scale=1.0).rank == 0


def test_det_modulus_examples():
    assert det_modulus(np.eye(4)) == pytest.approx(1.0)
    assert det_modulus([[2.0]]) == pytest.approx(2.0)
    zeta = np.exp(2j * np.pi / 3)
    # |1 - zeta|^2 = (1 - cos 120)^2 + sin^2 120 = 3
    assert det_modulus([[1 - zeta]]) == pytest.approx(np.sqrt(3), rel=1e-12)


def test_det_modulus_singular_is_exact_zero():
    assert det_modulus(np.diag([1.0, 0.0])) == 0.0
    assert det_modulus([[1.0, 2.0], [2.0, 4.0]]) == 0.0


def test_det_modulus_non_square():
    with pytest.raises(InvalidInput):
        det_modulus(np.zeros((2, 3)))


def test_det_modulus_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 3 * np.eye(6)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 3 * np.eye(6)
        lhs = det_modulus(a @ b)
        rhs = det_modulus(a) * det_modulus(b)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_singular_product_matches_det_for_invertible():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 2 * np.eye(5)
    assert singular_product(a) == pytest.approx(det_modulus(a), rel=1e-10)


@pytest.mark.parametrize("fn", [det_modulus, singular_product])
@pytest.mark.parametrize("entry", [1e200, 1e-200])
def test_modulus_outside_float_range_raises(fn, entry):
    # full rank at its own scale, but |det| = entry^2 is no normal float:
    # a typed error, not inf or 0 with a numpy overflow warning
    with pytest.raises(TorsionError, match="floating-point range"):
        fn(np.diag([entry, entry]))


def test_row_basis_complements_kernel():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 6))
    res = rank_nullspace(a)
    assert res.row_basis.shape == (6, res.rank) == (6, 3)
    joint = np.concatenate([res.row_basis, res.kernel_basis], axis=1)
    assert np.allclose(joint.conj().T @ joint, np.eye(6), atol=1e-12)
    assert rank_nullspace(np.zeros((0, 5))).row_basis.shape == (5, 0)


@pytest.mark.parametrize(
    "shape, rank",
    [((7, 3), 3), ((3, 7), 3), ((6, 5), 2), ((5, 6), 0), ((0, 4), 0), ((4, 0), 0), ((0, 0), 0)],
    ids=["tall", "wide", "rank-deficient", "zero", "no-rows", "no-cols", "empty"],
)
def test_range_basis_from_the_rank_decision_svd(shape, rank):
    from torsflow.linalg import range_basis

    rng = np.random.default_rng(sum(shape) + rank)
    rows, cols = shape
    a = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) @ (
        rng.standard_normal((rank, cols))
    )
    for scale in (0.0, 1.0):
        res = rank_nullspace(a, scale=scale)
        assert res.range_basis.shape == (rows, res.rank)
        assert np.array_equal(res.range_basis, range_basis(a, scale=scale))
    if rows and cols:
        assert rank_nullspace(a).rank == rank


def test_operator_norm_matches_two_norm():
    from torsflow.linalg import operator_norm

    rng = np.random.default_rng(11)
    for shape in ((9, 4), (4, 9), (6, 6)):
        a = 10.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert operator_norm(np.zeros((3, 2))) == 0.0
    assert operator_norm(np.zeros((0, 5))) == 0.0


def test_operator_norm_beyond_the_gram_range():
    # the Gram matrix of entries past sqrt of the float range would overflow
    from torsflow.linalg import operator_norm

    assert operator_norm(np.diag([1e200, 3e200])) == pytest.approx(3e200, rel=1e-12)
    assert operator_norm(np.diag([1e-200, 3e-200])) == pytest.approx(3e-200, rel=1e-12)


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)], ids=["wide", "tall", "square"])
def test_block_operator_norm_matches_the_assembled_matrix(shape):
    # blocks of unequal sizes, some rows and columns of blocks empty, and
    # two blocks on one row and one column: the norm of the assembled matrix
    from torsflow.linalg import block_operator_norm, operator_norm

    rng = np.random.default_rng(35)
    heights, widths = [2, 1, 3, 2, 1][: shape[0]], [1, 3, 2, 2, 1][: shape[1]]
    rows, cols = np.cumsum([0] + heights), np.cumsum([0] + widths)
    dense = np.zeros((rows[-1], cols[-1]), dtype=complex)
    blocks = {}
    for i, j in [(0, 0), (0, 2), (1, 1), (2, 2), (shape[0] - 1, shape[1] - 1)]:
        block = rng.standard_normal((heights[i], widths[j])) + 1j * rng.standard_normal((heights[i], widths[j]))
        blocks[(f"r{i}", f"c{j}")] = block
        dense[rows[i] : rows[i + 1], cols[j] : cols[j + 1]] = block
    want = np.linalg.norm(dense, 2)
    assert block_operator_norm(blocks) == pytest.approx(want, rel=1e-12)
    assert operator_norm(dense) == pytest.approx(want, rel=1e-12)
    huge = {key: 1e200 * block for key, block in blocks.items()}
    assert block_operator_norm(huge) == pytest.approx(1e200 * want, rel=1e-12)
    assert block_operator_norm({}) == 0.0
    assert block_operator_norm({("r", "c"): np.zeros((2, 3), dtype=complex)}) == 0.0


def test_range_basis_owns_its_memory():
    # a thin SVD, copied out: the result holds no full left factor alive
    rng = np.random.default_rng(34)
    a = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 5)) + 0j
    basis = range_basis(a)
    assert basis.shape == (40, 3)
    assert basis.base is None and basis.flags.owndata
    assert np.array_equal(basis, rank_nullspace(a).range_basis)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _assert_same_decision(got, want):
    # bit for bit: every field of the stacked decision is the lone one's
    assert got.rank == want.rank
    for name in ("singular_values", "kernel_basis", "cokernel_basis", "row_basis", "range_basis"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert _bits(a) == _bits(b), name
    assert got.tolerance_used == want.tolerance_used
    assert got.ambiguous == want.ambiguous


@pytest.mark.parametrize(
    "shape", [(1, 1), (4, 4), (6, 3), (3, 6), (0, 3), (3, 0)], ids=["1x1", "4x4", "2mxm", "mx2m", "no-rows", "no-cols"]
)
@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_stacked_cut_matches_separate_decisions(monkeypatch, shape, scale):
    # seven matrices of every rank the shape allows, one of them zero, in
    # one LAPACK call; each keeps the threshold, rank and bases it gets alone
    rng = np.random.default_rng(sum(shape) + int(scale))
    rows, cols = shape
    stack = [
        rand_complex_matrix(rng, rows, r) @ rand_complex_matrix(rng, r, cols)
        for r in (j % (min(shape) + 1) for j in range(7))
    ]
    stack[3] = np.zeros(shape)
    stack = np.array(stack, dtype=complex)
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    got = _rank_nullspaces(stack, 1e-10, scale)
    assert calls == ([(7, rows, cols)] if rows and cols else [])
    assert len(got) == 7
    for a, res in zip(stack, got):
        _assert_same_decision(res, rank_nullspace(a, 1e-10, scale))
    assert got[3].rank == 0


def test_stacked_cut_warns_once_for_its_ambiguous_matrix():
    stack = np.array([np.eye(2), np.diag([1.0, 3e-10]), np.diag([1.0, 0.0])], dtype=complex)
    with pytest.warns(AmbiguousRankWarning) as caught:
        got = _rank_nullspaces(stack, 1e-10)
    assert len(caught) == 1 and caught[0].filename == __file__
    assert [res.ambiguous for res in got] == [False, True, False]
    assert [res.rank for res in got] == [2, 2, 1]
    for a, res in zip(stack, got):
        if res.ambiguous:
            with pytest.warns(AmbiguousRankWarning):
                want = rank_nullspace(a, 1e-10)
        else:
            want = rank_nullspace(a, 1e-10)
        _assert_same_decision(res, want)


def test_stacked_cut_rejects_bad_input():
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1, 0, 1] = np.nan
    with pytest.raises(InvalidInput, match="non-finite"):
        _rank_nullspaces(stack)
    with pytest.raises(InvalidInput, match="3-d"):
        _rank_nullspaces(np.eye(2))
    for tol_rel in (0.0, 1.0):
        with pytest.raises(InvalidInput):
            _rank_nullspaces(np.zeros((2, 2, 2)), tol_rel)
