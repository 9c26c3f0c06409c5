import numpy as np
import pytest

from torsflow import (
    ACYCLIC_NOTE,
    RELATIVE_NOTE,
    BasedComplex,
    BasisMismatch,
    InvalidInput,
    NotAComplex,
    NotExact,
    TorsionError,
    cohomology_bases,
    cohomology_dims,
    complex_torsion,
    map_torsion,
    ses_torsion,
    shifted_complex,
)
from helpers import (
    assert_same_span,
    rand_complex_matrix,
    random_acyclic_complex,
    random_based_complex,
    random_ses,
    stacked_kernel,
)


def two_term(a):
    a = np.asarray(a, dtype=complex)
    return BasedComplex([a.shape[1], a.shape[0]], [a])


class TestBasedComplex:
    def test_shape_chain_enforced(self):
        with pytest.raises(InvalidInput):
            BasedComplex([2, 3], [np.zeros((2, 2))])

    def test_d_squared_enforced(self):
        d0 = np.array([[1.0], [0.0]])
        d1 = np.array([[1.0, 0.0]])
        with pytest.raises(NotAComplex):
            BasedComplex([1, 2, 1], [d0, d1])

    def test_d_squared_scaled_tolerance(self):
        # entries of size 1e3; product cancels to roundoff * scale
        d0 = np.array([[1e3], [1e3]])
        d1 = np.array([[1e3, -1e3 + 1e-8]])
        BasedComplex([1, 2, 1], [d0, d1])  # defect 1e-5 <= 1e-9 * 1e6

    def test_diff_padding(self):
        c = two_term([[2.0]])
        assert c.diff(-1).shape == (1, 0)
        assert c.diff(5).shape == (0, 0)


class TestComplexTorsion:
    def test_acyclic_diag(self):
        tau = complex_torsion(two_term(np.diag([2.0, 3.0])))
        assert tau.modulus == pytest.approx(6.0, rel=1e-12)
        assert tau.basis_note == ACYCLIC_NOTE

    def test_zero_differentials_with_preferred_bases(self):
        c = BasedComplex([2, 1], [np.zeros((1, 2))])
        bases = {0: np.eye(2, dtype=complex), 1: np.eye(1, dtype=complex)}
        tau = complex_torsion(c, bases)
        assert tau.modulus == pytest.approx(1.0, rel=1e-12)
        assert tau.basis_note == RELATIVE_NOTE

    def test_degree_shift_inverts(self):
        for n in range(4):
            c = shifted_complex(n, [1, 1], [np.array([[2.0]])])
            expect = 2.0 if n % 2 == 0 else 0.5
            assert complex_torsion(c).modulus == pytest.approx(expect, rel=1e-12)

    def test_supplied_non_cocycle_rejected(self):
        c = two_term(np.array([[1.0, 0.0], [0.0, 0.0]]))
        bad = {0: np.array([[1.0], [0.0]]), 1: np.array([[0.0], [1.0]])}
        with pytest.raises(BasisMismatch):
            complex_torsion(c, bad)

    def test_supplied_dependent_rejected(self):
        c = BasedComplex([2, 2], [np.zeros((2, 2))])
        bases = {0: np.array([[1.0, 1.0], [1.0, 1.0]]), 1: np.eye(2, dtype=complex)}
        with pytest.raises(BasisMismatch):
            complex_torsion(c, bases)

    def test_acyclic_invariance_under_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = random_acyclic_complex(rng)
            ref = complex_torsion(c).modulus
            dims = c.dims
            perms = [rng.permutation(n) for n in dims]
            diffs = []
            for i in range(len(dims) - 1):
                p_in = np.eye(dims[i])[:, perms[i]]
                p_out = np.eye(dims[i + 1])[perms[i + 1], :]
                diffs.append(p_out @ c.diff(i) @ p_in)
            permuted = complex_torsion(BasedComplex(dims, diffs)).modulus
            assert permuted == pytest.approx(ref, rel=1e-10)

    def test_acyclic_invariance_under_complement_choice(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            c = random_acyclic_complex(rng)
            ref = complex_torsion(c).modulus
            comps = {}
            for i in range(len(c.dims)):
                rank = np.linalg.matrix_rank(c.diff(i)) if c.diff(i).size else 0
                if rank:
                    comps[i] = rand_complex_matrix(rng, c.dims[i], rank)
            alt = complex_torsion(c, complements=comps).modulus
            assert alt == pytest.approx(ref, rel=1e-10)

    def test_adjoint_reverses_exponents(self):
        # reversing and adjointing an acyclic complex of top degree m sends
        # |tau| to |tau|^((-1)^(m-1))
        rng = np.random.default_rng(13)
        for length in (2, 3, 4):
            c = random_acyclic_complex(rng, length=length)
            tau = complex_torsion(c).modulus
            dims = list(reversed(c.dims))
            diffs = [c.diff(length - 1 - i).conj().T for i in range(length)]
            tau_adj = complex_torsion(BasedComplex(dims, diffs)).modulus
            expect = tau if length % 2 == 1 else 1.0 / tau
            assert tau_adj == pytest.approx(expect, rel=1e-9)

    def test_single_degree_zero_map(self):
        c = BasedComplex([3], [])
        tau = complex_torsion(c, {0: np.eye(3, dtype=complex)})
        assert tau.modulus == pytest.approx(1.0)

    def test_out_of_range_torsion_raises(self):
        # |tau| = |det D| = 1e400 lies past the floating-point range: a
        # typed error, not inf
        c = BasedComplex([2, 2], [np.diag([1e200, 1e200])])
        with pytest.raises(TorsionError, match="floating-point range"):
            complex_torsion(c)


class TestMapTorsion:
    def test_invertible(self):
        tau = map_torsion([[2.0]], np.zeros((1, 0)), np.zeros((1, 0)))
        assert tau.modulus == pytest.approx(2.0, rel=1e-12)

    def test_zero_map_preferred_bases(self):
        tau = map_torsion([[0.0]], [[1.0]], [[1.0]])
        assert tau.modulus == pytest.approx(1.0)

    def test_saddle_circle_degenerate_block(self):
        # nonorientable saddle with one dimensional representation:
        # D = 1 - (-1)(-1) = 0, torsion 1 with the preferred bases
        d = np.eye(1) - (-1) * np.array([[-1.0]])
        assert np.allclose(d, 0)
        tau = map_torsion(d, np.eye(1), np.eye(1), scale=1.0)
        assert tau.modulus == pytest.approx(1.0)

    def test_bad_kernel_rejected(self):
        with pytest.raises(BasisMismatch):
            map_torsion(np.eye(2), np.eye(2), np.zeros((2, 0)))

    def test_rectangular(self):
        a = np.array([[3.0, 0.0]])  # C^2 -> C, kernel e2, no cokernel
        tau = map_torsion(a, np.array([[0.0], [1.0]]), np.zeros((1, 0)))
        assert tau.modulus == pytest.approx(3.0, rel=1e-12)

    def test_kernel_check_keeps_the_rank_scale(self):
        # self-relative (scale 0) rank decision: diag(1e-12, 0) has rank 1;
        # the kernel check must not anchor it at unit scale instead
        e2 = np.array([[0.0], [1.0]])
        tau = map_torsion(np.diag([1e-12, 0.0]), e2, e2)
        assert tau.modulus == pytest.approx(1e-12, rel=1e-12)
        assert tau.basis_note == RELATIVE_NOTE

    def test_kernel_outside_ker_rejected(self):
        with pytest.raises(BasisMismatch):
            map_torsion(np.diag([2.0, 0.0]), np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


class TestSesTorsion:
    def test_identity_sub(self):
        c = two_term(np.diag([2.0, 5.0]))
        zero = BasedComplex([0, 0], [np.zeros((0, 0))])
        inc = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
        prj = [np.zeros((0, 2)), np.zeros((0, 2))]
        ts, tt, tq, th = ses_torsion(c, c, zero, inc, prj)
        assert th.modulus == pytest.approx(1.0, rel=1e-10)
        assert tt.modulus == pytest.approx(ts.modulus, rel=1e-10)

    def test_triad_sequence_exponent(self):
        # sub = C^{2m} at degree n only, quot = C^m at degree n - 1, total
        # couples them by a stacked map D; the long exact sequence is then
        # 0 -> H^{n-1}(total) -> C^m -D-> C^2m -> H^n(total) -> 0 and its
        # torsion must be tau(D)^((-1)^(n-1)).
        rng = np.random.default_rng(21)
        m = 2
        for n in (1, 2, 3):
            d = rand_complex_matrix(rng, 2 * m, m)
            sub = shifted_complex(n, [2 * m], [])
            quot_dims = [0] * (n - 1) + [m, 0]
            quot_diffs = [np.zeros((quot_dims[i + 1], quot_dims[i])) for i in range(n)]
            quot = BasedComplex(quot_dims, quot_diffs)
            dims_total = [0] * (n - 1) + [m, 2 * m]
            diffs_total = []
            for i in range(n - 1):
                diffs_total.append(np.zeros((dims_total[i + 1], dims_total[i])))
            diffs_total.append(d)
            total = BasedComplex(dims_total, diffs_total)
            inc, prj = [], []
            for k in range(n + 1):
                ds, dt, dq = sub.dim(k), total.dim(k), quot.dim(k)
                inc_k = np.zeros((dt, ds), dtype=complex)
                prj_k = np.zeros((dq, dt), dtype=complex)
                if ds:
                    inc_k[dt - ds :, :] = np.eye(ds)
                if dq:
                    prj_k[:, :dq] = np.eye(dq)
                inc.append(inc_k)
                prj.append(prj_k)
            ts, tt, tq, th = ses_torsion(sub, total, quot, inc, prj)
            tau_d = map_torsion(
                d,
                np.zeros((m, 0)),
                np.linalg.svd(d)[0][:, np.linalg.matrix_rank(d) :],
            ).modulus
            expect = tau_d ** ((-1) ** (n - 1))
            assert th.modulus == pytest.approx(expect, rel=1e-9)
            assert tt.modulus == pytest.approx(ts.modulus * tq.modulus * th.modulus, rel=1e-8)

    def test_random_ses_additivity(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            dims_sub = [int(rng.integers(0, 4)) for _ in range(4)]
            dims_quot = [int(rng.integers(0, 4)) for _ in range(4)]
            sub, total, quot, inc, prj = random_ses(rng, dims_sub, dims_quot)
            ts, tt, tq, th = ses_torsion(sub, total, quot, inc, prj)
            assert tt.modulus == pytest.approx(ts.modulus * tq.modulus * th.modulus, rel=1e-8)

    def test_random_ses_additivity_varied_length(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            length = int(rng.integers(1, 6))
            dims_sub = [int(rng.integers(0, 4)) for _ in range(length + 1)]
            dims_quot = [int(rng.integers(0, 4)) for _ in range(length + 1)]
            sub, total, quot, inc, prj = random_ses(rng, dims_sub, dims_quot)
            ts, tt, tq, th = ses_torsion(sub, total, quot, inc, prj)
            assert tt.modulus == pytest.approx(ts.modulus * tq.modulus * th.modulus, rel=1e-8)

    def test_single_degree_ses(self):
        sub = BasedComplex([2], [])
        quot = BasedComplex([1], [])
        total = BasedComplex([3], [])
        inc = [np.vstack([np.eye(2), np.zeros((1, 2))]).astype(complex)]
        prj = [np.hstack([np.zeros((1, 2)), np.eye(1)]).astype(complex)]
        ts, tt, tq, th = ses_torsion(sub, total, quot, inc, prj)
        assert tt.modulus == pytest.approx(1.0)
        assert th.modulus == pytest.approx(1.0)

    def test_nan_fails_volume_check(self, monkeypatch):
        from torsflow import TorsionScalar, complexes

        ses = random_ses(np.random.default_rng(25), [1, 2, 1], [2, 1, 1])
        monkeypatch.setattr(complexes, "complex_torsion", lambda *a, **k: TorsionScalar(float("nan")))
        with pytest.raises(BasisMismatch, match="volume compatible"):
            ses_torsion(*ses)

    def test_nan_fails_additivity_check(self, monkeypatch):
        from torsflow import TorsionError, TorsionScalar, complexes

        ses = random_ses(np.random.default_rng(25), [1, 2, 1], [2, 1, 1])
        original = complexes.complex_torsion

        def nan_with_bases(c, bases=None, *args, **kwargs):
            # the volume checks pass no cohomology bases; the three
            # complexes of the sequence do
            tau = original(c, bases, *args, **kwargs)
            return TorsionScalar(float("nan")) if bases else tau

        monkeypatch.setattr(complexes, "complex_torsion", nan_with_bases)
        with pytest.raises(TorsionError, match="additivity violated"):
            ses_torsion(*ses)

    def test_not_exact_rejected(self):
        c = two_term(np.diag([2.0, 5.0]))
        zero = BasedComplex([0, 0], [np.zeros((0, 0))])
        # projection claims a nontrivial quotient of the zero complex
        with pytest.raises((NotExact, InvalidInput)):
            ses_torsion(
                c,
                c,
                two_term(np.eye(1)),
                [np.eye(2, dtype=complex)] * 2,
                [np.zeros((1, 2))] * 2,
            )


def test_cohomology_dims_of_random_complex():
    rng = np.random.default_rng(23)
    c = random_based_complex(rng, [3, 5, 4, 2])
    dims = cohomology_dims(c)
    # Euler characteristic match
    lhs = sum((-1) ** i * d for i, d in enumerate(c.dims))
    rhs = sum((-1) ** i * d for i, d in enumerate(dims))
    assert lhs == rhs


def test_cohomology_bases_match_the_stacked_kernel():
    # ker d^i and im d^(i-1), each from its own rank decision and cut by
    # _within, span the kernel of the stacked [d^i ; (d^(i-1))^H]
    rng = np.random.default_rng(26)
    cases = [random_based_complex(rng, list(rng.integers(1, 6, size=4))) for _ in range(10)]
    cases += [random_acyclic_complex(rng) for _ in range(10)]
    nonzero = 0
    for c in cases:
        for i, h in enumerate(cohomology_bases(c)):
            assert_same_span(h, stacked_kernel([c.diff(i), c.diff(i - 1).conj().T], c.rank_scale))
            nonzero += h.shape[1]
    assert nonzero > 10
