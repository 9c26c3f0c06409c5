import numpy as np
import pytest

from torsflow import (
    AssumptionViolated,
    BottModel,
    CriticalBlock,
    FastPathUnavailable,
    GradientConnection,
    IllegalConnection,
    InvalidInput,
    ModelOrderError,
    Orbit,
    Representation,
    assemble_complex,
    assemble_d1,
    assemble_d2,
    block_cohomology,
    ensure_valid,
    expand_morse,
    filtered_pages,
    page_two,
    total_torsion,
    validate_model,
)
from helpers import (
    acyclic_zigzag_model,
    assert_same_span,
    d2_fires_model,
    dense_reduced_operator,
    disjoint_union,
    e1_basis,
    extremal_to_saddle_model,
    kovalevskaya_model,
    kovalevskaya_replica,
    quotient_target_model,
    rand_unitary,
    random_circle_model,
    reference_layout,
    stacked_kernel,
    zigzag_model,
)


def simple_rep():
    return Representation(1, {"g": [[-1.0]]})


class TestValidateModel:
    def test_kovalevskaya_is_valid(self):
        assert validate_model(kovalevskaya_model()) == []

    def test_max_circle_before_saddle(self):
        rep = simple_rep()
        model = BottModel(
            rep,
            (
                CriticalBlock("n", "circle", 0.0, index=2, delta=1, holonomy=("g",)),
                CriticalBlock("r", "circle", 1.0, index=1, delta=1, holonomy=("g",)),
            ),
        )
        diags = validate_model(model)
        assert any(d.code == "ModelOrderError" for d in diags)
        with pytest.raises(ModelOrderError):
            ensure_valid(model)

    def test_decreasing_critical_values(self):
        rep = simple_rep()
        model = BottModel(
            rep,
            (
                CriticalBlock("a", "circle", 5.0, index=0, delta=1),
                CriticalBlock("b", "circle", 1.0, index=1, delta=1, holonomy=("g",)),
            ),
        )
        assert any(d.code == "ModelOrderError" for d in validate_model(model))

    def test_shared_critical_values_ok(self):
        model = kovalevskaya_model()  # m1, m2 and r1, r2 share values
        assert validate_model(model) == []

    def test_saddle_saddle_connection(self):
        rep = simple_rep()
        model = BottModel(
            rep,
            (
                CriticalBlock("r1", "circle", 0.0, index=1, delta=1, holonomy=("g",)),
                CriticalBlock("r2", "circle", 1.0, index=1, delta=1, holonomy=("g",)),
            ),
            (GradientConnection(("r2", "z"), ("r1", "w"), (Orbit(1, ()),)),),
        )
        diags = validate_model(model)
        assert any(d.code == "AssumptionViolated" for d in diags)
        with pytest.raises(AssumptionViolated):
            ensure_valid(model)

    def test_connection_index_arithmetic(self):
        rep = simple_rep()
        model = BottModel(
            rep,
            (
                CriticalBlock("m", "circle", 0.0, index=0, delta=1),
                CriticalBlock("n", "circle", 1.0, index=2, delta=1, holonomy=("g",)),
            ),
            # w of a maximum circle has index 2, w of a minimum has 0
            (GradientConnection(("n", "w"), ("m", "w"), (Orbit(1, ()),)),),
        )
        assert any(d.code == "IllegalConnection" for d in validate_model(model))

    def test_unlicensed_pair_of_consecutive_index(self):
        # m1.z (index 1) -> m2.w (index 0) is consecutive, but no differential
        # component joins two minimum circles: validation is the one place
        # that says so, for every entry point
        rep = simple_rep()
        model = BottModel(
            rep,
            (
                CriticalBlock("m1", "circle", 0.0, index=0, delta=1, holonomy=("g",)),
                CriticalBlock("m2", "circle", 0.0, index=0, delta=1, holonomy=("g",)),
            ),
            (GradientConnection(("m1", "z"), ("m2", "w"), (Orbit(1, ()),)),),
        )
        diags = validate_model(model)
        assert [(d.code, d.subject) for d in diags] == [("IllegalConnection", "connection[0]")]
        assert "between a minimum circle point 'w' and a minimum circle point 'z'" in diags[0].message
        for entry in (expand_morse, total_torsion, assemble_d1, assemble_complex):
            with pytest.raises(IllegalConnection, match=r"\[connection\[0\]\] connection m1.z -> m2.w"):
                entry(model)

    def test_unknown_block_or_label(self):
        rep = simple_rep()
        model = BottModel(
            rep,
            (CriticalBlock("m", "circle", 0.0, index=0, delta=1),),
            (GradientConnection(("x", "w"), ("m", "p"), (Orbit(1, ()),)),),
        )
        codes = [d.code for d in validate_model(model)]
        assert codes.count("InvalidInput") >= 2

    def test_unknown_generator_in_word(self):
        rep = simple_rep()
        model = BottModel(
            rep,
            (CriticalBlock("m", "circle", 0.0, index=0, delta=1, holonomy=("h",)),),
        )
        assert any("unknown generator" in d.message for d in validate_model(model))

    def test_duplicate_ids(self):
        rep = simple_rep()
        model = BottModel(
            rep,
            (
                CriticalBlock("m", "circle", 0.0, index=0, delta=1),
                CriticalBlock("m", "circle", 1.0, index=1, delta=1, holonomy=("g",)),
            ),
        )
        assert any("duplicate" in d.message for d in validate_model(model))

    # every licensed cochain component as ((source tier, label), (target
    # tier, label)) -> kind, tiers 0..4 being minimum circles, minimum tori /
    # Klein bottles, saddles, maximum tori / Klein bottles, maximum circles
    LICENSED = [
        (((0, "w"), (2, "w")), "d1"),
        (((0, "z"), (2, "z")), "d1"),
        (((2, "w"), (4, "w")), "d1"),
        (((2, "z"), (4, "z")), "d1"),
        (((1, "p"), (2, "w")), "d1"),
        (((1, "q"), (2, "z")), "d1"),
        (((1, "r"), (2, "z")), "d1"),
        (((2, "w"), (3, "q")), "d1"),
        (((2, "w"), (3, "r")), "d1"),
        (((2, "z"), (3, "s")), "d1"),
        (((0, "w"), (3, "p")), "d2"),
        (((1, "p"), (3, "p")), "d2"),
        (((0, "z"), (4, "w")), "d2"),
        (((0, "z"), (3, "q")), "d2"),
        (((0, "z"), (3, "r")), "d2"),
        (((1, "q"), (4, "w")), "d2"),
        (((1, "q"), (3, "q")), "d2"),
        (((1, "q"), (3, "r")), "d2"),
        (((1, "r"), (4, "w")), "d2"),
        (((1, "r"), (3, "q")), "d2"),
        (((1, "r"), (3, "r")), "d2"),
        (((1, "s"), (3, "s")), "d2"),
        (((1, "s"), (4, "z")), "d2"),
    ]

    def test_licensing_rule_is_pinned(self):
        from torsflow import bott

        assert bott._LICENSED == dict(self.LICENSED)
        # the missing-connection summary quotes gaps in this order within a
        # tier pair, so the order is part of the warning text
        for pair in {(src[0], dst[0]) for (src, dst), _ in self.LICENSED}:
            want = [key for key, _ in self.LICENSED if (key[0][0], key[1][0]) == pair]
            got = [key for key in bott._LICENSED if (key[0][0], key[1][0]) == pair]
            assert got == want, pair

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="sphere"), "unknown kind 'sphere'"),
            (dict(kind="circle", index=3, delta=1), "circle index must be 0, 1 or 2"),
            (dict(kind="circle", index=None, delta=1), "circle index must be 0, 1 or 2"),
            (dict(kind="circle", index=0, delta=0), "delta must be"),
            (dict(kind="torus", extremal="middle"), "extremal must be 'min' or 'max'"),
            (dict(kind="klein", extremal="max", delta=1), "tori and Klein bottles carry no delta"),
        ],
    )
    def test_block_constructor_rejects_bad_fields(self, fields, message):
        with pytest.raises(InvalidInput, match=message):
            CriticalBlock("b", **fields)

    @pytest.mark.parametrize(
        "block, label",
        [
            (CriticalBlock("c", "circle", index=1, delta=1), "p"),
            (CriticalBlock("T", "torus", extremal="min"), "w"),
        ],
    )
    def test_unknown_label_has_no_point_index(self, block, label):
        with pytest.raises(InvalidInput, match=f"has no point labelled '{label}'"):
            block.point_index(label)

    def test_orbit_sign_zero_is_rejected(self):
        with pytest.raises(InvalidInput, match="orbit sign must be"):
            Orbit(0, ("g",))

    def test_every_diagnostic_is_pinned(self):
        # one fault of each kind in one model: the full list of diagnostics,
        # in order, and the ensure_valid error class and text, as literals
        rep = simple_rep()
        blocks = (
            CriticalBlock("m1", "circle", 0.0, index=0, delta=1, holonomy=("g",)),
            CriticalBlock("m2", "circle", 0.0, index=0, delta=1),
            CriticalBlock("m2", "circle", 0.0, index=0, delta=-1),
            CriticalBlock("r1", "circle", 1.0, index=1, delta=1, holonomy=("h",)),
            CriticalBlock("r2", "circle", 0.5, index=1, delta=1, holonomy=("g", "g^-1")),
            CriticalBlock("n", "circle", 2.0, index=2, delta=1),
            CriticalBlock("T", "torus", 3.0, extremal="min", alpha=("g",), beta=()),
        )
        conns = (
            GradientConnection(("x", "w"), ("m1", "w"), (Orbit(1, ()),)),
            GradientConnection(("r1", "w"), ("m1", "p"), (Orbit(1, ("k",)),)),
            GradientConnection(("n", "w"), ("m1", "w"), (Orbit(1, ()),)),
            GradientConnection(("r2", "z"), ("r1", "w"), (Orbit(1, ()),)),
            GradientConnection(("m2", "z"), ("m1", "w"), (Orbit(1, ()),)),
            GradientConnection(("r1", "w"), ("m1", "w"), (Orbit(1, ("k",)), Orbit(-1, ("g", "k^-1")))),
        )
        want = [
            ("InvalidInput", "m2", "duplicate block id 'm2'"),
            ("InvalidInput", "r1", "block r1: unknown generator 'h'"),
            ("ModelOrderError", "r2", "block r2: critical value 0.5 decreases in list order"),
            ("ModelOrderError", "T", "block T (minimum torus/Klein bottle) listed after a maximum circle"),
            ("InvalidInput", "connection[0]", "from references unknown block 'x'"),
            ("InvalidInput", "connection[1]", "to point m1.p: circle blocks have labels w/z"),
            ("IllegalConnection", "connection[2]",
             "n.w (index 2) -> m1.w (index 0): gradient orbits join points of consecutive index"),
            ("AssumptionViolated", "connection[3]", "connection between saddle circles r2 and r1"),
            ("IllegalConnection", "connection[4]",
             "connection m2.z -> m1.w: no differential component is induced between a minimum circle "
             "point 'w' and a minimum circle point 'z'"),
            ("InvalidInput", "connection[5]", "unknown generator 'k'"),
            ("InvalidInput", "connection[5]", "unknown generator 'k'"),
        ]
        model = BottModel(rep, blocks, conns)
        assert [(d.code, d.subject, d.message) for d in validate_model(model)] == want
        with pytest.raises(InvalidInput) as err:
            ensure_valid(model)
        assert type(err.value) is InvalidInput
        assert str(err.value) == "; ".join(f"[{subject}] {message}" for _, subject, message in want)


class TestBlockCohomology:
    def test_minimal_circle_trivial_holonomy(self):
        rep = simple_rep()
        block = CriticalBlock("m", "circle", 0.0, index=0, delta=1, holonomy=())
        coh = block_cohomology(block, rep)
        assert np.allclose(coh.D, 0)
        assert coh.dims == {0: 1, 1: 1}
        assert coh.torsion_factor.modulus == pytest.approx(1.0)
        assert not coh.acyclic

    def test_orientable_saddle(self):
        rep = simple_rep()
        block = CriticalBlock("r3", "circle", 0.0, index=1, delta=1, holonomy=("g",))
        coh = block_cohomology(block, rep)
        assert np.allclose(coh.D, [[2.0]])
        assert coh.dims == {}
        assert coh.acyclic
        assert coh.torsion_factor.modulus == pytest.approx(0.5, rel=1e-12)

    def test_maximal_circle(self):
        rep = simple_rep()
        block = CriticalBlock("n", "circle", 0.0, index=2, delta=1, holonomy=("g",))
        coh = block_cohomology(block, rep)
        assert coh.torsion_factor.modulus == pytest.approx(2.0, rel=1e-12)

    def test_minimal_torus_trivial_rep(self):
        rep = Representation(1, {"a": [[1.0]], "b": [[1.0]]})
        block = CriticalBlock("T", "torus", 0.0, extremal="min", alpha=("a",), beta=("b",))
        coh = block_cohomology(block, rep)
        # torus cohomology ranks 1, 2, 1
        assert coh.dims == {0: 1, 1: 2, 2: 1}
        assert coh.torsion_factor.modulus == pytest.approx(1.0)

    def test_klein_sign(self):
        # Klein bottle uses I + rho(beta): rho(b) = -1 makes the beta part vanish
        rep = Representation(1, {"a": [[1.0]], "b": [[-1.0]]})
        block = CriticalBlock("K", "klein", 0.0, extremal="min", alpha=("a",), beta=("b",))
        coh = block_cohomology(block, rep)
        assert coh.dims == {0: 1, 1: 2, 2: 1}
        torus_block = CriticalBlock("T", "torus", 0.0, extremal="min", alpha=("a",), beta=("b",))
        toh = block_cohomology(torus_block, rep)
        assert toh.dims.get(0, 0) == 0  # I - rho(beta) = 2 kills the kernel

    def test_degenerate_word_is_honest_zero(self):
        rng = np.random.default_rng(7)
        rep = Representation(3, {"u": rand_unitary(rng, 3)})
        block = CriticalBlock("c", "circle", 0.0, index=0, delta=1, holonomy=("u", "u^-1"))
        coh = block_cohomology(block, rep)
        assert coh.dims == {0: 3, 1: 3}

    def test_noncommuting_pair_warns(self):
        rng = np.random.default_rng(8)
        rep = Representation(2, {"a": rand_unitary(rng, 2), "b": rand_unitary(rng, 2)})
        block = CriticalBlock("T", "torus", 0.0, extremal="min", alpha=("a",), beta=("b",))
        coh = block_cohomology(block, rep)
        assert any("commute" in w for w in coh.warnings)

    def test_commuting_pair_dims_pattern(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            v = rand_unitary(rng, m)
            phases_a = np.where(rng.random(m) < 0.5, 1.0, np.exp(1j * rng.uniform(0.3, 3.0, m)))
            phases_b = np.where(rng.random(m) < 0.5, 1.0, np.exp(1j * rng.uniform(0.3, 3.0, m)))
            a = v @ np.diag(phases_a) @ v.conj().T
            b = v @ np.diag(phases_b) @ v.conj().T
            rep = Representation(m, {"a": a, "b": b})
            block = CriticalBlock("T", "torus", 0.0, extremal="min", alpha=("a",), beta=("b",))
            coh = block_cohomology(block, rep)
            k = int(np.sum((np.abs(phases_a - 1) < 1e-9) & (np.abs(phases_b - 1) < 1e-9)))
            expect = {0: k, 1: 2 * k, 2: k} if k else {}
            assert coh.dims == expect
            assert coh.torsion_factor.modulus == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("kind", ["torus", "klein"])
    def test_middle_basis_matches_the_stacked_kernel(self, kind, m):
        # ker D* cut against im D, from one rank decision each, spans the
        # kernel of the stacked [D* ; D^H]; rho(beta) = +/-1 on an
        # eigenvector kills the beta part, rho(alpha) = 1 the alpha part,
        # and in every other draw the first eigenvector has both
        rng = np.random.default_rng(40 + m)
        fixed_b = 1.0 if kind == "torus" else -1.0
        middle = 0
        for j in range(8):
            v = rand_unitary(rng, m)
            phases_a = np.where(rng.random(m) < 0.5, 1.0, np.exp(1j * rng.uniform(0.3, 3.0, m)))
            phases_b = np.where(rng.random(m) < 0.5, fixed_b, np.exp(1j * rng.uniform(0.3, 3.0, m)))
            if j % 2 == 0:
                phases_a[0], phases_b[0] = 1.0, fixed_b
            conj = lambda phases: v @ np.diag(phases) @ v.conj().T
            rep = Representation(m, {"a": conj(phases_a), "b": conj(phases_b)})
            block = CriticalBlock("T", kind, 0.0, extremal="min", alpha=("a",), beta=("b",))
            coh = block_cohomology(block, rep)
            assert not coh.warnings
            h = coh.bases[block.middle_degree]
            assert_same_span(h, stacked_kernel([coh.D_star, coh.D.conj().T], 1.0))
            middle += h.shape[1]
        assert middle > 0

    def test_each_block_is_its_entry_of_the_batched_call(self):
        # circles of every index and sign, tori and Klein bottles with
        # commuting and non-commuting holonomies: the batched first page
        # decides each block as block_cohomology does alone, bit for bit
        from torsflow.bott import _block_cohomologies

        rng = np.random.default_rng(44)
        m = 3
        v = rand_unitary(rng, m)
        a = v @ np.diag([1.0, 1.0, np.exp(1.1j)]) @ v.conj().T
        b = v @ np.diag([1.0, -1.0, np.exp(0.7j)]) @ v.conj().T
        rep = Representation(m, {"a": a, "b": b, "u": rand_unitary(rng, m), "e": np.eye(m)})
        blocks = [
            CriticalBlock("c0", "circle", 0.0, index=0, delta=1, holonomy=("a",)),
            CriticalBlock("T0", "torus", 0.0, extremal="min", alpha=("a",), beta=("b",)),
            CriticalBlock("c1", "circle", 0.0, index=1, delta=-1, holonomy=("u", "a")),
            CriticalBlock("K0", "klein", 0.0, extremal="min", alpha=("a",), beta=("b",)),
            CriticalBlock("c2", "circle", 0.0, index=2, delta=1, holonomy=("e",)),
            CriticalBlock("T1", "torus", 0.0, extremal="max", alpha=("u",), beta=("a",)),
            CriticalBlock("K1", "klein", 0.0, extremal="max", alpha=("e",), beta=("b", "b")),
            CriticalBlock("c3", "circle", 0.0, index=1, delta=1, holonomy=("u", "u^-1")),
        ]
        batched = _block_cohomologies(blocks, rep)
        assert [coh.block_id for coh in batched] == [blk.id for blk in blocks]
        bits = lambda x: None if x is None else np.ascontiguousarray(x).tobytes()
        for blk, got in zip(blocks, batched):
            want = block_cohomology(blk, rep)
            for name in ("block_id", "kind", "level", "middle", "dims", "torsion_factor", "acyclic", "warnings"):
                assert getattr(got, name) == getattr(want, name), (blk.id, name)
            assert bits(got.D) == bits(want.D) and bits(got.D_star) == bits(want.D_star)
            assert got.bases.keys() == want.bases.keys()
            for degree in want.bases:
                assert got.bases[degree].shape == want.bases[degree].shape
                assert bits(got.bases[degree]) == bits(want.bases[degree]), (blk.id, degree)
            assert (got.rank_result is None) == (want.rank_result is None) == (blk.kind != "circle")
            if want.rank_result is not None:
                assert got.rank_result.rank == want.rank_result.rank
                assert bits(got.rank_result.singular_values) == bits(want.rank_result.singular_values)
                assert got.rank_result.tolerance_used == want.rank_result.tolerance_used
        # the pattern has every kind of outcome: acyclic and not, warnings
        assert {coh.acyclic for coh in batched} == {True, False}
        assert any(coh.warnings for coh in batched)


class TestExpandMorse:
    def test_single_saddle_circle(self):
        rep = simple_rep()
        model = BottModel(
            rep, (CriticalBlock("r", "circle", 0.0, index=1, delta=1, holonomy=("g",)),)
        )
        morse = expand_morse(model)
        assert [p.label for p in morse.points[1]] == ["w"]
        assert [p.label for p in morse.points[2]] == ["z"]

    def test_single_min_torus(self):
        rep = Representation(1, {"a": [[1.0]], "b": [[1.0]]})
        model = BottModel(
            rep,
            (CriticalBlock("T", "torus", 0.0, extremal="min", alpha=("a",), beta=("b",)),),
        )
        morse = expand_morse(model)
        assert [p.label for p in morse.points[0]] == ["p"]
        assert sorted(p.label for p in morse.points[1]) == ["q", "r"]
        assert [p.label for p in morse.points[2]] == ["s"]

    def test_kovalevskaya_layout(self):
        morse = expand_morse(kovalevskaya_model())
        names = [[(p.block_id, p.label) for p in morse.points[k]] for k in range(4)]
        assert names[0] == [("m1", "w"), ("m2", "w")]
        assert names[1] == [("m1", "z"), ("m2", "z"), ("r1", "w"), ("r2", "w"), ("r3", "w")]
        assert names[2] == [("r1", "z"), ("r2", "z"), ("r3", "z"), ("n", "w")]
        assert names[3] == [("n", "z")]


class TestAssembleD1:
    def test_no_connections_gives_zero(self):
        model = BottModel(kovalevskaya_model().representation, kovalevskaya_model().blocks, ())
        d1 = assemble_d1(model)
        for mat in d1.blocks.values():
            assert mat.size == 0 or np.abs(mat).max() < 1e-12
        assert any("missing connection" in w for w in d1.warnings)

    def test_single_orbit_component_is_holonomy(self):
        rng = np.random.default_rng(10)
        u = rand_unitary(rng, 2)
        rep = Representation(2, {"g": u})
        blocks = (
            CriticalBlock("m", "circle", 0.0, index=0, delta=1, holonomy=()),
            CriticalBlock("r", "circle", 1.0, index=1, delta=1, holonomy=()),
        )
        conns = (GradientConnection(("r", "w"), ("m", "w"), (Orbit(1, ("g",)),)),)
        model = BottModel(rep, blocks, conns)
        d1 = assemble_d1(model)
        assert np.allclose(d1.blocks[(0, 0)], u, atol=1e-12)

    def test_kovalevskaya_blocks(self):
        d1 = assemble_d1(kovalevskaya_model())
        assert np.abs(d1.blocks[(0, 0)] - 2 * np.eye(2)).max() < 1e-9
        assert np.abs(d1.blocks[(0, 1)] - np.eye(2)).max() < 1e-9

    def test_illegal_connection_rejected(self):
        rep = simple_rep()
        blocks = (
            CriticalBlock("m", "circle", 0.0, index=0, delta=1),
            CriticalBlock("T", "torus", 1.0, extremal="max", alpha=(), beta=()),
        )
        # min circle w -> max torus q is not a licensed pair (index 0 -> 2 anyway)
        conns = (GradientConnection(("T", "s"), ("m", "z"), (Orbit(1, ()),)),)
        model = BottModel(rep, blocks, conns)
        with pytest.raises(IllegalConnection):
            assemble_d1(model)


class TestAssembleD2:
    def test_kovalevskaya_e2_vanishes(self):
        model = kovalevskaya_model()
        d1 = assemble_d1(model)
        p2 = page_two(d1)
        assert all(b.shape[1] == 0 for b in p2.bases.values())
        d2 = assemble_d2(p2)
        assert all(mat.size == 0 for mat in d2.values())

    def test_no_level_jump_connections_zero(self):
        rep = simple_rep()
        blocks = (
            CriticalBlock("m", "circle", 0.0, index=0, delta=1),
            CriticalBlock("n", "circle", 1.0, index=2, delta=1, holonomy=("g",)),
        )
        model = BottModel(rep, blocks, ())
        d1 = assemble_d1(model)
        p2 = page_two(d1)
        d2 = assemble_d2(p2)
        for mat in d2.values():
            assert mat.size == 0 or np.abs(mat).max() < 1e-12

    def test_synthetic_min_circle_max_torus_matches_generic(self):
        # one licensed level-0 -> level-2 orbit with unitary holonomy; the
        # second page differential must equal the generic machinery's d2
        rng = np.random.default_rng(11)
        u = rand_unitary(rng, 2)
        rep = Representation(2, {"g": u})
        blocks = (
            CriticalBlock("c", "circle", 0.0, index=0, delta=1, holonomy=()),
            CriticalBlock("T", "torus", 1.0, extremal="max", alpha=(), beta=()),
        )
        conns = (GradientConnection(("T", "p"), ("c", "w"), (Orbit(1, ("g",)),)),)
        model = BottModel(rep, blocks, conns)
        d1 = assemble_d1(model)
        p2 = page_two(d1)
        d2 = assemble_d2(p2)
        assert np.allclose(d2[0], u, atol=1e-10)

        res = filtered_pages(assemble_complex(model))
        gen = res.pages[2]
        src, tgt = gen.spaces[(0, 0)], gen.spaces[(2, -1)]
        ambient_generic = tgt @ gen.diffs[(0, 0)] @ src.conj().T
        basis = e1_basis(model, d1.e1)
        amb_src = basis[(0, 0)] @ p2.bases[(0, 0)]
        amb_tgt = basis[(2, 1)] @ p2.bases[(2, -1)]
        ambient_block = amb_tgt @ d2[0] @ amb_src.conj().T
        assert np.abs(ambient_block - ambient_generic).max() < 1e-9

        report = total_torsion(model)
        assert report.einf_dims == {
            k: v for k, v in res.infinity_dims.items() if v
        }
        assert report.total.modulus == pytest.approx(res.product_check.direct, rel=1e-8)


class TestTotalTorsion:
    def test_kovalevskaya_generic_route(self):
        # the generic filtration machinery on the explicit Morse complex
        # reproduces the block pipeline: tau_d0 = 1, tau_d1 = 4, acyclic
        res = filtered_pages(assemble_complex(kovalevskaya_model()))
        torsions = [p.torsion.modulus for p in res.pages]
        assert torsions[0] == pytest.approx(1.0, rel=1e-9)
        assert torsions[1] == pytest.approx(4.0, rel=1e-8)
        assert all(t == pytest.approx(1.0, rel=1e-8) for t in torsions[2:])
        assert res.product_check.direct == pytest.approx(4.0, rel=1e-8)
        assert not any(res.infinity_dims.values())
        dims1 = res.pages[1].dims()
        assert dims1 == {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2}

    def test_kovalevskaya_full_numbers(self):
        report = total_torsion(kovalevskaya_model())
        assert report.e1_dims == {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2}
        assert report.e2_dims == {}
        assert report.einf_dims == {}
        assert report.acyclic
        assert abs(report.tau_d0.modulus - 1.0) < 1e-9
        assert report.tau_d1.modulus == pytest.approx(4.0, rel=1e-8)
        assert report.tau_d2.modulus == pytest.approx(1.0, rel=1e-8)
        assert report.total.modulus == pytest.approx(4.0, rel=1e-8)

    def test_kovalevskaya_fast_unavailable(self):
        with pytest.raises(FastPathUnavailable):
            total_torsion(kovalevskaya_model(), mode="fast")

    @pytest.mark.parametrize("mode", ["auto", "full", "fast"])
    def test_rank_of_d_is_decided_once_at_the_given_tolerance(self, mode):
        # D = diag(2, 1 - e^(1e-11 i)) is nonsingular at tol_rel = 1e-14 and
        # singular at the default: the fast product keeps block_cohomology's
        # decision instead of deciding the rank of D again
        rep = Representation(2, {"g": np.diag([-1.0, np.exp(1e-11j)])})
        block = CriticalBlock("m", "circle", 0.0, index=0, delta=1, holonomy=("g",))
        model = BottModel(rep, (block,))
        report = total_torsion(model, mode=mode, tol_rel=1e-14)
        assert report.acyclic
        assert report.total.modulus == pytest.approx(2e-11, rel=1e-8)
        for value in (report.total.modulus, report.fast_total):
            assert np.log(value) == pytest.approx(np.log(2e-11), abs=1e-8)
        with pytest.raises(FastPathUnavailable, match=r"m \(singular D\)"):
            total_torsion(model, mode="fast")

    def test_fast_unavailable_quotes_three_blocks_and_the_count(self):
        with pytest.raises(FastPathUnavailable) as err:
            total_torsion(kovalevskaya_replica(24, 1), mode="fast")
        message = str(err.value)
        assert "96 offending blocks: " in message
        quoted = message.split("offending blocks: ")[1]
        assert quoted == "k0m1 (singular D), k0m2 (singular D), k1m1 (singular D), ..."

    def test_bad_mode(self):
        with pytest.raises(InvalidInput):
            total_torsion(kovalevskaya_model(), mode="quick")

    def test_fast_equals_full_on_circle_models(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = random_circle_model(rng)
            fast = total_torsion(model, mode="fast")
            full = total_torsion(model, mode="full")
            assert fast.total.modulus == pytest.approx(full.total.modulus, rel=1e-8)
            auto = total_torsion(model, mode="auto")  # includes the cross-check
            assert auto.mode == "auto"
            assert auto.fast_total is not None

    def test_full_matches_generic_oracle_on_circle_models(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model = random_circle_model(rng, nonsingular=False)
            report = total_torsion(model, mode="full")
            res = filtered_pages(assemble_complex(model))
            assert report.einf_dims == {k: v for k, v in res.infinity_dims.items() if v}
            assert report.total.modulus == pytest.approx(res.product_check.direct, rel=1e-8)

    def test_trivial_rep_kovalevskaya_nonacyclic(self):
        rep = Representation(1, {"g": [[1.0]]})
        model = kovalevskaya_model(rep)
        report = total_torsion(model)
        assert not report.acyclic
        res = filtered_pages(assemble_complex(model))
        assert report.einf_dims == {k: v for k, v in res.infinity_dims.items() if v}
        # limit page dimensions sum to the cohomology of the Morse complex
        h = res.product_check.h_dims
        for k in range(4):
            spread = sum(report.einf_dims.get((n, k - n), 0) for n in range(3))
            assert spread == h[k]
        assert any("relative" in w for w in report.warnings)

    def test_holonomy_conjugation_invariance(self):
        rng = np.random.default_rng(14)
        model = random_circle_model(rng, m=3)
        v = rand_unitary(rng, 3)
        twisted = BottModel(
            model.representation.conjugated(v), model.blocks, model.connections
        )
        a = total_torsion(model)
        b = total_torsion(twisted)
        assert a.e1_dims == b.e1_dims
        assert a.einf_dims == b.einf_dims
        assert b.total.modulus == pytest.approx(a.total.modulus, rel=1e-8)
        assert b.tau_d0.modulus == pytest.approx(a.tau_d0.modulus, rel=1e-8)
        for ca, cb in zip(a.per_block, b.per_block):
            assert cb.torsion_factor.modulus == pytest.approx(
                ca.torsion_factor.modulus, rel=1e-8
            )

    def test_phase_twist_consistency(self):
        # multiplying a generator by a unit scalar changes the D factors;
        # fast and full paths must track the change identically
        rng = np.random.default_rng(15)
        model = random_circle_model(rng, m=2)
        name = next(iter(model.representation.generators))
        phase = np.exp(0.7j)
        gens = {
            n: (phase * g if n == name else g)
            for n, g in model.representation.generators.items()
        }
        twisted = BottModel(
            Representation(model.representation.dim, gens), model.blocks, model.connections
        )
        fast = total_torsion(twisted, mode="fast")
        full = total_torsion(twisted, mode="full")
        assert fast.total.modulus == pytest.approx(full.total.modulus, rel=1e-8)
        from torsflow import det_modulus

        for block, coh in zip(twisted.blocks, full.per_block):
            expect = det_modulus(coh.D) ** ((-1) ** block.index)
            assert coh.torsion_factor.modulus == pytest.approx(expect, rel=1e-9)

    def test_circle_block_symmetry_invariant(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            model = random_circle_model(rng, nonsingular=False)
            for block, coh in zip(model.blocks, total_torsion(model).per_block):
                u = block.index
                k = coh.dims.get(u, 0)
                assert coh.dims.get(u + 1, 0) == k

    @pytest.mark.parametrize("kind", ["torus", "klein"])
    def test_extremal_to_saddle_pipeline_matches_generic(self, kind):
        # see extremal_to_saddle_model: the first-page differential runs
        # through the block's kernel and middle cohomology
        rng = np.random.default_rng(18)
        for trial in range(5):
            model, u1 = extremal_to_saddle_model(rng, kind)
            report = total_torsion(model)
            res = filtered_pages(assemble_complex(model))
            assert report.einf_dims == {k: v for k, v in res.infinity_dims.items() if v}
            assert report.total.modulus == pytest.approx(res.product_check.direct, rel=1e-8)
            assert report.tau_d1.modulus == pytest.approx(
                res.pages[1].torsion.modulus, rel=1e-8
            )
            d1 = assemble_d1(model)
            assert np.allclose(d1.blocks[(0, 0)], u1, atol=1e-10)

    def test_d2_through_quotiented_target_matches_generic(self):
        # min circle -> max torus d2 components while the saddle feeds the
        # torus through d1, so the second-page target is a real quotient
        rng = np.random.default_rng(19)
        for trial in range(5):
            m = 2
            model = quotient_target_model(rng, m)
            report = total_torsion(model)
            res = filtered_pages(assemble_complex(model))
            assert report.einf_dims == {k: v for k, v in res.infinity_dims.items() if v}
            assert report.e2_dims.get((2, 0), 0) == 2 * m - m  # quotient by im d1
            assert report.tau_d1.modulus == pytest.approx(
                res.pages[1].torsion.modulus, rel=1e-8
            )
            assert report.tau_d2.modulus == pytest.approx(
                res.pages[2].torsion.modulus, rel=1e-8
            )
            assert report.total.modulus == pytest.approx(res.product_check.direct, rel=1e-8)

    def test_d2_fires_on_surviving_second_page(self):
        # see d2_fires_model; block route vs generic oracle
        model = d2_fires_model(np.random.default_rng(78))
        report = total_torsion(model)
        assert report.e2_dims == {
            (0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2, (2, 0): 1, (2, 1): 1,
        }
        # d2 cancels the (0,1) and (2,0) entries, the rest survives
        assert report.einf_dims == {(0, 0): 1, (1, 0): 2, (1, 1): 2, (2, 1): 1}
        assert not report.acyclic
        assert report.tau_d2.modulus != pytest.approx(1.0, abs=0.2)
        res = filtered_pages(assemble_complex(model))
        assert report.einf_dims == {k: v for k, v in res.infinity_dims.items() if v}
        assert report.tau_d1.modulus == pytest.approx(res.pages[1].torsion.modulus, rel=1e-8)
        assert report.tau_d2.modulus == pytest.approx(res.pages[2].torsion.modulus, rel=1e-8)
        assert report.total.modulus == pytest.approx(res.product_check.direct, rel=1e-8)

    @pytest.mark.parametrize("m", [1, 2])
    def test_d2_includes_zigzag_through_acyclic_saddle(self, m):
        # see zigzag_model: d2 = e - v D_s^-1 u, not the bare e
        model = zigzag_model(np.random.default_rng(80), m)
        report = total_torsion(model)
        res = filtered_pages(assemble_complex(model))
        assert report.einf_dims == {k: v for k, v in res.infinity_dims.items() if v}
        assert report.total.modulus == pytest.approx(res.total.modulus, rel=1e-8)

    def test_acyclic_model_with_zigzag_matches_generic(self):
        # the same zig-zag with the outer classes killed by d1 through a
        # second, degenerate saddle: the total is canonical
        model = acyclic_zigzag_model(np.random.default_rng(81))
        report = total_torsion(model)
        assert report.acyclic
        res = filtered_pages(assemble_complex(model))
        assert report.total.modulus == pytest.approx(res.total.modulus, rel=1e-8)

    def test_noncommuting_extremal_block_fails_loudly(self):
        rng = np.random.default_rng(17)
        rep = Representation(2, {"a": rand_unitary(rng, 2), "b": rand_unitary(rng, 2)})
        blocks = (
            CriticalBlock("T", "torus", 0.0, extremal="min", alpha=("a",), beta=("b",)),
        )
        model = BottModel(rep, blocks, ())
        from torsflow import NotAComplex

        with pytest.raises(NotAComplex):
            total_torsion(model)


class TestComputedOnce:
    """total_torsion computes each per-model quantity once."""

    def test_block_cohomology_once_per_block(self, monkeypatch):
        from torsflow import bott

        calls = []
        original = bott._block_cohomologies

        def counted(blocks, *args, **kwargs):
            calls.extend(block.id for block in blocks)
            return original(blocks, *args, **kwargs)

        monkeypatch.setattr(bott, "_block_cohomologies", counted)
        fast_legal = random_circle_model(np.random.default_rng(5))
        for model, mode in ((kovalevskaya_model(), "auto"), (kovalevskaya_model(), "full"), (fast_legal, "fast")):
            calls.clear()
            total_torsion(model, mode=mode)
            assert sorted(calls) == sorted(b.id for b in model.blocks)

    def test_tiers_read_once_and_words_walked_once(self, monkeypatch):
        # validation reads each block's tier once and walks every word in
        # one evaluate_words call; no later stage re-derives either
        from torsflow import bott

        reads, walks = [], []
        tier = bott.CriticalBlock.tier
        walk = Representation.evaluate_words
        monkeypatch.setattr(bott.CriticalBlock, "tier", property(lambda b: reads.append(1) or tier.fget(b)))
        monkeypatch.setattr(Representation, "evaluate_words", lambda rep, w: walks.append(1) or walk(rep, w))
        seen = []
        for k in (1, 4, 16):
            model = kovalevskaya_replica(k, 1)
            reads.clear()
            walks.clear()
            report = total_torsion(model)
            assert np.log(report.total.modulus) == pytest.approx(k * np.log(4.0), rel=1e-10)
            assert len(reads) <= len(model.blocks)
            seen.append(len(walks))
        assert seen == [seen[0]] * 3, seen

    def test_validated_once(self, monkeypatch):
        from torsflow import bott

        calls = []
        original = bott.validate_model
        monkeypatch.setattr(bott, "validate_model", lambda m: calls.append(m) or original(m))
        total_torsion(kovalevskaya_model())
        assert len(calls) == 1

    def test_missing_connections_summarized_per_kind(self):
        report = total_torsion(kovalevskaya_model())
        lines = [w for w in report.warnings if "missing connection" in w]
        assert len(lines) <= 2
        d1 = [w for w in lines if " d1 pair" in w]
        d2 = [w for w in lines if " d2 pair" in w]
        assert len(d1) == 1 and "for 14 d1 pairs" in d1[0]
        assert len(d2) == 1 and "for 2 d2 pairs" in d2[0]
        # the first gaps in model order are quoted, the rest elided
        assert d1[0].endswith(": r2.w -> m1.w, r2.z -> m1.z, r3.w -> m1.w, ...")
        assert d2[0].endswith(": n.w -> m1.z, n.w -> m2.z")

    def test_complete_connection_data_gives_no_missing_warning(self):
        rep = simple_rep()
        blocks = (
            CriticalBlock("m", "circle", 0.0, index=0, delta=1, holonomy=()),
            CriticalBlock("r", "circle", 1.0, index=1, delta=-1, holonomy=("g",)),
        )
        conns = (
            GradientConnection(("r", "w"), ("m", "w"), (Orbit(1, ()), Orbit(-1, ("g",)))),
            GradientConnection(("r", "z"), ("m", "z"), (Orbit(1, ()),)),
        )
        d1 = assemble_d1(BottModel(rep, blocks, conns))
        assert not any("missing connection" in w for w in d1.warnings)
        d1 = assemble_d1(BottModel(rep, blocks, conns[:1]))
        lines = [w for w in d1.warnings if "missing connection" in w]
        assert lines == [
            "missing connection for 1 d1 pair (components set to zero): r.z -> m.z"
        ]

    def test_nan_fails_auto_cross_check(self, monkeypatch):
        from torsflow import TorsionError

        model = random_circle_model(np.random.default_rng(5))
        # one stacked slogdet for the fast product: NaN for every block
        monkeypatch.setattr(
            np.linalg, "slogdet", lambda a: (np.ones(np.shape(a)[:-2]), np.full(np.shape(a)[:-2], np.nan))
        )
        with pytest.raises(TorsionError, match="disagree"):
            total_torsion(model, mode="auto")

    def test_one_svd_per_operator(self, monkeypatch):
        # k = 4, m = 2 Kovalevskaya replica (24 circle blocks, acyclic):
        # one SVD per block D, all 24 in one stacked LAPACK call, and two
        # d1 blocks decomposed once each, as the stack of their 8 connected
        # components' parts, for the kernel of their source, the range and
        # its complement in their target and the page-one torsion; the
        # target slots have no outgoing d1, so they take that complement
        # with no further cut, and the page-one torsion complex is not
        # decomposed again
        calls = []
        original = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        model = kovalevskaya_replica(4, 2)
        monkeypatch.setattr(np.linalg, "svd", counted)
        report = total_torsion(model)
        assert report.total.modulus == pytest.approx(4.0 ** 8, rel=1e-12)
        assert report.acyclic
        assert calls == [(24, 2, 2), (8, 2, 2), (8, 2, 2)]
        # still one decision per operator: 24 D matrices and 2 x 8 parts
        assert sum(shape[0] if len(shape) == 3 else 1 for shape in calls) == 40


class TestOneDecomposition:
    """Circle factors, range bases and the Morse anchor come from one
    decomposition per operator and match the separate computations."""

    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("u", [0, 1, 2])
    def test_circle_factor_matches_map_torsion(self, m, delta, u):
        from torsflow import map_torsion

        rng = np.random.default_rng(100 * m + 10 * u + (delta > 0))
        q = rand_unitary(rng, m)
        generic = rand_unitary(rng, m)
        # eigenvalue delta of multiplicity `fixed` makes D singular with
        # that kernel dimension
        for fixed in sorted({0, 1, m}):
            phases = np.exp(1j * rng.uniform(0.3, 2 * np.pi - 0.3, size=m))
            eig = np.where(np.arange(m) < fixed, delta, delta * phases)
            holonomy = q @ np.diag(eig) @ q.conj().T
            for g in (holonomy, generic):
                rep = Representation(m, {"g": g})
                block = CriticalBlock("c", "circle", 0.0, index=u, delta=delta, holonomy=("g",))
                coh = block_cohomology(block, rep)
                ker, coker = coh.bases[u], coh.bases[u + 1]
                tau = map_torsion(coh.D, ker, coker, scale=1.0)
                assert coh.torsion_factor.modulus == pytest.approx(
                    tau.modulus ** ((-1) ** u), rel=1e-12
                )
                assert coh.torsion_factor.basis_note == tau.basis_note
                if g is holonomy:
                    assert ker.shape[1] == fixed

    def test_anchor_is_largest_operator_norm(self):
        rng = np.random.default_rng(7)
        for model in (kovalevskaya_model(), kovalevskaya_replica(2, 3), random_circle_model(rng, m=3)):
            fc = assemble_complex(model)
            norms = [np.linalg.norm(d, 2) for d in fc.base.diffs if d.size]
            assert fc.base.rank_scale == pytest.approx(max([1.0] + norms), rel=1e-12)
        # the orbit sums I - rho(g) = 2 lift the Kovalevskaya norm off the unit floor
        assert assemble_complex(kovalevskaya_model()).base.rank_scale == pytest.approx(2.0, rel=1e-12)


def _doubling_model(minima, saddles, m=64):
    """Circles with rho(g) = I_m and delta = -1, so every D is 2 I_m:
    |tau| = 2^(m (minima - saddles))."""
    rep = Representation(m, {"g": np.eye(m)})
    blocks = [
        CriticalBlock(f"m{i}", "circle", 0.0, index=0, delta=-1, holonomy=("g",))
        for i in range(minima)
    ] + [
        CriticalBlock(f"s{i}", "circle", 1.0, index=1, delta=-1, holonomy=("g",))
        for i in range(saddles)
    ]
    return BottModel(rep, tuple(blocks), ())


class TestLogModulus:
    """Block factors are accumulated as logs: a product that leaves the
    float range midway still gives the right total, and a total outside
    the range raises TorsionError."""

    @pytest.mark.parametrize("mode", ["auto", "full", "fast"])
    def test_partial_product_overflow_gives_the_total(self, mode):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = total_torsion(_doubling_model(17, 2), mode=mode)
        assert report.total.modulus == pytest.approx(2.0 ** 960, rel=1e-12)
        assert report.fast_total == pytest.approx(2.0 ** 960, rel=1e-12)

    @pytest.mark.parametrize("mode", ["auto", "full", "fast"])
    def test_total_outside_float_range_raises(self, mode):
        import warnings

        from torsflow import TorsionError

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TorsionError, match="floating-point range"):
                total_torsion(_doubling_model(17, 0), mode=mode)


def _reference_models():
    """Models whose block-built reduced operator is checked against the
    dense reference: Kovalevskaya with both representations, replicas,
    the 3- and 4-circle zig-zags and the non-acyclic patterns."""
    rng = np.random.default_rng(90)
    yield "kovalevskaya", kovalevskaya_model()
    yield "kovalevskaya-trivial", kovalevskaya_model(Representation(1, {"g": [[1.0]]}))
    yield "replica-3-2", kovalevskaya_replica(3, 2)
    yield "replica-2-4", kovalevskaya_replica(2, 4)
    for m in (1, 2):
        yield f"zigzag-{m}", zigzag_model(rng, m)
    yield "zigzag-acyclic", acyclic_zigzag_model(rng)
    yield "d2-fires", d2_fires_model(rng)
    for kind in ("torus", "klein"):
        yield f"extremal-{kind}", extremal_to_saddle_model(rng, kind)[0]
    yield "quotient-target", quotient_target_model(rng)


_REFERENCE = list(_reference_models())


class TestBlockSparse:
    """total_torsion holds the Morse differential as m x m blocks and never
    forms the dense Morse complex."""

    @pytest.mark.parametrize("model", [m for _, m in _REFERENCE], ids=[name for name, _ in _REFERENCE])
    def test_reduced_operator_matches_the_dense_reference(self, model):
        d1 = assemble_d1(model)
        reference = dense_reduced_operator(model, d1)
        cols = d1.e1.cols
        for level in range(2):
            for k in range(3):
                want = reference[k][cols[(level + 1, k + 1)], cols[(level, k)]]
                assert d1.blocks[(level, k - level)].shape == want.shape
                assert np.abs(d1.blocks[(level, k - level)] - want).max(initial=0.0) <= 1e-12
        for q in range(3):
            want = reference[q][cols[(2, q + 1)], cols[(0, q)]]
            assert d1.skips[q].shape == want.shape
            assert np.abs(d1.skips[q] - want).max(initial=0.0) <= 1e-12
        # the block-summed anchor is the dense Morse differential's norm
        from torsflow.linalg import operator_norm

        base = assemble_complex(model).base
        dense = max([1.0] + [operator_norm(base.diff(k)) for k in range(3)])
        assert d1.e1.anchor == pytest.approx(dense, rel=1e-12)
        assert base.rank_scale == d1.e1.anchor

    def test_solve_forms_no_dense_morse_complex(self, monkeypatch):
        import torsflow.bott as bott

        def dense(*args, **kwargs):
            raise AssertionError("dense Morse complex formed")

        monkeypatch.setattr(bott, "assemble_complex", dense)
        monkeypatch.setattr(bott, "BasedComplex", dense)
        report = total_torsion(kovalevskaya_replica(8, 3), mode="full")
        assert report.total.modulus == pytest.approx(4.0 ** 24, rel=1e-12)

    def test_thousands_of_blocks(self):
        # 2,304 blocks: 4^384 is inside the float range
        report = total_torsion(kovalevskaya_replica(384, 1), mode="full")
        assert np.log(report.total.modulus) == pytest.approx(384 * np.log(4.0), rel=1e-8)
        assert report.acyclic

    @pytest.mark.parametrize(
        "allowed, stage", [(0, "block cohomology"), (1, "first page")], ids=["any", "page"]
    )
    def test_memory_error_names_the_stage(self, monkeypatch, allowed, stage):
        # the first `allowed` SVD calls still run: at m = 2 the first is the
        # stack of the 24 block D matrices, and the first page decisions
        # come after it
        from torsflow import TorsionError

        original = np.linalg.svd
        calls = []

        def exhausted(a, *args, **kwargs):
            calls.append(np.shape(a))
            if len(calls) <= allowed:
                return original(a, *args, **kwargs)
            raise MemoryError

        monkeypatch.setattr(np.linalg, "svd", exhausted)
        with pytest.raises(TorsionError, match=f"out of memory in {stage}: 24 blocks, 16 connections, fiber dimension 2"):
            total_torsion(kovalevskaya_replica(4, 2), mode="full")


def _unions():
    """Disjoint unions of the test patterns (m = 2), each list of copies
    merged by disjoint_union."""
    rng = np.random.default_rng(95)
    patterns = [
        d2_fires_model(rng),
        extremal_to_saddle_model(rng, "torus")[0],
        extremal_to_saddle_model(rng, "klein")[0],
        quotient_target_model(rng),
        zigzag_model(rng, 2),
        kovalevskaya_replica(2, 2),
    ]
    yield "patterns", patterns
    yield "patterns-twice", patterns + [d2_fires_model(rng), quotient_target_model(rng), zigzag_model(rng, 2)]
    yield "kovalevskaya", [
        kovalevskaya_model(Representation(2, {"g": -np.eye(2)})),
        kovalevskaya_model(Representation(2, {"g": np.eye(2)})),
        kovalevskaya_model(Representation(2, {"g": np.diag([-1.0, 1.0])})),
    ]


_UNIONS = dict(_unions())


class TestComponentSplit:
    """total_torsion decides the page differentials part by part over the
    model's connected components, each part at its whole matrix's
    threshold, and the anchor as the largest component norm."""

    @staticmethod
    def _route(d1, dims):
        """Page two and three from d1 with the given slot part sizes: the
        next-page part sizes, E_inf part sizes, log tau_d1 and log tau_d2."""
        from torsflow.bott import PageTwo
        from torsflow.spectral import _page_step

        bases, log_d1, parts = _page_step(dims, d1.blocks, 1, 1e-10, d1.e1.anchor)
        d2 = assemble_d2(PageTwo(bases=bases, d1=d1, log_torsion=log_d1, parts=parts))
        _, log_d2, last = _page_step(parts, {(0, q): mat for q, mat in d2.items()}, 2, 1e-10, d1.e1.anchor)
        return parts, last, log_d1, log_d2

    @pytest.mark.parametrize("name", list(_UNIONS))
    def test_split_decisions_match_the_whole_matrix(self, monkeypatch, name):
        # every rank decision of the page steps goes through linalg._decide:
        # record each call's results, over all its stacks
        from torsflow import linalg

        model = disjoint_union(_UNIONS[name], np.random.default_rng(96))
        d1 = assemble_d1(model)
        calls = []
        original = linalg._decide

        def spy(stacks, tol_rel, scale, stacklevel, whole=None):
            results = original(stacks, tol_rel, scale, stacklevel + 1, whole)
            calls.append([res for per_stack in results for res in per_stack])
            return results

        monkeypatch.setattr(linalg, "_decide", spy)
        split = self._route(d1, d1.e1.part_dims())
        split_calls, calls[:] = list(calls), []
        # one part per slot: the whole E_1 slot matrices
        whole = self._route(d1, d1.e1.dims())
        assert max(map(len, split_calls)) > 1
        assert all(len(results) == 1 for results in calls)
        assert len(split_calls) == len(calls)
        for parts, (alone,) in zip(split_calls, calls):
            assert sum(res.rank for res in parts) == alone.rank
            assert {res.tolerance_used for res in parts} == {parts[0].tolerance_used}
            assert parts[0].tolerance_used == pytest.approx(alone.tolerance_used, rel=1e-12)
        for got, want in zip(split[:2], whole[:2]):
            assert {key: sum(n) for key, n in got.items()} == {key: sum(n) for key, n in want.items()}
        for got, want in zip(split[2:], whole[2:]):
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("name", list(_UNIONS))
    def test_layout_matches_the_block_properties(self, name):
        # the layout validation builds, against one read off each block's
        # own tier, level, labels and point_index, a plain union-find and
        # block_cohomology; the blocks are shuffled within tiers, so the
        # components interleave in model order
        model = disjoint_union(_UNIONS[name], np.random.default_rng(98))
        want = reference_layout(model)
        layout = ensure_valid(model)
        assert layout.tier == want["tier"]
        got = {
            "level": layout.level, "component": layout.component, "index": layout.index,
            "point_level": layout.level[layout.block], "point_component": layout.component[layout.block],
            "row": layout.row, "source": layout.source, "target": layout.target, "gap": layout.gap,
        }
        for key, values in got.items():
            assert values.tolist() == want[key], key
        assert len(set(want["component"])) >= len(_UNIONS[name])
        assert want["component"] != sorted(want["component"])
        assert len(layout.sums) == len(want["sums"])
        for mine, theirs in zip(layout.sums, want["sums"]):
            assert np.array_equal(mine, theirs)
        e1 = assemble_d1(model).e1
        assert e1.parts == want["parts"]
        for (j, k), width in want["width"].items():
            assert e1.width[j, k] == width
            assert e1.offset[j, k] == want["offset"][(j, k)], (j, k)

    @pytest.mark.parametrize("seed", [101, 111, 114])
    def test_repeated_pairs_are_summed_in_order(self, seed):
        # a pair given by several connections of several orbits each: the
        # layout's orbit sum is each connection's sum from 0, then their sum,
        # bit for bit as the loops of the reference give it (at these seeds,
        # one running sum over all orbits differs)
        rng = np.random.default_rng(seed)
        rep = Representation(2, {name: rand_unitary(rng, 2) for name in "abc"})
        blocks = (
            CriticalBlock("m", "circle", 0.0, index=0, delta=1, holonomy=("a",)),
            CriticalBlock("s", "circle", 1.0, index=1, delta=1, holonomy=("b",)),
        )
        conns = tuple(
            GradientConnection(("s", label), ("m", label), tuple(Orbit(sign, word) for sign, word in orbits))
            for label, orbits in (
                ("w", [(1, ("a",)), (-1, ("b", "c")), (1, ("c", "a^-1"))]),
                ("z", [(-1, ("c",))]),
                ("w", [(-1, ("a", "b")), (1, ())]),
                ("w", [(1, ("c", "c"))]),
            )
        )
        model = BottModel(rep, blocks, conns)
        want = reference_layout(model)
        layout = ensure_valid(model)
        assert (layout.source.tolist(), layout.target.tolist()) == (want["source"], want["target"])
        assert len(layout.sums) == 2
        for mine, theirs in zip(layout.sums, want["sums"]):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("name", list(_UNIONS))
    def test_union_total_is_the_sum_of_its_copies(self, name):
        copies = _UNIONS[name]
        report = total_torsion(disjoint_union(copies, np.random.default_rng(97)))
        alone = [total_torsion(copy) for copy in copies]
        assert np.log(report.total.modulus) == pytest.approx(
            sum(np.log(r.total.modulus) for r in alone), abs=1e-10
        )
        einf = {}
        for r in alone:
            for key, n in r.einf_dims.items():
                einf[key] = einf.get(key, 0) + n
        assert report.einf_dims == einf

    def test_anchor_is_the_largest_component_norm(self):
        from torsflow.linalg import operator_norm

        model = disjoint_union(_UNIONS["patterns"], np.random.default_rng(98))
        base = assemble_complex(model).base
        dense = max([1.0] + [operator_norm(base.diff(k)) for k in range(3)])
        assert assemble_d1(model).e1.anchor == pytest.approx(dense, rel=1e-12)
        assert base.rank_scale == pytest.approx(dense, rel=1e-12)

    def test_solve_lapack_inputs_do_not_grow_with_copies(self, monkeypatch):
        # the largest matrix any LAPACK call sees (its last two axes) and
        # the number of calls are the same for 1, 4 and 16 copies
        shapes = []
        for name in ("svd", "eigvalsh", "slogdet"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        for m in (1, 4):
            seen = []
            for k in (1, 4, 16):
                shapes.clear()
                report = total_torsion(kovalevskaya_replica(k, m), mode="full")
                assert np.log(report.total.modulus) == pytest.approx(k * m * np.log(4.0), rel=1e-10)
                seen.append((len(shapes), max(max(shape[-2:]) for shape in shapes)))
            assert seen[0] == seen[1] == seen[2], (m, seen)
            assert seen[0][1] <= 2 * m
