import itertools
import random
from fractions import Fraction

import pytest

from protex import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    WeightedSpace,
    basis_vector,
    biproduct,
    bounded_map,
    chain_colimit,
    classify_morphism,
    classify_strictness,
    cokernel,
    compose,
    coproduct_product_comparison,
    free_cover,
    identity_between,
    identity_map,
    image_presentation,
    kernel,
    norm,
    operator_norm,
    orthogonalize,
    pullback,
    pushout,
    rank_one,
    rescale,
    vector,
    zero_map,
)
from protex import linalg
from protex import constructions as con
from protex.constructions import is_iso_nonexpanding, map_analysis, retraction, section
from protex.errors import NotComposable, NotNonExpanding, NotSpanning
from protex.finvec import FinWeightedVec, WeightedModuleCategory
from proptools import (
    random_isometric_auto,
    random_nonexpanding_map,
    random_strict_epi,
    random_strict_mono,
)
from protex.ortho import image
from protex.randgen import random_space, random_vector

Q2 = PAdicRationals(2)
F2 = PrimeField(2)
E0, E1, E2 = MAG_ONE, Magnitude.of(1), Magnitude.of(2)


class TestKernelCokernel:
    def test_kernel_of_identity_and_zero(self):
        X = WeightedSpace(Q2, (E0, E1))
        K, _ = kernel(identity_map(X))
        assert K.dim == 0
        Y = WeightedSpace(Q2, (E2,))
        K2, incl = kernel(zero_map(X, Y))
        assert K2.weights == X.weights
        assert incl == identity_map(X)

    def test_kernel_of_projection(self):
        X = WeightedSpace(Q2, (E0, E1))
        Y = WeightedSpace(Q2, (E0,))
        proj = bounded_map(X, Y, [[Fraction(1), Fraction(0)]])
        K, incl = kernel(proj)
        assert K.weights == (E1,)
        assert classify_morphism(incl).strict_mono

    def test_cokernel_of_identity_and_zero(self):
        X = WeightedSpace(Q2, (E0, E1))
        Q, _ = cokernel(identity_map(X))
        assert Q.dim == 0
        Y = WeightedSpace(Q2, (E2,))
        Q2_, proj = cokernel(zero_map(Y, X))
        assert Q2_.weights == X.weights
        assert proj == identity_map(X)

    def test_cokernel_of_diagonal_inclusion(self):
        X = WeightedSpace(F2, (E0, E0))
        line = rank_one(F2, E0)
        incl = bounded_map(line, X, [[1], [1]])
        Q, proj = cokernel(incl)
        assert Q.weights == (E0,)
        assert classify_morphism(proj).strict_epi
        assert compose(proj, incl) == zero_map(line, Q)

    def test_kernel_inclusion_is_isometry_with_nulls(self):
        X = WeightedSpace(Q2, (E0, MAG_ZERO))
        Y = WeightedSpace(Q2, (E0,))
        f = bounded_map(X, Y, [[Fraction(1), Fraction(0)]])
        K, incl = kernel(f)
        assert K.weights == (MAG_ZERO,)
        assert classify_morphism(incl).strict_mono

    def test_image_presentation(self):
        X = WeightedSpace(Q2, (E0,))
        Y = WeightedSpace(Q2, (E0, E1))
        f = bounded_map(X, Y, [[Fraction(1)], [Fraction(1)]])
        S, incl = image_presentation(f)
        assert S.weights == (E1,)
        assert [v for v in incl.matrix] == [(Fraction(1),), (Fraction(1),)]
        assert image_presentation(zero_map(X, Y))[0].dim == 0
        assert image_presentation(identity_map(Y))[0].weights == Y.weights


class TestClassify:
    def test_identity_all_flags(self):
        X = WeightedSpace(Q2, (E0, E1))
        record = classify_morphism(identity_map(X))
        assert all(record.as_dict().values())

    def test_rescale_down_identity(self):
        M = WeightedSpace(Q2, (E0, E0))
        f = identity_between(M, rescale(M, Magnitude.of(-1)))
        record = classify_morphism(f)
        assert record.mono and record.epi
        assert not record.strict_mono and not record.strict_epi and not record.iso

    def test_expanding_map_rejected(self):
        M = WeightedSpace(Q2, (E0,))
        f = identity_between(rescale(M, Magnitude.of(-1)), M)
        with pytest.raises(NotNonExpanding):
            classify_morphism(f)

    def test_quotient_projection_strict_epi(self):
        X = WeightedSpace(F2, (E0, E0))
        sub = orthogonalize(X, [vector(X, (1, 1))])
        _, proj = cokernel(sub.inclusion())
        record = classify_morphism(proj)
        assert record.strict_epi and not record.mono

    def test_split_flags_on_biproduct_legs(self):
        X = WeightedSpace(Q2, (E0,))
        Y = WeightedSpace(Q2, (E1,))
        bp = biproduct([X, Y])
        inj = classify_morphism(bp.injections[0])
        assert inj.split_mono and inj.strict_mono and not inj.epi
        proj = classify_morphism(bp.projections[0])
        assert proj.split_epi and proj.strict_epi and not proj.mono

    def test_strict_mono_without_splitting_norm(self):
        # inclusion of the diagonal with weights that forbid a section of norm one
        X = WeightedSpace(F2, (E0, E1))
        line = rank_one(F2, E1)
        incl = bounded_map(line, X, [[1], [1]])
        record = classify_morphism(incl)
        assert record.strict_mono
        assert record.split_mono  # residual retraction exists here
        Y = WeightedSpace(F2, (E1,))
        f = bounded_map(WeightedSpace(F2, (E0,)), Y, [[1]])
        # expanding map cannot be classified
        with pytest.raises(NotNonExpanding):
            classify_morphism(f)

    def test_retraction_and_section_roundtrip(self):
        rng = random.Random(17)
        for _ in range(150):
            X = random_space(Q2, rng, 3, allow_null=True)
            Y = random_space(Q2, rng, 3, allow_null=True)
            f = random_nonexpanding_map(X, Y, rng)
            r = retraction(f)
            if r is not None:
                assert compose(r, f) == identity_map(X)
                assert operator_norm(r) <= MAG_ONE
            s = section(f)
            if s is not None:
                assert compose(f, s) == identity_map(Y)
                assert operator_norm(s) <= MAG_ONE

    def test_split_agrees_with_exhaustive_search_f2(self):
        # brute-force oracle: search all candidate one-sided inverses
        C_weights = [(E0,), (E1,), (E0, E1), (E0, E0)]
        spaces = [WeightedSpace(F2, w) for w in C_weights]
        for X in spaces:
            for Y in spaces:
                for entries in itertools.product([0, 1], repeat=X.dim * Y.dim):
                    rows = [
                        list(entries[i * X.dim : (i + 1) * X.dim]) for i in range(Y.dim)
                    ]
                    f = bounded_map(X, Y, rows)
                    if operator_norm(f) > MAG_ONE:
                        continue
                    record = classify_morphism(f)
                    found_retraction = False
                    found_section = False
                    for back in itertools.product([0, 1], repeat=X.dim * Y.dim):
                        rows_b = [
                            list(back[i * Y.dim : (i + 1) * Y.dim]) for i in range(X.dim)
                        ]
                        g = bounded_map(Y, X, rows_b)
                        if operator_norm(g) > MAG_ONE:
                            continue
                        if compose(g, f) == identity_map(X):
                            found_retraction = True
                        if compose(f, g) == identity_map(Y):
                            found_section = True
                    assert record.split_mono == found_retraction
                    assert record.split_epi == found_section


def _finvec_maps():
    C = FinWeightedVec(F2, (E0, E1), max_dim=2)
    for X in C.objects():
        for Y in C.objects():
            yield from C.morphisms(X, Y)


def _padic_maps(count):
    rng = random.Random(606)
    for _ in range(count):
        field = PAdicRationals(rng.choice([2, 3]))
        X = random_space(field, rng, 3, allow_null=True)
        Y = random_space(field, rng, 3, allow_null=True)
        yield random_nonexpanding_map(X, Y, rng)
        yield random_strict_mono(field, rng, max_dim=3, allow_null=True)
        yield random_strict_epi(field, rng, max_dim=3, allow_null=True)
        yield random_isometric_auto(X, rng)


def _trivial_maps(count):
    # trivially valued Q: entries cannot be rescaled, and null directions are allowed
    rng = random.Random(607)
    field = TrivialRationals()
    for _ in range(count):
        X = random_space(field, rng, 3, allow_null=True)
        Y = random_space(field, rng, 3, allow_null=True)
        yield random_nonexpanding_map(X, Y, rng)
        yield random_strict_mono(field, rng, max_dim=3, allow_null=True)
        yield random_strict_epi(field, rng, max_dim=3, allow_null=True)
        yield random_isometric_auto(X, rng)


class TestSharedAnalysis:
    """classify_morphism reads one analysis; the separate entry points agree."""

    @pytest.mark.parametrize(
        "maps",
        [_finvec_maps, lambda: _padic_maps(150), lambda: _trivial_maps(150)],
        ids=["finvec", "padic", "trivial-q"],
    )
    def test_flags_match_the_separate_calls(self, maps):
        seen = set()
        for f in maps():
            F = f.domain.field
            record = classify_morphism(f)
            generic = classify_strictness(WeightedModuleCategory(F), f)
            assert (record.strict_mono, record.strict_epi) == (generic.strict_mono, generic.strict_epi)
            rank = linalg.rank(F, f.rows())
            assert record.mono == (rank == f.domain.dim)
            assert record.epi == (rank == f.codomain.dim)
            # the split flags, read off the strict flags, against the constructed inverses
            assert record.split_mono == (retraction(f) is not None)
            assert record.split_epi == (section(f) is not None)
            assert record.iso == is_iso_nonexpanding(f)
            # the full-rank closed forms, against the general computation
            a = map_analysis(f)
            if record.epi:
                assert a.image_basis == image(f)
            if record.mono and record.epi:
                assert a.change_inverse == linalg.inverse(F, a.change)
            if record.mono:
                assert a.kernel_basis == orthogonalize(f.domain, [])
            seen.add(tuple(record.as_dict().values()))
        # every flag takes both values
        for k in range(7):
            assert {flags[k] for flags in seen} == {False, True}

    def test_classification_builds_no_one_sided_inverse(self, monkeypatch):
        built = []
        monkeypatch.setattr(con, "_contraction", lambda *args: built.append(args))
        for f in _padic_maps(20):
            classify_morphism(f)
        assert built == []

    def test_constructions_orthogonalize_no_empty_list(self, monkeypatch):
        # an injective map has an empty nullspace: its kernel basis is empty
        # without an orthogonalization, in kernel(), pullback and the analysis
        sizes = []
        real = con.orthogonalize

        def spy(space, generators):
            sizes.append(len(generators))
            return real(space, generators)

        monkeypatch.setattr(con, "orthogonalize", spy)
        mono = 0
        for f in _padic_maps(40):
            mono += classify_morphism(f).mono
            kernel(f)
            pullback(f, f)
            pushout(f, f)
        assert mono >= 20 and sizes and 0 not in sizes

    def test_one_classification_eliminates_once(self, monkeypatch):
        # an isometric automorphism of Q_2^3: every flag holds, so every part
        # of the analysis is read; eliminating [f | I] is the only elimination,
        # since it also holds the inverse coordinate change onto the image
        X = WeightedSpace(Q2, (E0, E1, E0))
        f = bounded_map(X, X, [[1, 2, 0], [0, 1, 0], [0, Fraction(1, 2), 1]])
        calls = []
        rref = linalg.rref

        def counted(F, a):
            calls.append(len(a))
            return rref(F, a)

        monkeypatch.setattr(linalg, "rref", counted)
        record = classify_morphism(f)
        assert all(record.as_dict().values())
        assert len(calls) == 1


class TestSquares:
    def test_pullback_along_identity(self):
        X = WeightedSpace(Q2, (E0, E1))
        Y = WeightedSpace(Q2, (E0,))
        f = bounded_map(X, Y, [[Fraction(1), Fraction(0)]])
        square = pullback(f, identity_map(Y))
        u = square.mediate(identity_map(X), f)
        assert u is not None
        from protex.constructions import is_iso_nonexpanding

        assert is_iso_nonexpanding(u)

    def test_kernel_as_pullback_against_zero(self):
        X = WeightedSpace(Q2, (E0, E1))
        Y = WeightedSpace(Q2, (E0,))
        f = bounded_map(X, Y, [[Fraction(1), Fraction(2)]])
        Z = WeightedSpace(Q2, ())
        square = pullback(f, zero_map(Z, Y))
        K, incl = kernel(f)
        assert square.space.weights == K.weights

    def test_pushout_along_identity(self):
        K = WeightedSpace(Q2, (E1,))
        L = WeightedSpace(Q2, (E0, E1))
        g = bounded_map(K, L, [[Fraction(0)], [Fraction(1)]])
        square = pushout(identity_map(K), g)
        from protex.constructions import is_iso_nonexpanding

        m = square.mediate(g, identity_map(L))
        assert m is not None and is_iso_nonexpanding(m)

    def test_cokernel_as_pushout_into_zero(self):
        X = WeightedSpace(F2, (E0, E0))
        sub = orthogonalize(X, [vector(X, (1, 1))])
        incl = sub.inclusion()
        Z = WeightedSpace(F2, ())
        square = pushout(incl, zero_map(incl.domain, Z))
        Q, _ = cokernel(incl)
        assert square.space.weights == Q.weights

    def test_pullback_of_two_strict_epis_over_f2(self):
        X = WeightedSpace(F2, (E0, E0))
        Y = WeightedSpace(F2, (E0,))
        f = bounded_map(X, Y, [[1, 0]])
        g = bounded_map(X, Y, [[1, 1]])
        assert classify_morphism(f).strict_epi and classify_morphism(g).strict_epi
        square = pullback(f, g)
        assert classify_morphism(square.p1).strict_epi
        assert classify_morphism(square.p2).strict_epi

    def test_pushout_of_strict_mono_along_arbitrary_f2(self):
        X = WeightedSpace(F2, (E0, E0))
        line = rank_one(F2, E0)
        i = bounded_map(line, X, [[1], [1]])
        g = bounded_map(line, rank_one(F2, E0), [[1]])
        assert classify_morphism(i).strict_mono
        square = pushout(i, g)
        assert classify_morphism(square.j2).strict_mono

    def test_mediate_rejects_noncommuting_cones(self):
        X = WeightedSpace(Q2, (E0,))
        Y = WeightedSpace(Q2, (E0,))
        f = identity_between(X, Y)
        square = pullback(f, identity_map(Y))
        bad = square.mediate(zero_map(X, X), f)
        assert bad is None


class TestFreeCover:
    def test_rank_one_cover(self):
        M = rank_one(Q2, Magnitude.of(Fraction(1, 2)))
        cover = free_cover(M, [basis_vector(M, 0)])
        record = classify_morphism(cover)
        assert record.iso and record.strict_epi

    def test_zero_module_empty_cover(self):
        M = WeightedSpace(Q2, ())
        cover = free_cover(M, [])
        assert cover.domain.dim == 0
        assert classify_morphism(cover).strict_epi

    def test_all_nonzero_vectors_f2(self):
        M = WeightedSpace(F2, (E0, E0))
        spanning = [vector(M, c) for c in [(1, 0), (0, 1), (1, 1)]]
        cover = free_cover(M, spanning)
        assert cover.domain.dim == 3
        assert classify_morphism(cover).strict_epi

    def test_not_spanning_rejected(self):
        M = WeightedSpace(Q2, (E0, E1))
        with pytest.raises(NotSpanning):
            free_cover(M, [basis_vector(M, 0)])

    def test_null_directions_need_null_spanning_vectors(self):
        M = WeightedSpace(Q2, (E0, MAG_ZERO))
        with pytest.raises(NotSpanning):
            free_cover(M, [basis_vector(M, 0)])
        cover = free_cover(M, [basis_vector(M, 0), basis_vector(M, 1)])
        assert cover.domain.weights == (E0, MAG_ZERO)
        assert classify_morphism(cover).strict_epi


class TestChainColimit:
    def test_single_identity_stage(self):
        X = WeightedSpace(Q2, (E0, E1))
        col = chain_colimit([identity_map(X)])
        assert col.colimit == X
        assert col.cocone[0] == identity_map(X)

    def test_isometry_chain_keeps_norms(self):
        X = WeightedSpace(Q2, (E0, E1))
        col = chain_colimit([identity_map(X), identity_map(X)])
        v = vector(X, (Fraction(1), Fraction(3)))
        for i in range(3):
            assert col.colimit_norm(i, v) == norm(v)

    def test_rescale_down_chain(self):
        M = WeightedSpace(Q2, (E0, E1))
        half, quarter = Magnitude.of(-1), Magnitude.of(-2)
        M1, M2 = rescale(M, half), rescale(M, quarter)
        chain = [identity_between(M, M1), identity_between(M1, M2)]
        col = chain_colimit(chain)
        e0 = basis_vector(M, 0)
        # infimum over the three suffix images: g^0, g^-1, g^-2
        assert col.colimit_norm(0, e0) == Magnitude.of(-2) * M.weights[0]

    def test_rejects_noncomposable_and_expanding(self):
        X = WeightedSpace(Q2, (E0,))
        Y = WeightedSpace(Q2, (E1,))
        with pytest.raises(NotComposable):
            chain_colimit([identity_map(X), identity_map(Y)])
        up = identity_between(rescale(X, Magnitude.of(-1)), X)
        with pytest.raises(NotNonExpanding):
            chain_colimit([up])


def test_biproduct_comparison_is_identity():
    X = WeightedSpace(Q2, (E0,))
    Y = WeightedSpace(Q2, (E2, MAG_ZERO))
    bp = biproduct([X, Y])
    assert coproduct_product_comparison(bp) == identity_map(bp.space)
