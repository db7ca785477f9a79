from collections import Counter

import pytest

from protex import factorization
from protex import (
    MAG_ONE,
    Magnitude,
    FinPointedSet,
    FinWeightedVec,
    GeneratingSet,
    PrimeField,
    WeightedSpace,
    classify_morphism,
    factor_map,
    precover,
    special_preenvelope,
)
from protex.category import admissible_monos, is_injective_object
from protex.errors import FuelExhausted, InvariantViolation
from protex.factorization import FactorizationCertificate
from protex.pointed_sets import PointedMap, PointedSet

F2 = PrimeField(2)
E0, E1 = MAG_ONE, Magnitude.of(1)


def finvec_instance(max_dim=2):
    return FinWeightedVec(F2, (E0, E1), max_dim=max_dim)


def all_mono_generators(C):
    return GeneratingSet.of(C, admissible_monos(C))


class TestGeneratingSet:
    def test_rejects_non_monos(self):
        C = finvec_instance()
        X = WeightedSpace(F2, (E0,))
        bad = C.zero_morphism(X, X)
        # the error names the first refused index
        message = r"^generators\[1\]: not an admissible monomorphism$"
        with pytest.raises(InvariantViolation, match=message):
            GeneratingSet.of(C, [C.identity(X), bad, bad])


class TestFactorMap:
    def test_rlp_map_needs_zero_steps(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        X = WeightedSpace(F2, (E0,))
        cert = factor_map(C, C.identity(X), G, fuel=10)
        assert cert.steps == ()
        assert cert.left == C.identity(X)
        assert cert.right == C.identity(X)
        assert cert.rlp_verified
        assert cert.replay(C, G)

    def test_fuel_zero_raises_with_partial_certificate(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        X = WeightedSpace(F2, (E0,))
        f = C.zero_morphism(C.zero_object(), X)
        with pytest.raises(FuelExhausted) as err:
            factor_map(C, f, G, fuel=0)
        assert err.value.certificate is not None
        assert not err.value.certificate.rlp_verified

    def test_factorization_recomposes(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        X = WeightedSpace(F2, (E1,))
        f = C.zero_morphism(C.zero_object(), X)
        cert = factor_map(C, f, G, fuel=20)
        assert C.compose(cert.right, cert.left) == f
        assert cert.replay(C, G)
        assert len(cert.steps) > 0

    def test_left_legs_are_admissible_monos(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        for X in C.objects():
            cert = factor_map(C, C.zero_morphism(C.zero_object(), X), G, fuel=50)
            assert C.strictness(cert.left).strict_mono
            # every step mono is admissible (pushouts of admissible monos)
            for step in cert.steps:
                assert C.strictness(step.step_mono).strict_mono

    def test_tampered_certificate_fails_replay(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        X = WeightedSpace(F2, (E1,))
        cert = factor_map(C, C.zero_morphism(C.zero_object(), X), G, fuel=20)
        assert cert.steps
        from dataclasses import replace

        tampered = replace(cert, left=C.identity(cert.left.codomain))
        assert not tampered.replay(C, G)


class TestPreenvelope:
    def test_every_bounded_object_has_identity_like_envelope(self):
        # all objects here are injective, so envelopes are isomorphisms
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        for X in C.objects():
            res = special_preenvelope(C, X, G, fuel=100)
            assert res.mono_admissible
            assert res.codomain_orthogonal
            assert res.certificate.steps == ()
            assert classify_morphism(res.envelope).iso
            assert is_injective_object(C, res.envelope.codomain).ok

    def test_zero_object_identity_envelope(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        res = special_preenvelope(C, C.zero_object(), G, fuel=5)
        assert res.envelope == C.identity(C.zero_object())


class TestPrecover:
    def test_zero_object_zero_precover(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        res = precover(C, C.zero_object(), G, fuel=5)
        assert res.certificate.steps == ()
        assert res.hom_surjective

    def test_precover_is_hom_surjective(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        for X in C.objects():
            res = precover(C, X, G, fuel=100)
            assert res.hom_surjective
            assert res.certificate.replay(C, G)

    def test_precover_right_leg_has_rlp(self):
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        X = WeightedSpace(F2, (E0,))
        res = precover(C, X, G, fuel=100)
        assert res.certificate.rlp_verified
        # the cover is onto in particular
        assert classify_morphism(res.cover).epi

    def test_cover_through_zero_is_not_hom_surjective(self, monkeypatch):
        # a step-free certificate whose cover is 0 -> X: only zero maps factor through it
        C = finvec_instance(max_dim=1)
        G = all_mono_generators(C)
        X = WeightedSpace(F2, (E0,))
        cover = C.zero_morphism(C.zero_object(), X)
        cert = FactorizationCertificate(cover, C.identity(C.zero_object()), cover, (), True, 0)
        monkeypatch.setattr(factorization, "factor_map", lambda *args: cert)
        res = precover(C, X, G)
        assert res.cover == cover
        assert res.hom_surjective is False

    def test_hom_surjectivity_composes_each_pair_once(self, monkeypatch):
        # the precover-sweep instance: its 31 generators have 6 distinct cokernels
        C = finvec_instance()
        G = all_mono_generators(C)
        factored = []
        pairs = Counter()
        factor, compose = factorization.factor_map, FinWeightedVec.compose

        def factor_then_count(*args):
            factored.append(factor(*args))
            return factored[-1]

        def counted(self, g, f):
            if factored:  # the hom-surjectivity check, after the factorization
                pairs[g, f] += 1
            return compose(self, g, f)

        monkeypatch.setattr(factorization, "factor_map", factor_then_count)
        monkeypatch.setattr(FinWeightedVec, "compose", counted)
        for X in C.objects():
            factored.clear()
            res = precover(C, X, G, fuel=100)
            assert res.hom_surjective
            assert all(g == res.cover for g, _ in pairs)
            assert max(pairs.values(), default=1) == 1
            pairs.clear()


class TestPointedSetFactorization:
    def test_preenvelope_trivial_everything_injective(self):
        C = FinPointedSet(max_size=2)
        G = all_mono_generators(C)
        for X in C.objects():
            res = special_preenvelope(C, X, G, fuel=50)
            assert res.certificate.steps == ()
            assert res.codomain_orthogonal

    def test_precover_builds_cells(self):
        C = FinPointedSet(max_size=2)
        gens = [PointedMap(PointedSet(0), PointedSet(1), (0,))]
        G = GeneratingSet.of(C, gens)
        X = PointedSet(2)
        res = precover(C, X, G, fuel=50)
        assert res.hom_surjective
        assert res.certificate.replay(C, G)
        assert res.cover.dom.size >= 2
