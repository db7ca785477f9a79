import random

import pytest

from protex import serialize as ser
from protex import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    FinPointedSet,
    FinWeightedVec,
    GeneratingSet,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    WeightedModuleCategory,
    WeightedSpace,
)
from protex.category import admissible_monos
from protex.errors import InvariantViolation, ParseError, SolverUnavailable
from protex.factorization import factor_map
from protex.pointed_sets import PointedMap, PointedSet
from proptools import random_nonexpanding_map
from protex.randgen import random_space

E0, E1 = MAG_ONE, Magnitude.of(1)


class TestFieldAndSpace:
    def test_field_round_trip(self):
        for field in [PAdicRationals(3), TrivialRationals(), PrimeField(5)]:
            assert ser.parse_field(ser.field_to_json(field)) == field

    def test_space_round_trip_random(self):
        rng = random.Random(2)
        for _ in range(50):
            field = random.Random(rng.random()).choice(
                [PAdicRationals(2), TrivialRationals(), PrimeField(3)]
            )
            sp = random_space(field, rng, 3, allow_null=True)
            assert ser.parse_space(ser.space_to_json(sp)) == sp

    def test_map_round_trip_random(self):
        rng = random.Random(3)
        field = PAdicRationals(2)
        for _ in range(50):
            X = random_space(field, rng, 3, allow_null=True)
            Y = random_space(field, rng, 3, allow_null=True)
            f = random_nonexpanding_map(X, Y, rng)
            assert ser.parse_map(ser.map_to_json(f)) == f

    def test_bad_field(self):
        with pytest.raises(ParseError) as err:
            ser.parse_field({"padic": 4})
        assert "padic" in str(err.value)

    def test_bad_magnitude_names_the_field(self):
        with pytest.raises(ParseError) as err:
            ser.parse_space({"field": {"trivial": "F2"}, "weights": ["nope"]})
        assert "weights[0]" in str(err.value)

    def test_wrong_row_count_names_matrix(self):
        data = {
            "domain": {"field": {"trivial": "F2"}, "weights": ["g^0"]},
            "codomain": {"field": {"trivial": "F2"}, "weights": ["g^0", "g^0"]},
            "matrix": [["1"]],
        }
        with pytest.raises(ParseError) as err:
            ser.parse_map(data)
        assert "matrix" in str(err.value) and "2 rows" in str(err.value)

    @pytest.mark.parametrize(
        "parse, data, path, message",
        [
            (ser.parse_field, {"padic": 4}, "field.padic", "p-adic base must be prime, got 4"),
            (
                ser.parse_field,
                {"trivial": "Fx"},
                "field.trivial",
                "unknown trivially valued field 'Fx'",
            ),
            (
                ser.parse_space,
                {"field": {"padic": 2}, "weights": ["g^1/0"]},
                "space.weights[0]",
                "zero denominator",
            ),
            (
                lambda data: ser.parse_vector(data, WeightedSpace(PAdicRationals(3), (E0,))),
                ["1/0"],
                "vector[0]",
                "zero denominator",
            ),
            (
                lambda data: ser.parse_vector(data, WeightedSpace(PrimeField(3), (E0,))),
                ["x"],
                "vector[0]",
                "not an element of F_3",
            ),
            (
                ser.parse_instance,
                {"kind": "finvec", "p": 4, "weights": ["g^0"]},
                "instance.p",
                "field order must be prime, got 4",
            ),
            (
                ser.parse_map,
                {
                    "domain": {"field": {"padic": 2}, "weights": ["g^0"]},
                    "codomain": {"field": {"padic": 2}, "weights": ["g^0"]},
                    "matrix": [["x"]],
                },
                "map.matrix[0][0]",
                "not a rational number",
            ),
            (
                ser.parse_space,
                {"field": {"padic": 2}, "weights": ["g^x"]},
                "space.weights[0]",
                "not a rational number",
            ),
            # a refused entry after valid ones, or the first of two, is named by its own index
            (
                ser.parse_map,
                {
                    "domain": {"field": {"padic": 3}, "weights": ["g^0", "g^0", "g^0"]},
                    "codomain": {"field": {"padic": 3}, "weights": ["g^0", "g^0"]},
                    "matrix": [["1", "0", "2"], ["0", "1/3", "1/0"]],
                },
                "map.matrix[1][2]",
                "zero denominator",
            ),
            (
                ser.parse_space,
                {"field": {"trivial": "Q"}, "weights": ["g^0", "0", "1", "g^1"]},
                "space.weights[2]",
                "magnitude must be '0' or 'g^<rational>', got '1'",
            ),
            (
                lambda data: ser.parse_vector(data, WeightedSpace(PrimeField(5), (E0,) * 4)),
                ["1", "4", "0", "5"],
                "vector[3]",
                "element 5 out of range for F_5",
            ),
            (
                # two refused entries: the first in row-major order is named
                ser.parse_map,
                {
                    "domain": {"field": {"padic": 2}, "weights": ["g^0", "g^0"]},
                    "codomain": {"field": {"padic": 2}, "weights": ["g^0", "g^0"]},
                    "matrix": [["1", "2"], ["1/0", "x"]],
                },
                "map.matrix[1][0]",
                "zero denominator",
            ),
            (
                ser.parse_space,
                {"field": {"padic": 2}, "weights": ["g^0", "g^1/0", "g^y"]},
                "space.weights[1]",
                "zero denominator",
            ),
            (
                ser.parse_map,
                {
                    "domain": {"field": {"trivial": "F2"}, "weights": ["g^0", "g^0"]},
                    "codomain": {"field": {"trivial": "F2"}, "weights": ["g^0"]},
                    "matrix": [["1", 1]],
                },
                "map.matrix[0][1]",
                "field element must be a string",
            ),
            (
                ser.parse_space,
                {"field": {"padic": 2}, "weights": ["g^0", None]},
                "space.weights[1]",
                "magnitude must be a string",
            ),
            (
                # a non-string after a refused entry: the refused entry is named
                lambda data: ser.parse_vector(data, WeightedSpace(TrivialRationals(), (E0,) * 3)),
                ["1", "2/0", 3],
                "vector[1]",
                "zero denominator",
            ),
            (
                lambda data: ser.parse_vector(data, WeightedSpace(TrivialRationals(), (E0,) * 3)),
                ["1", 2, "3/0"],
                "vector[1]",
                "field element must be a string",
            ),
        ],
        ids=[
            "padic-prime",
            "trivial-tag",
            "weight",
            "element",
            "prime-element",
            "instance-prime",
            "not-a-rational-entry",
            "not-a-rational-exponent",
            "matrix-entry",
            "later-weight",
            "vector-entry",
            "first-of-two-in-matrix",
            "first-of-two-weights",
            "non-string-entry",
            "non-string-weight",
            "refused-before-non-string",
            "non-string-before-refused",
        ],
    )
    def test_value_reader_errors_name_path_and_reason(self, parse, data, path, message):
        with pytest.raises(ParseError) as err:
            parse(data)
        assert (err.value.path, err.value.message) == (path, message)

    def test_null_direction_violation_cites_index(self):
        data = {
            "domain": {"field": {"padic": 2}, "weights": ["0", "g^0"]},
            "codomain": {"field": {"padic": 2}, "weights": ["g^0"]},
            "matrix": [["1", "0"]],
        }
        with pytest.raises(InvariantViolation) as err:
            ser.parse_map(data)
        assert "basis index 0" in str(err.value)


class TestInstances:
    def test_round_trips(self):
        # each enumerable instance describes itself as the JSON that parses back to it
        for inst in [
            FinWeightedVec(PrimeField(2), (E0, E1), max_dim=2),
            FinWeightedVec(PrimeField(3), (E1, Magnitude.of("1/2"), E0), max_dim=1),
            FinPointedSet(3),
        ]:
            assert ser.parse_instance(inst.describe()) == inst

    def test_weighted_instance_has_no_description(self):
        with pytest.raises(SolverUnavailable):
            WeightedModuleCategory(PAdicRationals(5)).describe()

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            ser.parse_instance({"kind": "mystery"})


class TestCertificates:
    def test_round_trip_and_replay(self):
        C = FinWeightedVec(PrimeField(2), (E0, E1), max_dim=1)
        G = GeneratingSet.of(C, admissible_monos(C))
        X = WeightedSpace(PrimeField(2), (E1,))
        cert = factor_map(C, C.zero_morphism(C.zero_object(), X), G, fuel=30)
        data = ser.certificate_to_json(C, cert)
        back = ser.parse_certificate(C, data, len(G.generators))
        assert back == cert
        assert back.replay(C, G)

    def test_pointed_morphism_round_trip(self):
        C = FinPointedSet(3)
        f = PointedMap(PointedSet(2), PointedSet(1), (0, 1, 0))
        assert ser.parse_morphism(C, ser.morphism_to_json(C, f)) == f


def test_report_canonical_bytes():
    r1 = ser.dump_report(ser.make_report("x", {"b": 1, "a": 2}, {"z": [1, 2]}))
    r2 = ser.dump_report(ser.make_report("x", {"a": 2, "b": 1}, {"z": [1, 2]}))
    assert r1 == r2
