"""JSON schemas for spaces, maps, instances, reports and certificates.

Parsing validates every structural invariant and reports the path of the
offending field; serialization is canonical (sorted keys, no volatile
data) so that identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Any

from . import __version__
from .category import CategoryInstance
from .errors import InvariantViolation, ParseError
from .factorization import FactorizationCertificate, FactorizationStep
from .finvec import FinWeightedVec, WeightedModuleCategory
from .ortho import OrthoBasis
from .pointed_sets import FinPointedSet, PointedMap, PointedSet
from .scalars import (
    Magnitude,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    ValuedField,
    format_magnitude,
    parse_magnitude,
)
from .spaces import BoundedMap, Vector, WeightedSpace, bounded_map, norm


def _need(data: dict, key: str, path: str):
    if not isinstance(data, dict):
        raise ParseError(path, f"expected an object, got {type(data).__name__}")
    if key not in data:
        raise ParseError(f"{path}.{key}", "missing required field")
    return data[key]


# ---------------------------------------------------------------------------
# Fields, magnitudes, spaces, maps
# ---------------------------------------------------------------------------


def field_to_json(field: ValuedField) -> dict:
    if isinstance(field, PAdicRationals):
        return {"padic": field.p}
    if isinstance(field, TrivialRationals):
        return {"trivial": "Q"}
    if isinstance(field, PrimeField):
        return {"trivial": f"F{field.p}"}
    raise InvariantViolation(f"unknown field {field!r}")


def parse_field(data: Any, path: str = "field") -> ValuedField:
    if not isinstance(data, dict) or len(data) != 1:
        raise ParseError(path, 'expected {"padic": p} or {"trivial": "F<p>"|"Q"}')
    if "padic" in data:
        p = data["padic"]
        if not isinstance(p, int):
            raise ParseError(f"{path}.padic", "prime must be an integer")
        try:
            return PAdicRationals(p)
        except ValueError as exc:
            raise ParseError(f"{path}.padic", str(exc)) from exc
    if "trivial" in data:
        tag = data["trivial"]
        if tag == "Q":
            return TrivialRationals()
        if isinstance(tag, str) and tag.startswith("F"):
            try:
                return PrimeField(int(tag[1:]))
            except ValueError as exc:
                raise ParseError(f"{path}.trivial", str(exc)) from exc
        raise ParseError(f"{path}.trivial", f"unknown trivially valued field {tag!r}")
    raise ParseError(path, "field must be 'padic' or 'trivial'")


def parse_magnitude_str(text: Any, path: str) -> Magnitude:
    if not isinstance(text, str):
        raise ParseError(path, "magnitude must be a string")
    try:
        return parse_magnitude(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, str(exc)) from exc


def space_to_json(space: WeightedSpace) -> dict:
    out = {
        "field": field_to_json(space.field),
        "weights": [format_magnitude(w) for w in space.weights],
    }
    if space.label:
        out["label"] = space.label
    return out


def parse_space(data: Any, path: str = "space") -> WeightedSpace:
    field = parse_field(_need(data, "field", path), f"{path}.field")
    weights_raw = _need(data, "weights", path)
    if not isinstance(weights_raw, list):
        raise ParseError(f"{path}.weights", "expected a list of magnitude strings")
    weights = tuple(
        parse_magnitude_str(w, f"{path}.weights[{i}]") for i, w in enumerate(weights_raw)
    )
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError(f"{path}.label", "label must be a string")
    return WeightedSpace(field, weights, label)


def parse_element(field: ValuedField, text: Any, path: str):
    if not isinstance(text, str):
        raise ParseError(path, "field element must be a string")
    try:
        return field.parse_element(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, str(exc)) from exc


def vector_to_json(v: Vector) -> list:
    F = v.space.field
    return [F.format_element(c) for c in v.coords]


def parse_vector(data: Any, space: WeightedSpace, path: str = "vector") -> Vector:
    if not isinstance(data, list):
        raise ParseError(path, "expected a list of field-element strings")
    if len(data) != space.dim:
        raise ParseError(path, f"expected {space.dim} coordinates, got {len(data)}")
    coords = tuple(
        parse_element(space.field, x, f"{path}[{i}]") for i, x in enumerate(data)
    )
    return Vector(space, coords)


def map_to_json(f: BoundedMap) -> dict:
    F = f.domain.field
    return {
        "domain": space_to_json(f.domain),
        "codomain": space_to_json(f.codomain),
        "matrix": [[F.format_element(x) for x in row] for row in f.matrix],
    }


def parse_map(data: Any, path: str = "map") -> BoundedMap:
    domain = parse_space(_need(data, "domain", path), f"{path}.domain")
    codomain = parse_space(_need(data, "codomain", path), f"{path}.codomain")
    rows_raw = _need(data, "matrix", path)
    if not isinstance(rows_raw, list):
        raise ParseError(f"{path}.matrix", "expected a list of rows")
    if len(rows_raw) != codomain.dim:
        raise ParseError(
            f"{path}.matrix", f"expected {codomain.dim} rows, got {len(rows_raw)}"
        )
    rows = []
    for i, row in enumerate(rows_raw):
        if not isinstance(row, list):
            raise ParseError(f"{path}.matrix[{i}]", "expected a list of entries")
        if len(row) != domain.dim:
            raise ParseError(
                f"{path}.matrix[{i}]",
                f"expected {domain.dim} entries, got {len(row)}",
            )
        rows.append(
            [
                parse_element(domain.field, x, f"{path}.matrix[{i}][{j}]")
                for j, x in enumerate(row)
            ]
        )
    return bounded_map(domain, codomain, rows)


# ---------------------------------------------------------------------------
# Derived values
# ---------------------------------------------------------------------------


def ortho_to_json(ob: OrthoBasis) -> dict:
    return {
        "ambient": space_to_json(ob.ambient),
        "vectors": [vector_to_json(v) for v in ob.vectors],
        "pivots": list(ob.pivots),
        "norms": [format_magnitude(norm(v)) for v in ob.vectors],
        "null_vectors": [vector_to_json(v) for v in ob.null_vectors],
        "null_pivots": list(ob.null_pivots),
    }


# ---------------------------------------------------------------------------
# Category instances
# ---------------------------------------------------------------------------


def parse_instance(data: Any, path: str = "instance") -> CategoryInstance:
    kind = _need(data, "kind", path)
    if kind == "finvec":
        p = _need(data, "p", path)
        if not isinstance(p, int):
            raise ParseError(f"{path}.p", "prime must be an integer")
        try:
            field = PrimeField(p)
        except ValueError as exc:
            raise ParseError(f"{path}.p", str(exc)) from exc
        weights_raw = _need(data, "weights", path)
        if not isinstance(weights_raw, list) or not weights_raw:
            raise ParseError(f"{path}.weights", "expected a non-empty list")
        weights = tuple(
            parse_magnitude_str(w, f"{path}.weights[{i}]")
            for i, w in enumerate(weights_raw)
        )
        return FinWeightedVec(field, weights, _count(data.get("max_dim", 2), f"{path}.max_dim"))
    if kind == "pointed":
        return FinPointedSet(_count(data.get("max_size", 4), f"{path}.max_size"))
    if kind == "weighted":
        return WeightedModuleCategory(parse_field(_need(data, "field", path), f"{path}.field"))
    raise ParseError(f"{path}.kind", f"unknown instance kind {kind!r}")


def morphism_to_json(C: CategoryInstance, f: Any) -> Any:
    # a bounded map is written self-contained, with its field and labels
    return map_to_json(f) if isinstance(f, BoundedMap) else C.describe_morphism(f)


def parse_morphism(C: CategoryInstance, data: Any, path: str = "morphism") -> Any:
    if isinstance(C, WeightedModuleCategory):
        return parse_map(data, path)
    if isinstance(C, FinPointedSet):
        dom = _count(_need(data, "dom", path), f"{path}.dom")
        cod = _count(_need(data, "cod", path), f"{path}.cod")
        images = _need(data, "images", path)
        if not isinstance(images, list):
            raise ParseError(f"{path}.images", "expected a list of integers")
        images = tuple(_count(y, f"{path}.images[{i}]") for i, y in enumerate(images))
        try:
            return PointedMap(PointedSet(dom), PointedSet(cod), images)
        except InvariantViolation as exc:
            raise ParseError(path, str(exc)) from exc
    raise ParseError(path, f"cannot parse a morphism for instance {C.name}")


def object_to_json(C: CategoryInstance, X: Any) -> Any:
    return space_to_json(X) if isinstance(X, WeightedSpace) else C.describe_object(X)


def parse_object(C: CategoryInstance, data: Any, path: str = "object") -> Any:
    """An object of C; for the finite instances it must lie inside the bounds."""
    if isinstance(C, WeightedModuleCategory):
        space = parse_space(data, path)
        if space.field != C.field:
            raise ParseError(f"{path}.field", "field differs from the instance field")
        if isinstance(C, FinWeightedVec) and space.dim > C.max_dim:
            raise ParseError(f"{path}.weights", f"dimension exceeds max_dim {C.max_dim}")
        if isinstance(C, FinWeightedVec) and not set(space.weights) <= set(C.weights):
            raise ParseError(f"{path}.weights", "weight outside the instance weight set")
        return space
    if isinstance(C, FinPointedSet):
        size = _count(_need(data, "size", path), f"{path}.size")
        if size > C.max_size:
            raise ParseError(f"{path}.size", f"size {size} exceeds max_size {C.max_size}")
        return PointedSet(size)
    raise ParseError(path, f"cannot parse an object for instance {C.name}")


# ---------------------------------------------------------------------------
# Factorization certificates
# ---------------------------------------------------------------------------


def certificate_to_json(C: CategoryInstance, cert: FactorizationCertificate) -> dict:
    return {
        "factored": morphism_to_json(C, cert.factored),
        "left": morphism_to_json(C, cert.left),
        "right": morphism_to_json(C, cert.right),
        "rlp_verified": cert.rlp_verified,
        "problems_checked": cert.problems_checked,
        "steps": [
            {
                "generator_index": s.generator_index,
                "attach": morphism_to_json(C, s.attach),
                "cell": morphism_to_json(C, s.cell),
                "step_mono": morphism_to_json(C, s.step_mono),
                "pushout_object": object_to_json(C, C.cod(s.step_mono)),
            }
            for s in cert.steps
        ],
    }


def parse_certificate(
    C: CategoryInstance,
    data: Any,
    generator_count: int,
    path: str = "certificate",
) -> FactorizationCertificate:
    """Certificate from JSON; each step's index must name one of the generators."""
    steps_raw = _need(data, "steps", path)
    if not isinstance(steps_raw, list):
        raise ParseError(f"{path}.steps", "expected a list of steps")
    steps = []
    for i, s in enumerate(steps_raw):
        at = f"{path}.steps[{i}]"
        idx = _count(_need(s, "generator_index", at), f"{at}.generator_index")
        if idx >= generator_count:
            raise ParseError(
                f"{at}.generator_index",
                f"index {idx} out of range for {generator_count} generators",
            )
        legs = [
            parse_morphism(C, _need(s, k, at), f"{at}.{k}") for k in ("attach", "cell", "step_mono")
        ]
        steps.append(FactorizationStep(idx, *legs))
    rlp = data.get("rlp_verified", False)
    if not isinstance(rlp, bool):
        raise ParseError(f"{path}.rlp_verified", "expected true or false")
    problems = _count(data.get("problems_checked", 0), f"{path}.problems_checked")
    return FactorizationCertificate(
        parse_morphism(C, _need(data, "factored", path), f"{path}.factored"),
        parse_morphism(C, _need(data, "left", path), f"{path}.left"),
        parse_morphism(C, _need(data, "right", path), f"{path}.right"),
        tuple(steps),
        rlp,
        problems,
    )


def _count(value: Any, path: str) -> int:
    """A non-negative integer field; booleans, floats and strings are refused."""
    if type(value) is not int or value < 0:
        raise ParseError(path, "expected a non-negative integer")
    return value


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def make_report(command: str, options: dict, result: Any) -> dict:
    return {
        "tool": "protex",
        "version": __version__,
        "command": command,
        "options": options,
        "result": result,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ParseError(path, "file not found") from exc
    except OSError as exc:
        raise ParseError(path, f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise ParseError(path, "number too long to read") from exc
