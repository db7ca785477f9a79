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
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    ValuedField,
    format_magnitude,
    parse_magnitude,
)
from .spaces import BoundedMap, Vector, WeightedSpace, bounded_map, norm


def _read(path: str, read, value):
    """``read(value)``, with a ValueError or ZeroDivisionError of the reader as a ParseError."""
    try:
        return read(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, str(exc)) from exc


def _read_list(path: str, read, texts: list, what: str) -> list:
    """``read`` of each text in ``texts``, each a ``what`` string.

    The path ``path[k]`` of an entry is formatted only for the first entry
    that is not a string or that ``read`` refuses.
    """
    values = []
    for text in texts:
        if not isinstance(text, str):
            raise ParseError(f"{path}[{len(values)}]", f"{what} must be a string")
        try:
            values.append(read(text))
        except (ValueError, ZeroDivisionError):
            # the reader refuses the same text again, now as a ParseError at its path
            _read(f"{path}[{len(values)}]", read, text)
            raise
    return values


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
        return _read(f"{path}.padic", PAdicRationals, p)
    if "trivial" in data:
        tag = data["trivial"]
        if tag == "Q":
            return TrivialRationals()
        if isinstance(tag, str) and tag.startswith("F"):
            try:
                p = int(tag[1:])
            except ValueError:  # no number after the F: an unknown tag
                pass
            else:
                return _read(f"{path}.trivial", PrimeField, p)
        raise ParseError(f"{path}.trivial", f"unknown trivially valued field {tag!r}")
    raise ParseError(path, "field must be 'padic' or 'trivial'")


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
    weights = tuple(_read_list(f"{path}.weights", parse_magnitude, weights_raw, "magnitude"))
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError(f"{path}.label", "label must be a string")
    return WeightedSpace(field, weights, label)


def vector_to_json(v: Vector) -> list:
    F = v.space.field
    return [F.format_element(c) for c in v.coords]


def parse_vector(data: Any, space: WeightedSpace, path: str = "vector") -> Vector:
    if not isinstance(data, list):
        raise ParseError(path, "expected a list of field-element strings")
    if len(data) != space.dim:
        raise ParseError(path, f"expected {space.dim} coordinates, got {len(data)}")
    coords = tuple(_read_list(path, space.field.parse_element, data, "field element"))
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
    read = domain.field.parse_element
    rows = []
    for i, row in enumerate(rows_raw):
        if not isinstance(row, list):
            raise ParseError(f"{path}.matrix[{i}]", "expected a list of entries")
        if len(row) != domain.dim:
            raise ParseError(
                f"{path}.matrix[{i}]",
                f"expected {domain.dim} entries, got {len(row)}",
            )
        rows.append(_read_list(f"{path}.matrix[{i}]", read, row, "field element"))
    return bounded_map(domain, codomain, rows)


# ---------------------------------------------------------------------------
# Derived values
# ---------------------------------------------------------------------------


def ortho_to_json(ob: OrthoBasis) -> dict:
    r = ob.rank
    return {
        "ambient": space_to_json(ob.ambient),
        "vectors": [vector_to_json(v) for v in ob.vectors[:r]],
        "pivots": list(ob.pivots[:r]),
        "norms": [format_magnitude(norm(v)) for v in ob.vectors[:r]],
        "null_vectors": [vector_to_json(v) for v in ob.vectors[r:]],
        "null_pivots": list(ob.pivots[r:]),
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
        field = _read(f"{path}.p", PrimeField, p)
        weights_raw = _need(data, "weights", path)
        if not isinstance(weights_raw, list) or not weights_raw:
            raise ParseError(f"{path}.weights", "expected a non-empty list")
        weights = tuple(_read_list(f"{path}.weights", parse_magnitude, weights_raw, "magnitude"))
        return FinWeightedVec(field, weights, _count(data.get("max_dim", 2), f"{path}.max_dim"))
    if kind == "pointed":
        return FinPointedSet(_count(data.get("max_size", 4), f"{path}.max_size"))
    if kind == "weighted":
        return WeightedModuleCategory(parse_field(_need(data, "field", path), f"{path}.field"))
    raise ParseError(f"{path}.kind", f"unknown instance kind {kind!r}")


def morphism_to_json(C: CategoryInstance, f: Any) -> Any:
    # a bounded map is written self-contained, with its field and labels
    return map_to_json(f) if isinstance(f, BoundedMap) else C.describe_morphism(f)


def parse_morphism(C: CategoryInstance, data: Any, path: str = "morphism", steps: int = 0) -> Any:
    """A morphism of C whose objects fit the instance: a pointed map's sets
    have at most ``(1 + steps) * max_size`` points besides the base point, a
    finvec map's spaces at most ``(1 + steps) * max_dim`` weights."""
    if isinstance(C, WeightedModuleCategory):
        f = parse_map(data, path)
        _check_space(C, f.domain, f"{path}.domain", steps)
        _check_space(C, f.codomain, f"{path}.codomain", steps)
        return f
    if isinstance(C, FinPointedSet):
        most = (1 + steps) * C.max_size
        dom = _count(_need(data, "dom", path), f"{path}.dom", most)
        cod = _count(_need(data, "cod", path), f"{path}.cod", most)
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
        return _check_space(C, parse_space(data, path), path)
    if isinstance(C, FinPointedSet):
        size = _count(_need(data, "size", path), f"{path}.size")
        if size > C.max_size:
            raise ParseError(f"{path}.size", f"size {size} exceeds max_size {C.max_size}")
        return PointedSet(size)
    raise ParseError(path, f"cannot parse an object for instance {C.name}")


def _check_space(C: WeightedModuleCategory, space: WeightedSpace, path: str, steps: int = 0):
    """``space`` if it is over the field of C and, for finvec, has at most
    ``(1 + steps) * max_dim`` weights, each an instance weight."""
    if space.field != C.field:
        raise ParseError(f"{path}.field", "field differs from the instance field")
    if isinstance(C, FinWeightedVec):
        most = (1 + steps) * C.max_dim
        if space.dim > most:
            message = f"dimension {space.dim} exceeds max_dim {C.max_dim} (bound {most})"
            raise ParseError(f"{path}.weights", message)
        if not set(space.weights) <= set(C.weights):
            raise ParseError(f"{path}.weights", "weight outside the instance weight set")
    return space


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
    """Certificate from JSON; each step's index must name one of the generators.

    A step attaches one generator codomain, so a pointed leg has at most
    ``(1 + len(steps)) * max_size`` points and a finvec leg at most
    ``(1 + len(steps)) * max_dim`` weights; larger ones are refused here,
    before replay builds any pushout or hom-set.
    """
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
            parse_morphism(C, _need(s, k, at), f"{at}.{k}", len(steps_raw))
            for k in ("attach", "cell", "step_mono")
        ]
        steps.append(FactorizationStep(idx, *legs))
    rlp = data.get("rlp_verified", False)
    if not isinstance(rlp, bool):
        raise ParseError(f"{path}.rlp_verified", "expected true or false")
    problems = _count(data.get("problems_checked", 0), f"{path}.problems_checked")
    return FactorizationCertificate(
        parse_morphism(C, _need(data, "factored", path), f"{path}.factored"),
        parse_morphism(C, _need(data, "left", path), f"{path}.left", len(steps_raw)),
        parse_morphism(C, _need(data, "right", path), f"{path}.right", len(steps_raw)),
        tuple(steps),
        rlp,
        problems,
    )


def _count(value: Any, path: str, most=None) -> int:
    """A non-negative integer field, at most ``most``; no booleans, floats or strings."""
    if type(value) is not int or value < 0:
        raise ParseError(path, "expected a non-negative integer")
    if most is not None and value > most:
        raise ParseError(path, f"{value} exceeds the bound {most}")
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
