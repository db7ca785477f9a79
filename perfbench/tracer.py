"""Per-module tracing from outside the program.

``Tracer.install`` replaces every binding of each public function and
public method of the traced protex modules with a wrapper.  A function
imported by name into another module (``from .spaces import compose``)
is a second binding of the same object, so every module namespace and
class dictionary of the package is scanned, not only the defining one.

Each wrapper counts its calls and records a span -- name, start, end and
parent span -- in memory.  A span's self time is its duration minus the
time its child spans cover, so the time of private helpers lands in the
public function that called them.  Scalar functions are counted only:
wrapping sub-microsecond calls with timers would distort them, so scalar
time lands in the self time of the calling function.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

TRACED_MODULES = (
    "linalg",
    "ortho",
    "constructions",
    "category",
    "spaces",
    "finvec",
    "pointed_sets",
    "factorization",
    "serialize",
    "cli",
)

# scalars: counted, never timed; metric name -> (class or module attribute, methods)
SCALAR_COUNTS = {
    "mag_mul": [("Magnitude", ("__mul__",))],
    "mag_cmp": [("Magnitude", ("__lt__", "__le__", "__gt__", "__ge__")), (None, ("mag_compare",))],
    "padic_abs": [("PAdicRationals", ("abs_value",))],
    "field_ops": [
        (cls, ("add", "sub", "mul", "div", "neg", "is_zero", "eq"))
        for cls in ("PAdicRationals", "TrivialRationals", "PrimeField")
    ],
}


def _package_namespaces():
    """Every module dict and class dict of the loaded protex package."""
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "protex" or name.startswith("protex.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if inspect.isclass(value) and value.__module__ == name:
                yield value


def _public_functions(mod):
    """(qualified name, function) for each public function and method of ``mod``."""
    short = mod.__name__.split(".")[-1]
    for name, value in sorted(vars(mod).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == mod.__name__:
            yield f"{short}.{name}", value
        elif inspect.isclass(value) and value.__module__ == mod.__name__:
            for attr, member in sorted(vars(value).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, staticmethod):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", member


class Tracer:
    """Call counts and spans for every traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.originals: list[list] = []  # per name, the functions it wraps
        self.counts: list[int] = []
        # what the observers below gather from arguments and results
        self.extra: dict = {
            "strictness_args": set(),
            "hom_pairs": set(),
            "maps_returned": 0,
            "steps": 0,
            "problems_checked": 0,
            "report_bytes": 0,
            "image_in_classify": 0,
        }
        # span table: name id, parent span index (-1 for none), start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.cur = -1
        self._restore: list = []
        self._classify_depth = 0
        self._observe = self._observers()

    # -- installation --------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.originals.append([])
        self.counts.append(0)
        return len(self.names) - 1

    def _rebind(self, orig, wrapper):
        """Point every binding of ``orig`` in the package at ``wrapper``."""
        for ns in _package_namespaces():
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    repl = wrapper
                elif isinstance(value, staticmethod) and value.__func__ is orig:
                    repl = staticmethod(wrapper)
                else:
                    continue
                self._restore.append((ns, attr, value))
                setattr(ns, attr, repl)

    def install(self) -> None:
        import protex.cli  # noqa: F401  (loads every traced module)

        wrapped = set()
        for short in TRACED_MODULES:
            mod = sys.modules[f"protex.{short}"]
            for name, func in _public_functions(mod):
                if func in wrapped:
                    continue
                wrapped.add(func)
                self._rebind(func, self._timed(name, func))
        scalars = sys.modules["protex.scalars"]
        targets = []  # resolved before any rebinding, so no wrapper is wrapped
        for metric, owners in SCALAR_COUNTS.items():
            idx = self._register(f"scalars.{metric}")
            for owner_name, attrs in owners:
                owner = scalars if owner_name is None else getattr(scalars, owner_name)
                for attr in attrs:
                    func = self._defining(owner, attr)
                    if func not in wrapped:
                        wrapped.add(func)
                        targets.append((idx, func))
        for idx, func in targets:
            self._rebind(func, self._counted(idx, func))

    @staticmethod
    def _defining(owner, attr):
        if inspect.ismodule(owner):
            return getattr(owner, attr)
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        raise AttributeError(f"{owner.__name__}.{attr}")

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    # -- wrappers ------------------------------------------------------------

    def _counted(self, idx: int, func):
        counts = self.counts
        self.originals[idx].append(func)

        def counted(*args, **kwargs):
            counts[idx] += 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    def _timed(self, name: str, func):
        idx = self._register(name)
        self.originals[idx].append(func)
        counts = self.counts
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        observe = self._observe.get(name)
        tracer = self

        def timed(*args, **kwargs):
            counts[idx] += 1
            span = len(starts)
            parent = tracer.cur
            names.append(idx)
            parents.append(parent)
            ends.append(0.0)
            tracer.cur = span
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[span] = clock()
                tracer.cur = parent
            if observe is not None:
                observe(args, result)
            return result

        if name == "constructions.classify_morphism":
            inner = timed

            def timed(*args, **kwargs):  # noqa: F811  (marks image calls below it)
                tracer._classify_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer._classify_depth -= 1

        timed.__wrapped__ = func
        return timed

    def _observers(self) -> dict:
        """Name -> hook called with (args, result) after each traced call."""
        extra = self.extra

        def strictness(args, result):
            extra["strictness_args"].add(args[1])

        def morphisms(args, result):
            extra["hom_pairs"].add((args[1], args[2]))
            extra["maps_returned"] += len(result)

        def factor_map(args, result):
            extra["steps"] += len(result.steps)
            extra["problems_checked"] += result.problems_checked

        def dump_report(args, result):
            extra["report_bytes"] += len(result.encode())

        def image(args, result):
            if self._classify_depth:
                extra["image_in_classify"] += 1

        return {
            "finvec.WeightedModuleCategory.strictness": strictness,
            "pointed_sets.FinPointedSet.strictness": strictness,
            "finvec.FinWeightedVec.morphisms": morphisms,
            "factorization.factor_map": factor_map,
            "serialize.dump_report": dump_report,
            "ortho.image": image,
        }

    # -- results -------------------------------------------------------------

    def _span_self(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [end - start for start, end in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
        return own

    def self_times(self) -> list[float]:
        """Self time per registered name, summed over its spans."""
        totals = [0.0] * len(self.names)
        for name, own in zip(self.span_name, self._span_self()):
            totals[name] += own
        return totals

    def call_tree(self) -> list[dict]:
        """Spans aggregated by call path: calls, total and self seconds."""
        path_ids: dict = {}  # (parent path id, name id) -> path id
        rows: list = []  # per path id: [parent path id, name id, calls, total, self]
        span_path = array("i")
        parents = self.span_parent
        for i, (name, own) in enumerate(zip(self.span_name, self._span_self())):
            parent_path = span_path[parents[i]] if parents[i] >= 0 else -1
            key = (parent_path, name)
            pid = path_ids.get(key)
            if pid is None:  # parents precede children in the table
                pid = path_ids[key] = len(rows)
                rows.append([parent_path, name, 0, 0.0, 0.0])
            span_path.append(pid)
            row = rows[pid]
            row[2] += 1
            row[3] += self.span_end[i] - self.span_start[i]
            row[4] += own

        def path(pid):
            out = []
            while pid >= 0:
                out.append(self.names[rows[pid][1]])
                pid = rows[pid][0]
            return out[::-1]

        return sorted(
            ({"path": path(pid), "calls": c, "total_s": t, "self_s": own}
             for pid, (_, _, c, t, own) in enumerate(rows)),
            key=lambda row: row["path"],
        )

    def counts_by_name(self) -> dict:
        return dict(zip(self.names, self.counts))

    def metrics(self) -> dict:
        """The per-module metrics, named ``<module>.<what>``."""
        selfs = dict(zip(self.names, self.self_times()))
        counts = self.counts_by_name()
        x = self.extra

        def module_self(module):
            return sum(s for n, s in selfs.items() if n.split(".")[0] == module)

        def ratio(a, b):
            return a / b if b else 0.0

        strict_calls = (counts["finvec.WeightedModuleCategory.strictness"]
                        + counts["pointed_sets.FinPointedSet.strictness"])
        strict_distinct = len(x["strictness_args"])
        hom_calls = counts["finvec.FinWeightedVec.morphisms"]
        classify = counts["constructions.classify_morphism"]
        return {
            "scalars.mag_mul.calls": counts["scalars.mag_mul"],
            "scalars.mag_cmp.calls": counts["scalars.mag_cmp"],
            "scalars.padic_abs.calls": counts["scalars.padic_abs"],
            "scalars.field_ops.calls": counts["scalars.field_ops"],
            "linalg.rref.calls": counts["linalg.rref"],
            "linalg.self_s": module_self("linalg"),
            "ortho.orthogonalize.calls": counts["ortho.orthogonalize"],
            "ortho.image.calls": counts["ortho.image"],
            "ortho.quotient_norm.calls": counts["ortho.quotient_norm"],
            "ortho.self_s": module_self("ortho"),
            "constructions.classify_morphism.calls": classify,
            "constructions.classify_morphism.self_s": selfs["constructions.classify_morphism"],
            "constructions.kernel.calls": counts["constructions.kernel"],
            "constructions.cokernel.calls": counts["constructions.cokernel"],
            "constructions.pullback.calls": counts["constructions.pullback"],
            "constructions.pushout.calls": counts["constructions.pushout"],
            "constructions.retraction.calls": counts["constructions.retraction"],
            "constructions.section.calls": counts["constructions.section"],
            "constructions.image_per_classify": ratio(x["image_in_classify"], classify),
            "category.strictness.calls": strict_calls,
            "category.strictness.distinct": strict_distinct,
            "category.strictness.useful_ratio": ratio(strict_distinct, strict_calls),
            "category.audit_axioms.self_s": selfs["category.audit_axioms"],
            "category.audit_obscure.self_s": selfs["category.audit_obscure"],
            "category.admissible_monos.self_s": selfs["category.admissible_monos"],
            "category.has_rlp.calls": counts["category.has_rlp"],
            "spaces.compose.calls": counts["spaces.compose"],
            "spaces.compose.self_s": selfs["spaces.compose"],
            "spaces.bounded_map.calls": counts["spaces.bounded_map"],
            "spaces.norm.calls": counts["spaces.norm"],
            "spaces.self_s": module_self("spaces"),
            "finvec.morphisms.calls": hom_calls,
            "finvec.morphisms.distinct": len(x["hom_pairs"]),
            "finvec.morphisms.maps_returned": x["maps_returned"],
            "finvec.morphisms.self_s": selfs["finvec.FinWeightedVec.morphisms"],
            "finvec.hom_reuse_ratio": ratio(hom_calls - len(x["hom_pairs"]), hom_calls),
            "pointed_sets.compose.calls": counts["pointed_sets.FinPointedSet.compose"],
            "pointed_sets.pullback.calls": counts["pointed_sets.FinPointedSet.pullback"],
            "pointed_sets.pushout.calls": counts["pointed_sets.FinPointedSet.pushout"],
            "pointed_sets.strictness.calls": counts["pointed_sets.FinPointedSet.strictness"],
            "pointed_sets.self_s": module_self("pointed_sets"),
            "factorization.steps": x["steps"],
            "factorization.problems_checked": x["problems_checked"],
            "factorization.factor_map.self_s": selfs["factorization.factor_map"],
            "factorization.replay.self_s": selfs["factorization.FactorizationCertificate.replay"],
            "factorization.precover.self_s": selfs["factorization.precover"],
            "serialize.parse.self_s": sum(
                s for n, s in selfs.items()
                if n.startswith("serialize.parse_") or n == "serialize.load_json_file"
            ),
            "serialize.dump_report.self_s": selfs["serialize.dump_report"],
            "serialize.report_bytes": x["report_bytes"],
            "cli.self_s": module_self("cli"),
        }
