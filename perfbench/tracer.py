"""Spans and counts around the program's public functions, for the traced run.

While a `Tracer` is entered, each target below is replaced by a wrapper in
every module of the program that holds it (methods on their class).  A span
target records calls, total time and self time (its time minus that of the
spans it called); a count target only counts calls, so that the functions
called millions of times stay cheap to watch.  A "timed count" target counts
only while `live` is set, which the harness does inside the timed sections
of a round: Fractions are also built by the benchmark's own set-up and
reference computations, and those are not the program's work.  Spans are
kept in memory, aggregated by name and by the span that called them, and
written at the end.
"""

import importlib
import sys
import time

# metric prefix, module, attribute (Class.method for methods), kind, fields
TARGETS = (
    ("matrices.hermite_padic", "cocenter.matrices", "hermite_padic", "span", ("calls", "self_s")),
    ("matrices.coset_canonical_rep", "cocenter.matrices", "coset_canonical_rep", "span",
     ("calls", "self_s")),
    ("measures.canonical_rep", "cocenter.measures", "canonical_rep", "span", ("calls", "self_s")),
    ("measures.ad_pullback", "cocenter.measures", "ad_pullback", "span", ("calls", "self_s")),
    ("measures.coset_meets_parabolic", "cocenter.measures", "coset_meets_parabolic", "span",
     ("calls", "hits", "self_s")),
    ("measures.res_normalized", "cocenter.measures", "res_normalized", "span",
     ("calls", "total_s")),
    ("measures.ad_symmetrized_basis", "cocenter.measures", "ad_symmetrized_basis", "span",
     ("total_s",)),
    ("measures.ParabolicTransversal", "cocenter.measures", "ParabolicTransversal.__init__",
     "span", ("total_s",)),
    ("matrices.enumerate_glnzm", "cocenter.matrices", "enumerate_glnzm", "span", ("total_s",)),
    ("characters.trace_induced", "cocenter.characters", "trace_induced", "span",
     ("calls", "total_s")),
    ("characters.locate_with_parabolic_part", "cocenter.characters",
     "InducedModel.locate_with_parabolic_part", "span", ("calls", "self_s")),
    ("characters.character_pairing", "cocenter.characters", "character_pairing", "span",
     ("calls", "self_s")),
    ("groups.iwasawa_decompose", "cocenter.groups", "iwasawa_decompose", "span",
     ("calls", "self_s")),
    ("orbital.orbital_integral", "cocenter.orbital", "orbital_integral", "span",
     ("calls", "self_s")),
    ("orbital.orbital_single_coset_gl2", "cocenter.orbital", "orbital_single_coset_gl2", "count",
     ("calls", "distinct_args")),
    ("orbital.descent_check", "cocenter.orbital", "descent_check", "count", ("calls",)),
    ("groups.discriminant_delta", "cocenter.groups", "discriminant_delta", "span",
     ("calls", "self_s")),
    ("groups.modulus_lambda", "cocenter.groups", "modulus_lambda", "span", ("calls", "self_s")),
    ("matrices.QMat.det", "cocenter.matrices", "QMat.det", "span", ("calls", "self_s")),
    ("matrices.QMat.inverse", "cocenter.matrices", "QMat.inverse", "span", ("calls", "self_s")),
    ("unipotent.induced_set", "cocenter.unipotent", "induced_set", "span", ("calls", "total_s")),
    ("unipotent.conjugation_closure", "cocenter.unipotent", "conjugation_closure", "span",
     ("calls", "elements", "self_s")),
    ("groups.jordan_type", "cocenter.groups", "jordan_type", "span", ("calls", "self_s")),
    ("matrices.FFMatrix.mul", "cocenter.matrices", "FFMatrix.__mul__", "count", ("calls",)),
    ("matrices.FFMatrix.inverse", "cocenter.matrices", "FFMatrix.inverse", "count", ("calls",)),
    ("matrices.FFMatrix.rank", "cocenter.matrices", "FFMatrix.rank", "span", ("calls", "self_s")),
    ("matrices.enumerate_gln_fq", "cocenter.matrices", "enumerate_gln_fq", "span", ("total_s",)),
    ("exactnum.padic_valuation", "cocenter.exactnum", "padic_valuation", "count", ("calls",)),
    # every Fraction built in the timed sections, whichever module builds it
    ("exactnum.fraction_new", "fractions", "Fraction.__new__", "timed count", ("calls",)),
)

OVERHEAD_METRIC = "trace.overhead_s"


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for prefix, _, _, _, fields in TARGETS:
        for field in fields:
            out.append((f"{prefix}.{field}", "s" if field.endswith("_s") else "count"))
    out.append((OVERHEAD_METRIC, "s"))
    return out


# extra tallies, by metric prefix: (field, (args, result) -> amount or key)
OBSERVERS = {
    "measures.coset_meets_parabolic": ("hits", lambda args, result: result is not None),
    "unipotent.conjugation_closure": ("elements", lambda args, result: len(result)),
    "orbital.orbital_single_coset_gl2": (
        "distinct_args", lambda args, result: (args[0].entries(), tuple(args[1]), args[2])),
}


class Tracer:
    def __init__(self):
        self.stats = {}  # prefix -> [calls, total_s, self_s]
        self.edges = {}  # (caller span, prefix) -> [calls, total_s]
        self.extra = {}  # prefix -> running sum, or set of distinct keys
        self.live = False
        self._stack = []
        self._saved = []

    def __enter__(self):
        for prefix, module_name, attr, kind, _ in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, self._wrap(prefix, kind, getattr(owner, name)))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(prefix, kind, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "cocenter" or mod_name.startswith("cocenter."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, value))
                            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def _wrap(self, prefix, kind, fn):
        stats = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        observer = OBSERVERS.get(prefix)
        observe = None
        if observer is not None:
            field, key = observer
            if field == "distinct_args":
                seen = self.extra.setdefault(prefix, set())

                def observe(args, result):
                    seen.add(key(args, result))
            else:
                self.extra.setdefault(prefix, 0)

                def observe(args, result):
                    self.extra[prefix] += key(args, result)

        if kind == "timed count":
            def counted_live(*args, **kwargs):
                if self.live:
                    stats[0] += 1
                return fn(*args, **kwargs)
            return counted_live

        if kind == "count":
            def counted(*args, **kwargs):
                stats[0] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            return counted

        stack, edges, clock = self._stack, self.edges, time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0, prefix]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                caller = stack[-1] if stack else None
                if caller is not None:
                    caller[0] += elapsed
                edge = edges.setdefault((caller[1] if caller else None, prefix), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return span

    def metrics(self):
        out = {}
        for prefix, _, _, _, fields in TARGETS:
            calls, total, own = self.stats.get(prefix, (0, 0.0, 0.0))
            values = {"calls": calls, "total_s": total, "self_s": own}
            extra = self.extra.get(prefix, 0)
            for field in fields:
                if field in values:
                    value = values[field]
                else:
                    value = len(extra) if isinstance(extra, set) else extra
                out[f"{prefix}.{field}"] = {
                    "value": value, "unit": "s" if field.endswith("_s") else "count"}
        return out

    def spans(self):
        """The aggregated spans: one record per (caller, callee) pair."""
        return [
            {"caller": caller, "name": name, "calls": calls, "total_s": total}
            for (caller, name), (calls, total) in sorted(
                self.edges.items(), key=lambda item: (str(item[0][0]), item[0][1]))
        ]
