"""Per-layer spans and counters, installed from outside the package.

``install()`` replaces every binding of each layer's public functions across
the loaded ``boreltype.*`` modules with a wrapper that records a span (name,
start, end, parent span, module index), and wraps a few kernel methods on
their classes with call counters.  Spans stay in memory until ``write()``.
Nothing in the package is edited; a later change that moves a function keeps
it traced as long as the name in ``LAYERS`` still resolves.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# Per-layer metric -> (submodule, function) pairs whose spans it sums.  The
# metric value is the self time of those spans: each span's duration minus
# the time covered by its child spans.
LAYERS = {
    "borel.verdict_s": (("borel", "borel_verdict"), ("borel", "ideal_is_borel_type")),
    "borel.stability_s": (
        ("borel", "is_strongly_stable_ideal"),
        ("borel", "is_strongly_stable_module"),
    ),
    "borel.truncation_s": (("borel", "truncation_stability_degree"),),
    "borel.torsion_identities_s": (("borel", "torsion_identity_report"),),
    "chain.time_s": (
        ("chain", "build_chain"),
        ("chain", "sequential_cm_report"),
        ("chain", "torsion_ladder_matches_chain"),
        ("chain", "iterated_saturation_chain"),
        ("chain", "dimension_filtration_report"),
    ),
    "regularity.time_s": (("regularity", "regularity"),),
    "betti.time_s": (("betti", "betti_table"),),
    "decomposition.time_s": (
        ("decomposition", "associated_primes"),
        ("decomposition", "irreducible_decomposition"),
        ("decomposition", "primary_components"),
        ("decomposition", "krull_dim"),
    ),
    "filtration.build_s": (("filtration", "pretty_clean_filtration"),),
    "filtration.verify_s": (("filtration", "verify_filtration"),),
    "filtration.length_report_s": (("filtration", "filtration_length_report"),),
    "modfile.time_s": (("modfile", "parse_module_file"), ("modfile", "serialize_module")),
    "checks.self_s": (("checks", "run_check"),),
}

# Per-layer counter -> (submodule, class, method) whose calls it counts.
COUNTED = {
    "subquotient.truncate_calls": ("subquotient", "Subquotient", "truncate"),
    "monomial.ideal_builds": ("monomial", "MonomialIdeal", "__post_init__"),
    "monomial.divides_calls": ("monomial", "Monomial", "divides"),
    "monomial.saturate_calls": ("monomial", "MonomialIdeal", "saturate"),
    "monomial.colon_calls": ("monomial", "MonomialIdeal", "colon_monomial"),
    "monomial.intersect_calls": ("monomial", "MonomialIdeal", "intersect"),
}

# Counters filled by span hooks, plus the package's lru_cache totals.
DERIVED = ("betti.multidegrees", "filtration.witnesses", "cache.hits", "cache.misses")


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "boreltype" or name.startswith("boreltype.")
    ]


def _rebind(original, replacement) -> int:
    """Point every name bound to ``original`` in a boreltype module at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed += 1
    return changed


class Tracer:
    def __init__(self):
        # spans[i] = [name, layer, start_ns, end_ns, parent index, module index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.module_index = -1
        self.counts = {name: 0 for name in (*COUNTED, *DERIVED)}
        self.caches = []

    def install(self) -> None:
        """Wrap every layer function and counted method of the loaded package."""
        caches = {
            id(value): value
            for mod in _package_modules()
            for value in vars(mod).values()
            if hasattr(value, "cache_info")
        }
        self.caches = list(caches.values())
        counted_results = {
            "betti_table": self._count_box,
            "pretty_clean_filtration": self._count_witnesses,
        }
        for layer, targets in LAYERS.items():
            for modname, fname in targets:
                original = getattr(sys.modules[f"boreltype.{modname}"], fname)
                inner = counted_results.get(fname, lambda fn: fn)(original)
                if not _rebind(original, self._span_wrapper(inner, fname, layer)):
                    raise RuntimeError(f"boreltype.{modname}.{fname} is bound nowhere")
        for counter, (modname, cls_name, method) in COUNTED.items():
            cls = getattr(sys.modules[f"boreltype.{modname}"], cls_name)
            setattr(cls, method, self._counting_wrapper(cls.__dict__[method], counter))

    def _span_wrapper(self, fn, name, layer):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0, 0, stack[-1] if stack else -1, self.module_index]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()

        return traced

    def _counting_wrapper(self, fn, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_box(self, betti_table):
        """Add the lcm-box size of every ideal the oracle computes afresh."""

        def counted(ideal, *args, **kwargs):
            misses = betti_table.cache_info().misses
            result = betti_table(ideal, *args, **kwargs)
            if betti_table.cache_info().misses > misses:
                size = 1
                for b in ideal.max_exponents():
                    size *= b + 1
                self.counts["betti.multidegrees"] += size
            return result

        return counted

    def _count_witnesses(self, pretty_clean_filtration):
        def counted(*args, **kwargs):
            result = pretty_clean_filtration(*args, **kwargs)
            self.counts["filtration.witnesses"] += len(result.steps)
            return result

        return counted

    def summary(self) -> dict:
        """Per-layer self seconds plus every counter, for this process."""
        covered = [0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {layer: 0 for layer in LAYERS}
        for (name, layer, start, end, _, _), child in zip(self.spans, covered):
            totals[layer] += end - start - child
        out = {layer: ns / 1e9 for layer, ns in totals.items()}
        counts = dict(self.counts)
        counts["cache.hits"] = sum(c.cache_info().hits for c in self.caches)
        counts["cache.misses"] = sum(c.cache_info().misses for c in self.caches)
        out.update(counts)
        return out

    def write(self, path: str, round_index: int) -> None:
        """Append this process's spans to a JSON-lines trace file."""
        with open(path, "a", encoding="utf-8") as handle:
            for i, (name, layer, start, end, parent, module) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "round": round_index,
                            "span": i,
                            "name": name,
                            "layer": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "module": module,
                        }
                    )
                    + "\n"
                )
