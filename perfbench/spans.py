"""Spans around the program's public functions, for the traced pass only.

``install`` replaces every public module-level function and every public
method of the layer modules with a timing wrapper, at each module attribute
where a caller looks the name up.  Models returned by ``get_model`` are
rebuilt with ``dataclasses.replace`` so their preparations, samplers,
densities and responses are spans too.  Spans stay in memory until the
run ends; ``layer_metrics`` turns them into per-layer counts and times.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "reports", "framework", "engines", "zoo", "hilbert",
          "ksval", "epibound", "simplex")


def _rows(batch):
    return (batch[0] if isinstance(batch, tuple) else batch).shape[0]


def _stats(stats):
    return {"decisions": stats.decisions, "conflicts": stats.conflicts,
            "solutions": stats.solutions}


def _lp(args, kwargs, result):
    lp = args[0]
    rows = [r for r, _ in lp.eq_rows] + [r for r, _ in lp.ub_rows]
    return {"exact": bool(kwargs.get("exact", args[1] if len(args) > 1 else False)),
            "rows": len(rows), "cols": lp.n_vars,
            "nnz": sum(1 for r in rows for v in r if v)}


# span name -> (args, kwargs, result) -> counters recorded on the span
ATTRS = {
    "engines.MonteCarlo.mean": lambda a, k, r: {"samples": a[0].n_samples},
    "engines.SphereQuadrature.nodes": lambda a, k, r: {"points": len(r[1])},
    "reports.canonical_json": lambda a, k, r: {"bytes": len(r)},
    "reports.csv_text": lambda a, k, r: {"bytes": len(r)},
    "ksval.graph_from_edges": lambda a, k, r: {"edges": len(r.edges)},
    "ksval.find_valuation": lambda a, k, r: _stats(r.stats),
    "ksval.enumerate_valuations": lambda a, k, r: _stats(r[1]),
    "epibound.enumerate_atoms": lambda a, k, r: {"atoms": len(r)},
    "simplex.simplex_solve": _lp,
    "zoo.sample": lambda a, k, r: {"rows": a[1]},
    "zoo.eval": lambda a, k, r: {"rows": _rows(a[1])},
    "zoo.density": lambda a, k, r: {"rows": len(a[0])},
}


class Tracer:
    """Records spans as [name, start, end, parent index, op id, counters]."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = []

    def wrap(self, name, fn, post=None):
        spans, open_, attrs = self.spans, self._open, ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result if post is None else post(result)

        return traced

    def wrap_model(self, model):
        """The model with its callables wrapped as ``zoo.*`` spans."""
        if not model.implemented:
            return model
        w, replace = self.wrap, dataclasses.replace
        inner = model.prepare_pure

        def prepare_pure(psi):
            mu = inner(psi)
            return replace(
                mu,
                sampler=mu.sampler and w("zoo.sample", mu.sampler),
                density=mu.density and w("zoo.density", mu.density),
            )

        space = model.ontic_space
        respond = model.respond
        return replace(
            model,
            ontic_space=replace(
                space, reference_sampler=w("zoo.sample", space.reference_sampler)),
            prepare_pure=w("zoo.prepare", prepare_pure),
            respond=replace(
                respond,
                evaluate=w("zoo.eval", respond.evaluate),
                core=w("zoo.eval", respond.core),
                support=w("zoo.eval", respond.support),
            ),
        )

    def install(self):
        """Wrap the layers' public functions and methods in place."""
        package = [m for n, m in sys.modules.items()
                   if n == "ontomodels" or n.startswith("ontomodels.")]
        for layer in LAYERS:
            mod = sys.modules[f"ontomodels.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    post = self.wrap_model if name == "get_model" else None
                    wrapped = self.wrap(f"{layer}.{name}", obj, post)
                    for m in package:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                setattr(m, attr, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{name}.{meth}", fn))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


class _Index:
    """Span durations, self times and outermost-in-group inclusive times."""

    def __init__(self, spans):
        self.spans = spans
        self.parent = [s[3] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.self_ = list(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.self_[p] -= self.dur[i]
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def pick(self, match):
        names = {n for n in self.by_name if match(n)}
        return names, [i for n in names for i in self.by_name[n]]

    def count(self, match):
        return len(self.pick(match)[1])

    def self_s(self, match):
        return sum(self.self_[i] for i in self.pick(match)[1])

    def incl_s(self, match, keep=None):
        """Inclusive time, not counting a span nested in another of the group."""
        names, idx = self.pick(match)
        total = 0.0
        for i in idx:
            if keep is not None and not keep(self.spans[i]):
                continue
            p = self.parent[i]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.parent[p]
            if p < 0:
                total += self.dur[i]
        return total

    def attr(self, match, key):
        # Spans whose call raised carry no counters.
        return sum(self.spans[i][5][key] for i in self.pick(match)[1] if self.spans[i][5])


def _is(*names):
    return lambda n: n in names


def _under(prefix):
    return lambda n: n.startswith(prefix)


def layer_metrics(spans, verify_fail: int) -> dict:
    """Every per-layer metric, 0 where the workload bypasses the layer."""
    ix = _Index(spans)
    mc = _is("engines.MonteCarlo.mean")
    search = _is("ksval.find_valuation", "ksval.enumerate_valuations")
    solve = _is("simplex.simplex_solve")
    mc_s = ix.incl_s(mc)
    decisions = ix.attr(search, "decisions")
    conflicts = ix.attr(search, "conflicts")
    return {
        "cli.self_s": ix.self_s(_under("cli.")),
        "reports.render_s": ix.incl_s(_under("reports.")),
        "reports.bytes": ix.attr(_is("reports.canonical_json", "reports.csv_text"), "bytes"),
        "framework.predict_calls": ix.count(_is("framework.predict_probability")),
        "framework.predict_self_s": ix.self_s(_is("framework.predict_probability")),
        "framework.suite_self_s": ix.self_s(
            _is("framework.born_suite_pairs", "framework.random_born_suite")),
        "framework.classify_self_s": ix.self_s(
            _is("framework.classify", "framework.functional_dependence_test")),
        "framework.prepctx_self_s": ix.self_s(_is("framework.prep_context_distance")),
        "framework.verify_fail": verify_fail,
        "engines.mc_calls": ix.count(mc),
        "engines.mc_samples": ix.attr(mc, "samples"),
        "engines.mc_self_s": ix.self_s(_under("engines.MonteCarlo.")),
        "engines.mc_samples_per_s": ix.attr(mc, "samples") / mc_s if mc_s else 0.0,
        "engines.quad_nodes_calls": ix.count(_is("engines.SphereQuadrature.nodes")),
        "engines.quad_points": ix.attr(_is("engines.SphereQuadrature.nodes"), "points"),
        "engines.quad_nodes_s": ix.incl_s(_is("engines.SphereQuadrature.nodes")),
        "engines.quad_integrate_self_s": ix.self_s(
            _is("engines.SphereQuadrature.integrate", "engines.SphereQuadrature.estimate")),
        "zoo.prepare_calls": ix.count(_is("zoo.prepare")),
        "zoo.prepare_s": ix.incl_s(_is("zoo.prepare")),
        "zoo.sample_rows": ix.attr(_is("zoo.sample"), "rows"),
        "zoo.sample_s": ix.incl_s(_is("zoo.sample")),
        "zoo.eval_rows": ix.attr(_is("zoo.eval"), "rows"),
        "zoo.eval_s": ix.incl_s(_is("zoo.eval")),
        "zoo.density_s": ix.incl_s(_is("zoo.density")),
        "hilbert.calls": ix.count(_under("hilbert.")),
        "hilbert.s": ix.incl_s(_under("hilbert.")),
        "ksval.load_s": ix.incl_s(_is("ksval.load_vector_set")),
        "ksval.graph_s": ix.incl_s(_is("ksval.build_graph")),
        "ksval.edges": ix.attr(_is("ksval.graph_from_edges"), "edges"),
        "ksval.search_s": ix.incl_s(search),
        "ksval.decisions": decisions,
        "ksval.conflicts": conflicts,
        "ksval.solutions": ix.attr(search, "solutions"),
        "ksval.conflict_ratio": conflicts / decisions if decisions else 0.0,
        "epibound.parse_s": ix.incl_s(_is("epibound.load_fragment", "epibound.parse_fragment")),
        "epibound.rays_s": ix.incl_s(_is("epibound.fragment_rays")),
        "epibound.atoms": ix.attr(_is("epibound.enumerate_atoms"), "atoms"),
        "epibound.atoms_self_s": ix.self_s(_is("epibound.enumerate_atoms")),
        "epibound.lp_build_s": ix.self_s(
            _is("epibound.feasibility_max_epistemic", "epibound.max_overlap_fraction")),
        "epibound.lp_rows": ix.attr(solve, "rows"),
        "epibound.lp_cols": ix.attr(solve, "cols"),
        "simplex.calls": ix.count(solve),
        "simplex.float_s": ix.incl_s(solve, keep=lambda s: s[5] and not s[5]["exact"]),
        "simplex.exact_s": ix.incl_s(solve, keep=lambda s: s[5] and s[5]["exact"]),
        "simplex.farkas_s": ix.incl_s(_is("simplex.verify_farkas")),
        "simplex.nnz": ix.attr(solve, "nnz"),
    }


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"
