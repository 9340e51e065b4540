"""Which program functions are traced, and the per-layer metrics made of them.

Every traced span feeds exactly one ``*_s`` self-time metric, so the self
times plus ``harness.self_s`` add up to the traced wall time.
"""
from __future__ import annotations

from tracer import Layer, SpanStats


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _dedupe(t, args, kwargs, result):
    racks = args[0] if args else kwargs.get("racks", ())
    t["census.raw_tables"] = t.get("census.raw_tables", 0) + _sized(racks)
    t["census.classes"] = t.get("census.classes", 0) + len(result)


def _iso(t, args, kwargs, result):
    t["racks.iso_hits"] = t.get("racks.iso_hits", 0) + (result is not None)


def _classify(t, args, kwargs, result):
    t["fourleg.pairs"] = (t.get("fourleg.pairs", 0)
                          + sum(c.orbit_size for c in result))
    t["fourleg.classes"] = t.get("fourleg.classes", 0) + len(result)


def _colorings(t, args, kwargs, result):
    t["coloring.colorings"] = t.get("coloring.colorings", 0) + result


LAYERS = (
    Layer("legrack.cli", "main", "cli"),
    Layer("legrack.census", "enumerate_racks", "census.search"),
    Layer("legrack.census", "dedupe_racks", "census.dedupe", _dedupe),
    Layer("legrack.census", "census_counts", "census.counts"),
    Layer("legrack.racks", "find_isomorphism", "racks.iso", _iso),
    Layer("legrack.racks", "automorphism_group", "racks.aut"),
    Layer("legrack.racks", "inner_group", "racks.inn"),
    Layer("legrack.racks", "validate_rack", "racks.validate"),
    Layer("legrack.racks", "rack_flags", "racks.flags"),
    Layer("legrack.fourleg", "classify_structures", "fourleg.classify",
          _classify),
    Layer("legrack.fourleg", "make_fourleg", "fourleg.make"),
    Layer("legrack.perms", "diagonal_pair_orbits", "perms.orbits"),
    Layer("legrack.perms", "centralizer", "perms.centralizer"),
    Layer("legrack.perms", "subgroup_closure", "perms.closure"),
    Layer("legrack.front", "fundamental_presentation", "front.presentation"),
    Layer("legrack.front", "classical_invariants", "front.invariants"),
    Layer("legrack.front", "validate_front", "front.validate"),
    Layer("legrack.coloring", "permutation_structures", "coloring.structgen"),
    Layer("legrack.coloring", "count_colorings", "coloring.generic",
          _colorings),
    Layer("legrack.coloring", "perm_fast_count", "coloring.fast"),
)

# Span name -> self-time metric name.
SELF_TIME = {layer.span: ("cli.self_s" if layer.span == "cli"
                          else layer.span + "_s")
             for layer in LAYERS}

# Span name -> call-count metric name, for the layers that report one.
CALLS = {
    "racks.iso": "racks.iso_calls",
    "racks.aut": "racks.aut_calls",
    "racks.validate": "racks.validate_calls",
    "fourleg.classify": "fourleg.classify_calls",
    "perms.centralizer": "perms.centralizer_calls",
    "coloring.generic": "coloring.generic_calls",
    "coloring.fast": "coloring.fast_calls",
}


def layer_metrics(stats: dict[str, SpanStats], tallies: dict,
                  traced_wall: float, root_time: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; absent layers read 0."""
    out: dict[str, float] = {}
    for span, metric in SELF_TIME.items():
        out[metric] = stats[span].self_s if span in stats else 0.0
    for span, metric in CALLS.items():
        out[metric] = stats[span].calls if span in stats else 0
    for key in ("census.raw_tables", "census.classes", "fourleg.pairs",
                "fourleg.classes", "coloring.colorings"):
        out[key] = tallies.get(key, 0)
    raw = out["census.raw_tables"]
    out["census.class_yield"] = out["census.classes"] / raw if raw else 0.0
    iso = out["racks.iso_calls"]
    out["racks.iso_hit_frac"] = tallies.get("racks.iso_hits", 0) / iso if iso else 0.0
    out["harness.self_s"] = traced_wall - root_time
    return out
