import math

import legrack.census
import legrack.cli
import legrack.coloring

import layers
import workloads
from tracer import Layer, Tracer


def _small_workloads(tmp_path):
    return [workloads.Census(str(tmp_path), max_order=4),
            workloads.Sweep(max_order=3),
            workloads.Fronts(summands=(1, 2))]


def _run(wl, tracer=None):
    checks = workloads.Checks()
    if tracer is not None:
        tracer.install(layers.LAYERS)
    try:
        digest = wl.run_pass(wl.setup(0), checks, [])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return digest, checks.attempted, checks.failed


def test_traced_pass_gives_the_same_results_and_counts(tmp_path):
    for wl in _small_workloads(tmp_path):
        plain = _run(wl)
        tracer = Tracer()
        traced = _run(wl, tracer)
        assert traced == plain, wl.name
        assert plain[2] == 0, wl.name
        assert len(tracer.name_id) > 0, wl.name


def test_install_replaces_every_reference_and_uninstall_restores():
    original = legrack.census.enumerate_racks
    tracer = Tracer()
    tracer.install([Layer("legrack.census", "enumerate_racks", "search")])
    try:
        assert legrack.census.enumerate_racks is not original
        # cli.py holds its own reference through ``from .census import``.
        assert legrack.cli.enumerate_racks is legrack.census.enumerate_racks
        assert legrack.enumerate_racks is legrack.census.enumerate_racks
        assert len(legrack.cli.enumerate_racks(3)) == 6
    finally:
        tracer.uninstall()
    assert legrack.census.enumerate_racks is original
    assert legrack.cli.enumerate_racks is original
    assert tracer.stats()["search"].calls == 1


def test_missing_names_are_reported_absent():
    tracer = Tracer()
    tracer.install([
        Layer("legrack.census", "dedupe_racks_gone", "census.dedupe"),
        Layer("legrack.no_such_module", "f", "nowhere"),
        Layer("legrack.census", "MAX_ENUM_ORDER", "not_callable"),
        Layer("legrack.census", "enumerate_racks", "census.search"),
    ])
    try:
        legrack.census.enumerate_racks(3)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["legrack.census.dedupe_racks_gone",
                             "legrack.no_such_module.f",
                             "legrack.census.MAX_ENUM_ORDER"]
    metrics = layers.layer_metrics(tracer.stats(), tracer.tallies,
                                   tracer.root_time(), tracer.root_time())
    assert metrics["census.dedupe_s"] == 0.0
    assert metrics["census.raw_tables"] == 0
    assert metrics["census.search_s"] > 0


def test_generator_spans_cover_each_next():
    tracer = Tracer()
    tracer.install([Layer("legrack.coloring", "permutation_structures",
                          "structgen")])
    try:
        items = list(legrack.coloring.permutation_structures(3))
    finally:
        tracer.uninstall()
    # One span per next(), including the one that ends the iteration.
    assert tracer.stats()["structgen"].calls == len(items) + 1


def test_self_times_add_up_to_root_time(tmp_path):
    tracer = Tracer()
    _run(workloads.Census(str(tmp_path), max_order=4), tracer)
    stats = tracer.stats()
    total_self = sum(s.self_s for s in stats.values())
    assert math.isclose(total_self, tracer.root_time(), rel_tol=1e-9)
    for s in stats.values():
        assert s.self_s <= s.total_s + 1e-12
    assert stats["cli"].calls == 1
    assert tracer.tallies["census.classes"] == 1 + 2 + 6 + 19


def test_every_span_feeds_one_metric():
    spans = [layer.span for layer in layers.LAYERS]
    assert len(set(spans)) == len(spans)
    assert set(layers.SELF_TIME) == set(spans)
    assert len(set(layers.SELF_TIME.values())) == len(spans)


def test_dump_writes_spans(tmp_path):
    tracer = Tracer()
    _run(workloads.Fronts(summands=(1,)), tracer)
    stem = str(tmp_path / "trace")
    tracer.dump(stem)
    count = len(tracer.name_id)
    assert (tmp_path / "trace.spans").stat().st_size == count * (4 + 4 + 8 + 8)
    assert '"count": %d' % count in (tmp_path / "trace.json").read_text()
