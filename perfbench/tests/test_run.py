import run


def test_tail_leaves_ten_samples_beyond():
    items = [float(i) for i in range(100)]
    value, pct = run.tail(items)
    assert value == 89.0
    assert sum(x > value for x in items) == 10
    assert pct == 90.0


def test_tail_of_many_samples_leaves_one_percent_beyond():
    items = [float(i) for i in range(3456)]
    value, pct = run.tail(items)
    assert sum(x > value for x in items) == 34
    assert round(pct, 2) == 99.02


def test_tail_of_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_spans_give_back_the_pairs_appended():
    spans = run.Spans()
    spans.append((1.0, 2.5))
    spans.append((3.0, 4.0))
    assert list(spans) == [(1.0, 2.5), (3.0, 4.0)]


def test_traced_layers_and_harness_add_up_to_traced_wall(tmp_path):
    import layers
    import workloads

    checks = workloads.Checks()
    metrics = run.run_traced(workloads.Fronts(summands=(1, 2)), 0, checks,
                             str(tmp_path / "trace"))
    assert checks.failed == 0
    parts = sum(metrics[m] for m in layers.SELF_TIME.values())
    assert abs(parts + metrics["harness.self_s"] - metrics["trace.wall_s"]) < 1e-6
    assert metrics["harness.self_s"] >= 0
    assert metrics["coloring.generic_calls"] > 0
    assert metrics["census.search_s"] == 0.0
