"""tools/bench_record.py's parsing, schedule and summary, on fabricated runs; no benchmark is started."""

import importlib.util
import json
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
BETTER = {"op_ms_p50": "lower", "ops_per_s": "higher", "setup_s": "lower"}


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, pair, trace=0, failed=0, workload="w", **values):
    metrics = {name: {"value": value} for name, value in values.items()}
    return {"side": side, "workload": workload, "pair": pair, "trace": trace,
            "result": {"metrics": metrics, "failed": failed}}


def test_summary_counts_pairs_won_per_metric_in_its_better_direction():
    tool = _load_tool()
    runs = []
    # the change is faster in pairs 0-2 and ties in pair 3; it has higher
    # throughput only in pair 0, and a lower setup_s in every pair
    for pair, (p50, ops) in enumerate([(9.0, 12.0), (8.0, 9.0), (7.0, 9.0), (10.0, 10.0)]):
        runs.append(_run("parent", pair, op_ms_p50=10.0, ops_per_s=10.0, setup_s=0.6))
        runs.append(_run("change", pair, failed=int(pair == 1), op_ms_p50=p50, ops_per_s=ops, setup_s=0.2))
    # a traced run and another workload's run are left out
    runs.append(_run("change", 0, trace=1, op_ms_p50=99.0, ops_per_s=0.0, setup_s=9.0))
    runs.append(_run("change", 0, workload="other", op_ms_p50=99.0, ops_per_s=0.0, setup_s=9.0))
    entry = tool.summarize(runs, ["w"], BETTER)["w"]
    assert entry["op_ms_p50"]["pairs_won_by_change"] == "3/4"
    assert entry["ops_per_s"]["pairs_won_by_change"] == "1/4"
    assert entry["setup_s"]["pairs_won_by_change"] == "4/4"
    assert entry["op_ms_p50"]["change"] == {"median": 8.5, "q1": 7.75, "q3": 9.25, "runs": 4}
    assert entry["setup_s"]["parent"] == {"median": 0.6, "q1": 0.6, "q3": 0.6, "runs": 4}
    assert entry["failed_ops"] == {"parent": 0, "change": 1}


def test_schedule_alternates_pairs_then_traces_every_workload_on_both_sides():
    tool = _load_tool()
    runs = tool.schedule(["a", "b"])
    untraced = [r for r in runs if not r["trace"]]
    assert len(untraced) == tool.PAIRS * 4
    for pair in range(tool.PAIRS):
        in_pair = [r for r in untraced if r["pair"] == pair]
        # both sides of every workload, the first side swapping every two pairs
        first, second = ("parent", "change") if pair % 4 < 2 else ("change", "parent")
        assert [(r["workload"], r["side"]) for r in in_pair] == [
            ("a", first), ("a", second), ("b", first), ("b", second)
        ]
        assert {r["seed"] for r in in_pair} == {1 + pair % 2}
    # then the traced pairs at seed 1, the first side swapping every pair
    assert tool.TRACED_PAIRS == 3
    assert runs[len(untraced):] == [
        {"side": side, "workload": w, "seed": 1, "trace": 1, "pair": pair}
        for pair in range(tool.TRACED_PAIRS) for w in ("a", "b")
        for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent"))
    ]
    assert runs[: len(untraced)] == untraced


def test_compare_records_every_scheduled_run_and_a_trace_per_workload(tmp_path, monkeypatch):
    tool = _load_tool()
    spec = {"run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": "op_ms_p50", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    bench = tmp_path / "BENCH.json"
    bench.write_text(json.dumps({"comparisons": []}))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        metrics = {"op_ms_p50": {"value": float(len(calls))}}
        if trace:
            metrics["span_ms"] = {"value": 10.0 * len(calls)}
        return {"env": {}, "result": {"metrics": metrics, "failed": 0}}

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    tool.main(["compare", str(bench), "--parent", str(tmp_path), "--change", str(tmp_path),
               "--what", "test"])
    entry = json.loads(bench.read_text())["comparisons"][0]
    expected = tool.schedule(["a", "b"])
    assert calls == [(r["workload"], r["seed"], r["trace"]) for r in expected]
    assert [{k: r[k] for k in expected[0]} for r in entry["runs"]] == expected
    # each traced metric is the median over that side's traced runs
    expected_medians = {}
    for w in ("a", "b"):
        for side in ("parent", "change"):
            numbers = sorted(i + 1.0 for i, r in enumerate(expected)
                             if r["trace"] and r["workload"] == w and r["side"] == side)
            assert len(numbers) == tool.TRACED_PAIRS
            expected_medians.setdefault(w, {})[side] = {
                "op_ms_p50": numbers[1], "span_ms": 10.0 * numbers[1]}
    assert entry["traced_per_op"] == expected_medians
    # and each side's range over the same runs, which interleave here
    for w in ("a", "b"):
        for name, scale in (("op_ms_p50", 1.0), ("span_ms", 10.0)):
            spread = entry["traced_ranges"][w][name]
            for side in ("parent", "change"):
                numbers = [scale * (i + 1.0) for i, r in enumerate(expected)
                           if r["trace"] and r["workload"] == w and r["side"] == side]
                assert spread[side] == [min(numbers), max(numbers)]
            assert spread["attributable"] is False
    assert set(entry["summary"]) == {"a", "b"}


def test_parse_output_keeps_env_figures_and_result():
    tool = _load_tool()
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"op_ms_p50": {"value": 2.5, "unit": "ms"}}}
    stdout = "\n".join([
        'env {"python": "3.11"}',
        "ops 3 (steps); times below are at reference speed",
        "metric compress_ms_p50 = 4.25 ms over 3 samples",
        "metric train_loss = 0.0123457 mse",
        "metric ssim = 0.875",
        "metric op_ms_p50 = 2.5 ms",
        json.dumps(result),
    ])
    assert tool.parse_output(stdout) == {
        "env": {"python": "3.11"},
        "figures": {"compress_ms_p50": 4.25, "train_loss": 0.0123457, "ssim": 0.875,
                    "op_ms_p50": 2.5},
        "result": result,
    }


def _op_ms_p50_summary(parent_values, change_values):
    runs = []
    for pair, (p, c) in enumerate(zip(parent_values, change_values)):
        runs += [_run("parent", pair, op_ms_p50=p), _run("change", pair, op_ms_p50=c)]
    return _load_tool().summarize(runs, ["w"], {"op_ms_p50": "lower"})["w"]["op_ms_p50"]


def test_gain_shown_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parent_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8]
    # 10/10 with a wide gap
    entry = _op_ms_p50_summary(parent, [p - 2.0 for p in parent])
    assert (entry["pairs_won_by_change"], entry["gain_shown"]) == ("10/10", True)
    # 9/10 and a tie, but the medians differ by less than the parent's IQR (0.35)
    change = [p - 0.1 for p in parent[:9]] + [parent[9]]
    entry = _op_ms_p50_summary(parent, change)
    assert (entry["pairs_won_by_change"], entry["gain_shown"]) == ("9/10", False)
    # 8/10 with a wide gap
    change = [p - 2.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    entry = _op_ms_p50_summary(parent, change)
    assert (entry["pairs_won_by_change"], entry["gain_shown"]) == ("8/10", False)


def test_traced_ranges_flag_a_metric_whose_sides_overlap_as_not_attributable():
    tool = _load_tool()
    runs = []
    for pair, (fast, slow, count) in enumerate([(7.0, 5.0, 3), (8.0, 6.0, 3), (9.0, 7.0, 3)]):
        # span_ms: parent 10-12 against change 7-9; other_ms: 5-7 against 6.5
        runs.append(_run("parent", pair, trace=1, span_ms=10.0 + pair, other_ms=slow, blocks=count,
                         idle_ms=0.0))
        runs.append(_run("change", pair, trace=1, span_ms=fast, other_ms=6.5, blocks=count,
                         idle_ms=0.0, change_only=1.0))
    # untraced runs are left out
    runs.append(_run("parent", 0, span_ms=0.0, other_ms=0.0, blocks=0))
    ranges = tool.traced_ranges(runs, ["w"])
    assert ranges == {"w": {
        "span_ms": {"parent": [10.0, 12.0], "change": [7.0, 9.0], "attributable": True},
        "other_ms": {"parent": [5.0, 7.0], "change": [6.5, 6.5], "attributable": False},
        "blocks": {"parent": [3, 3], "change": [3, 3], "attributable": False},
        "idle_ms": {"parent": [0.0, 0.0], "change": [0.0, 0.0], "attributable": False},
    }}
    # a metric that read 0 on every traced run gets no line
    lines = tool.traced_report(tool.traced_medians(runs, ["w"]), ranges)
    assert lines == [
        "w span_ms: parent 11 [10, 12]  change 8 [7, 9]",
        "w other_ms: parent 6 [5, 7]  change 6.5 [6.5, 6.5]  not attributable",
        "w blocks: parent 3 [3, 3]  change 3 [3, 3]  not attributable",
    ]


def test_dumps_writes_runs_and_objects_of_scalars_on_one_line():
    tool = _load_tool()
    data = {
        "what": "w",
        "comparisons": [{
            "summary": {"w": {"op_ms_p50": {"parent": {"median": 1.5, "runs": 2}, "won": "2/2"},
                              "failed_ops": {"parent": 0, "change": 0}}},
            "traced_ranges": {"w": {"span_ms": {"parent": [1.0, 2.0], "attributable": True}}},
            "runs": [{"side": "parent", "result": {"metrics": {"op_ms_p50": {"value": 1.0}}}}],
            "empty": {},
        }],
    }
    text = tool.dumps(data)
    assert json.loads(text) == data
    assert text.splitlines() == [
        "{",
        ' "what": "w",',
        ' "comparisons": [',
        "  {",
        '   "summary": {',
        '    "w": {',
        '     "op_ms_p50": {',
        '      "parent": {"median": 1.5, "runs": 2},',
        '      "won": "2/2"',
        "     },",
        '     "failed_ops": {"parent": 0, "change": 0}',
        "    }",
        "   },",
        '   "traced_ranges": {',
        '    "w": {',
        '     "span_ms": {"parent": [1.0, 2.0], "attributable": true}',
        "    }",
        "   },",
        '   "runs": [',
        '    {"side":"parent","result":{"metrics":{"op_ms_p50":{"value":1.0}}}}',
        "   ],",
        '   "empty": {}',
        "  }",
        " ]",
        "}",
    ]
