"""tools/bench_record.py's summary, on fabricated runs; no benchmark is started."""

import importlib.util
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
