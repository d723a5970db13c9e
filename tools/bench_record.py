"""Keep BENCH_pipeline.json: perfbench comparisons of a change against its parent.

Run from the repository root:

    python3 tools/bench_record.py format BENCH_pipeline.json
    python3 tools/bench_record.py compare --parent ../parent --change ../change \\
        --what "..." BENCH_pipeline.json

``format`` rewrites the file in its layout: everything indented by one space,
except that each raw run (an element of a ``runs`` list) is one compact line,
and so is any object or list whose members are all scalars or lists of
scalars, such as a side's quartiles or a traced metric's ranges.
``json.load`` reads the same data before and after. ``compare`` runs
``perfbench/run.py`` untraced in two checkouts, parent and change alternated
pair by pair on every workload of the change's BENCHMARK.json for its
``run_seconds``, then ``TRACED_PAIRS`` alternated traced pairs of every
workload, and appends the summary, each side's median of every traced metric,
each side's range of it and every raw run as one comparison. It prints every
traced metric's medians and ranges, and flags as not attributable a metric
whose parent and change ranges overlap: its traced runs cannot tell the two
sides apart.
Each raw run keeps perfbench's ``metric`` lines as ``figures``, so figures
outside the end-to-end metrics, such as ``train_loss``, can be compared.
The summary gives, per workload and end-to-end metric, each side's quartiles,
how many pairs the change won in the direction of the metric's ``better``
field, and ``gain_shown``: whether it won at least 9 of 10 pairs and its
median beats the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# Ten pairs at least: a gain counts only when the change wins nine of ten.
PAIRS = 10
# Traced runs per side and workload; their medians attribute a change to spans.
TRACED_PAIRS = 3


def _scalar(value) -> bool:
    return not isinstance(value, (dict, list))


def _one_line(value) -> bool:
    """Whether every member of an object or list is a scalar or a list of scalars."""
    members = value.values() if isinstance(value, dict) else value
    return all(_scalar(m) or isinstance(m, list) and all(map(_scalar, m)) for m in members)


def dumps(data) -> str:
    """data as JSON, indented by one space.

    Each element of a ``runs`` list is one compact line, and so is any other
    object or list whose members are all scalars or lists of scalars.
    """

    def emit(value, depth: int, compact: bool = False) -> str:
        pad, inner = " " * depth, " " * (depth + 1)
        if _scalar(value) or _one_line(value):
            return json.dumps(value)
        if isinstance(value, dict):
            items = (f"{inner}{json.dumps(k)}: {emit(v, depth + 1, k == 'runs')}" for k, v in value.items())
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if compact:
            items = (inner + json.dumps(v, separators=(",", ":")) for v in value)
        else:
            items = (inner + emit(v, depth + 1) for v in value)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"

    return emit(data, 0) + "\n"


def write(path: str, data) -> None:
    text = dumps(data)
    if json.loads(text) != data:
        raise RuntimeError("the rewritten JSON reads back different data")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_output(stdout: str) -> dict:
    """One perfbench run's output: its env line, its figures and its JSON result.

    ``figures`` maps the name of every ``metric <name> = <value> <unit>``
    line to its value, ``train_loss``, ``bpp`` and ``ssim`` among them;
    the result is the last line.
    """
    lines = stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    figures = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, value, *_ = line.split()
            figures[name] = float(value)
    return {"env": env, "figures": figures, "result": json.loads(lines[-1])}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run, parsed by ``parse_output``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if not proc.stdout:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} printed nothing\n{proc.stderr}")
    return parse_output(proc.stdout)


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3), "runs": len(values)}


def pairs_won(parent: dict, change: dict, sign: int) -> tuple[int, int]:
    """How many pairs the change won, and of how many.

    ``parent`` and ``change`` map pair numbers to values; ``sign`` is 1 when
    lower is better and -1 when higher is; a tie counts for neither side.
    """
    pairs = parent.keys() & change.keys()
    return sum(sign * change[p] < sign * parent[p] for p in pairs), len(pairs)


def gain_shown(parent: dict, change: dict, sign: int) -> bool:
    """Whether the change won at least 9 of 10 pairs and its median beats the
    parent's by more than the parent's interquartile range (arguments as for
    ``pairs_won``)."""
    won, pairs = pairs_won(parent, change, sign)
    q1, parent_median, q3 = statistics.quantiles(parent.values(), n=4, method="inclusive")
    change_median = statistics.median(change.values())
    return 10 * won >= 9 * pairs and sign * (parent_median - change_median) > q3 - q1


def summarize(runs: list[dict], workloads, better: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles, the pairs the change won and ``gain_shown``.

    ``better`` maps each end-to-end metric to its ``better`` field, "lower"
    or "higher"; a pair counts as won only if the change is strictly better.
    """
    summary = {}
    for workload in workloads:
        by_side = {
            side: [r for r in runs if r["workload"] == workload and r["side"] == side and not r["trace"]]
            for side in ("parent", "change")
        }
        entry = {}
        for metric, direction in better.items():
            values = {side: {r["pair"]: r["result"]["metrics"][metric]["value"] for r in rs}
                      for side, rs in by_side.items()}
            entry[metric] = {side: quartiles(list(v.values())) for side, v in values.items()}
            sign = 1 if direction == "lower" else -1
            won, pairs = pairs_won(values["parent"], values["change"], sign)
            entry[metric]["pairs_won_by_change"] = f"{won}/{pairs}"
            entry[metric]["gain_shown"] = gain_shown(values["parent"], values["change"], sign)
        entry["failed_ops"] = {side: sum(r["result"]["failed"] for r in rs) for side, rs in by_side.items()}
        summary[workload] = entry
    return summary


def schedule(workloads) -> list[dict]:
    """Every run of a comparison, in order: side, workload, seed, trace and pair.

    First ``PAIRS`` untraced pairs, each running every workload on both
    sides; seeds alternate every pair, and the side that runs first every
    two pairs. Then ``TRACED_PAIRS`` traced pairs of the same shape, all at
    seed 1, the side that runs first swapping every pair.
    """
    runs = []
    for pair in range(PAIRS):
        order = ("parent", "change") if (pair // 2) % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                runs.append({"side": side, "workload": workload, "seed": 1 + pair % 2,
                             "trace": 0, "pair": pair})
    for pair in range(TRACED_PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                runs.append({"side": side, "workload": workload, "seed": 1, "trace": 1, "pair": pair})
    return runs


def _traced_values(runs: list[dict], workload: str, side: str) -> dict[str, list]:
    """Every metric's values over one side's traced runs of a workload, in run order."""
    values: dict[str, list] = {}
    for r in runs:
        if r["trace"] and r["workload"] == workload and r["side"] == side:
            for name, metric in r["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def traced_medians(runs: list[dict], workloads) -> dict:
    """Per workload and side, the median of every metric over that side's traced runs."""
    return {workload: {side: {name: statistics.median(v)
                              for name, v in _traced_values(runs, workload, side).items()}
                       for side in ("parent", "change")}
            for workload in workloads}


def traced_ranges(runs: list[dict], workloads) -> dict:
    """Per workload and metric traced on both sides: each side's [min, max]
    over its traced runs, and ``attributable``, whether the two ranges are
    apart."""
    ranges = {}
    for workload in workloads:
        parent, change = (_traced_values(runs, workload, side) for side in ("parent", "change"))
        ranges[workload] = {}
        for name in (n for n in parent if n in change):
            p, c = [min(parent[name]), max(parent[name])], [min(change[name]), max(change[name])]
            ranges[workload][name] = {"parent": p, "change": c, "attributable": p[1] < c[0] or c[1] < p[0]}
    return ranges


def traced_report(medians: dict, ranges: dict) -> list[str]:
    """One line per workload and metric traced on both sides: each side's median and range.

    A metric that read 0 in every traced run, a span the workload never
    enters, gets no line.
    """
    lines = []
    for workload, metrics in ranges.items():
        for name, spread in metrics.items():
            if spread["parent"] == spread["change"] == [0, 0]:
                continue
            sides = "  ".join(f"{side} {medians[workload][side][name]:.6g} "
                              f"[{spread[side][0]:.6g}, {spread[side][1]:.6g}]"
                              for side in ("parent", "change"))
            flag = "" if spread["attributable"] else "  not attributable"
            lines.append(f"{workload} {name}: {sides}{flag}")
    return lines


def compare(args) -> None:
    checkouts = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = []
    for run in schedule(workloads):
        out = run_once(checkouts[run["side"]], run["workload"], run["seed"], seconds, run["trace"])
        runs.append({**run, **out})
        value = out["result"]["metrics"].get("op_ms_p50", {}).get("value")
        print(f"pair {run['pair']} {run['workload']} {run['side']} trace {run['trace']}: "
              f"op_ms_p50 {value}", flush=True)

    medians, ranges = traced_medians(runs, workloads), traced_ranges(runs, workloads)
    print("\n".join(traced_report(medians, ranges)), flush=True)
    with open(args.file, encoding="utf-8") as fh:
        data = json.load(fh)
    data["comparisons"].append({
        "what": args.what,
        "parent_commit": args.parent_commit,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace <0|1>",
        "host": args.host,
        "summary": summarize(runs, workloads, {m["name"]: m["better"] for m in spec["end_to_end"]}),
        "traced_per_op": medians,
        "traced_ranges": ranges,
        "runs": runs,
    })
    write(args.file, data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("format", help="rewrite the file in its layout")
    p.add_argument("file")
    p = sub.add_parser("compare", help="measure a change against its parent and append it")
    p.add_argument("file")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--parent-commit", default="")
    p.add_argument("--what", required=True)
    p.add_argument("--host", default="", help="the machine and how the runs were ordered")
    args = parser.parse_args(argv)
    if args.command == "format":
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
        write(args.file, data)
    else:
        compare(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
