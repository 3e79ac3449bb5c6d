#!/usr/bin/env python3
"""Check perfbench results against a committed gate file.

    python3 tools/perf_gate.py GATE.json RESULT [RESULT ...]

Each RESULT is the stdout of one `python3 perfbench/run.py` run: JSON lines
whose first names the workload and whose last is the result
({"correct": ..., "failed": ..., "metrics": {name: {"value": ...}}}). GATE
holds, per workload, the exact expected value of each deterministic work
counter ("counters") and optionally a floor on its end-to-end sim_rate
("sim_rate_min"). The check fails when a result is malformed, not correct
or has failed cells, when a counter differs from its expected value, when
sim_rate is below the floor, or when a gated metric appears in none of the
results (so a renamed metric cannot pass by being skipped). Each counter
that differs is reported with both values, so a change that alters the
work done on purpose updates GATE from those lines.

Exit status: 0 when every check passes, 1 when one fails, 2 on bad usage.
"""
import argparse
import json
import sys


class Malformed(Exception):
    pass


def load_result(path):
    """(workload, result record, metric values) from one perfbench stdout
    file."""
    try:
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
    except OSError as e:
        raise Malformed(f"cannot read: {e.strerror}")
    try:
        first, last = json.loads(lines[0]), json.loads(lines[-1])
    except (IndexError, ValueError):
        raise Malformed("first or last line is not JSON")
    if not (isinstance(first, dict) and isinstance(first.get("workload"), str)
            and isinstance(last, dict) and isinstance(last.get("metrics"), dict)
            and isinstance(last.get("correct"), bool)
            and isinstance(last.get("failed"), int)):
        raise Malformed("no workload line or no result line")
    values = {}
    for name, m in last["metrics"].items():
        value = m.get("value") if isinstance(m, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise Malformed(f"metric {name} has no numeric value")
        values[name] = value
    return first["workload"], last, values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("gate")
    ap.add_argument("results", nargs="+")
    args = ap.parse_args()

    with open(args.gate) as f:
        gate = json.load(f)
    workloads = gate["workloads"]
    errors = []
    seen = set()  # (workload, metric) pairs found in some result

    def error(msg):
        errors.append(msg)
        print(f"perf_gate: {msg}", file=sys.stderr)

    for path in args.results:
        try:
            workload, result, values = load_result(path)
        except Malformed as e:
            error(f"{path}: malformed result: {e}")
            continue
        if workload not in workloads:
            error(f"{path}: workload {workload!r} has no gate")
            continue
        if not result["correct"] or result["failed"] > 0:
            error(f"{path}: correct={result['correct']} "
                  f"failed={result['failed']}")
        spec = workloads[workload]
        for name, expected in spec["counters"].items():
            if name not in values:
                continue
            seen.add((workload, name))
            if values[name] != expected:
                error(f"{path}: {workload} {name} = {values[name]!r}, "
                      f"expected exactly {expected!r}")
        floor = spec.get("sim_rate_min")
        if floor is not None and "sim_rate" in values:
            seen.add((workload, "sim_rate"))
            if values["sim_rate"] < floor:
                error(f"{path}: {workload} sim_rate = {values['sim_rate']:.1f}"
                      f" sim-s/s, below the floor {floor}")

    for workload, spec in workloads.items():
        gated = list(spec["counters"])
        if "sim_rate_min" in spec:
            gated.append("sim_rate")
        for name in gated:
            if (workload, name) not in seen:
                error(f"{workload} {name} appears in none of the results")

    if errors:
        return 1
    print(f"perf_gate: ok, {len(seen)} gated metrics over "
          f"{len(args.results)} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
