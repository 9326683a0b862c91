"""Run the benchmark: ``python3 perf/run.py`` (or ``python -m perf.run``).

With no arguments every workload runs twice — the end-to-end pass with
tracing off, then the traced pass that yields the per-layer metrics —
and every metric is printed by name with its unit.  The driver's form
is ``--workload NAME --seed N --seconds S --trace 0|1``: one workload,
one pass, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import re
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bootstrap():
    """Make ``repro`` and ``perf`` importable from a bare checkout."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"perf: no program to measure: {source}/repro is missing")
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


_bootstrap()

from perf import host, passes, spec, stages  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perf_out")
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def print_result(result, placement_line):
    kind = "traced pass" if result.trace else "end to end"
    print(f"== {result.workload}  {kind}  seed={result.seed}  "
          f"{placement_line}")
    table = spec.PER_LAYER if result.trace else spec.END_TO_END
    for metric in table:
        if result.trace and result.workload not in metric.applies:
            continue
        value = result.metrics.get(metric.name)
        if value is None:
            print(f"   {metric.name:38s} MISSING")
            continue
        count = ""
        if "latency_p" in metric.name:
            count = f"   (n={result.samples})"
        print(f"   {metric.name:38s} {value:14.4f} {metric.unit}{count}")
    print(f"   attempted {result.attempted}  failed {result.failed}")
    for reason in result.reasons:
        print(f"   failed: {reason}")
    for note in result.notes:
        print(f"   note: {note}")


def check_result(result):
    """Problems with a result's shape: missing, extra or misnamed metrics."""
    table = spec.PER_LAYER if result.trace else spec.END_TO_END
    expected = {metric.name for metric in table}
    problems = []
    for name in sorted(expected - set(result.metrics)):
        problems.append(f"{result.workload}: metric {name} is missing")
    for name in sorted(set(result.metrics) - expected):
        problems.append(f"{result.workload}: metric {name} is not in the spec")
    for name, value in result.metrics.items():
        if not NAME_PATTERN.match(name):
            problems.append(f"{result.workload}: bad metric name {name!r}")
        if not isinstance(value, (int, float)) or value != value:
            problems.append(f"{result.workload}: {name} is not a number")
        elif not result.trace and value <= 0:
            # the driver refuses an end-to-end metric that reads 0
            problems.append(f"{result.workload}: {name} is {value}")
    if not result.correct:
        problems.append(
            f"{result.workload}: {result.failed} of {result.attempted} "
            f"ops failed")
    return problems


def check_spec():
    """BENCHMARK.json must be the recorded copy of perf/spec.py."""
    problems = []
    for workload in spec.WORKLOADS:
        if len(workload.why) > 200 or "\n" in workload.why:
            problems.append(f"why of {workload.name} is not one short line")
    names = ([w.name for w in spec.WORKLOADS]
             + [m.name for m in spec.END_TO_END]
             + [m.name for m in spec.PER_LAYER])
    for name in names:
        if not NAME_PATTERN.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if recorded != spec.benchmark_document(recorded.get("run_seconds")):
        problems.append("BENCHMARK.json and perf/spec.py disagree")
    return problems


def agreement(sets):
    """Compare the end-to-end results of repeated sets, metric by metric."""
    lines, disagreements = [], 0
    for name in sets[0]:
        for metric in spec.END_TO_END:
            values = [results[name].metrics[metric.name] for results in sets]
            spread = (max(values) - min(values)) / min(values)
            verdict = "ok"
            if spread > metric.bound:
                verdict = "DISAGREE"
                disagreements += 1
            shown = "  ".join(f"{value:12.4f}" for value in values)
            lines.append(
                f"   {name:18s} {metric.name:18s} {shown}  spread "
                f"{spread:7.2%}  bound {metric.bound:.0%}  {verdict}")
    return lines, disagreements


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            return float(json.load(handle)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 10.0


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=spec.ALL,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input")
    parser.add_argument("--seconds", "--duration", type=float, default=None,
                        help="measured seconds per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end pass only, 1: traced pass only "
                        "(default: both)")
    parser.add_argument("--check", action="store_true",
                        help="about a second per pass; exit 1 on any failed "
                        "op or missing or misnamed metric")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times")
    parser.add_argument("--agree", action="store_true",
                        help="with --repeat: exit 1 when two sets disagree "
                        "on an end-to-end metric by more than its bound")
    parser.add_argument("--out", help="also write the results here as JSON")
    parser.add_argument("--trace-out",
                        help="where the traced pass writes its spans "
                        "(default: .perf_out/ in the checkout)")
    return parser


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = build_parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    names = args.workload or list(spec.ALL)
    traces = [int(args.trace)] if args.trace is not None else [0, 1]
    seconds = args.seconds if args.seconds is not None else default_seconds()
    iterations = 2000
    if args.check:
        seconds, iterations = 1.0, 200

    cpus = host.allowed_cpus()
    log = stages.SpanLog()
    problems = check_spec() if args.check else []
    sets, everything = [], []
    with host.KeepAwake(cpus) as awake:
        generator_cpu = host.pin(cpus, host.GENERATOR_SLOT)
        placement_line = (
            f"placement={host.placement(cpus)} (generator cpu "
            f"{generator_cpu}, server cpu "
            f"{host.cpu_for(cpus, host.SERVER_SLOT)}) "
            f"keep-awake={awake.state}")
        for _ in range(args.repeat):
            results = {}
            for name in names:
                for trace in traces:
                    result = passes.run_pass(name, trace, args.seed, seconds,
                                             cpus, iterations, log)
                    print_result(result, placement_line)
                    problems.extend(check_result(result))
                    everything.append(result)
                    if not trace:
                        results[name] = result
            sets.append(results)

    if 1 in traces:
        trace_out = args.trace_out
        if trace_out is None:
            os.makedirs(OUT_DIR, exist_ok=True)
            which = names[0] if len(names) == 1 else "all"
            trace_out = os.path.join(
                OUT_DIR, f"spans-{which}-seed{args.seed}.jsonl")
        log.write(trace_out)
        print(f"spans: {len(log.spans)} written to {trace_out}")

    status = 0
    if args.agree and len(sets) > 1 and 0 in traces:
        lines, disagreements = agreement(sets)
        print("== agreement of repeated sets (end to end)")
        print("\n".join(lines))
        if disagreements:
            status = 1
    for problem in problems:
        print(f"problem: {problem}")
    if problems:
        status = 1

    if len(everything) == 1:
        final = everything[0].document()
    else:
        final = {"runs": [
            dict(result.document(), workload=result.workload,
                 trace=result.trace, seed=result.seed)
            for result in everything]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(final, handle, indent=1)
    print(json.dumps(final))
    return status


if __name__ == "__main__":
    sys.exit(main())
