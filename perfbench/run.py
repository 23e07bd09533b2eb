"""lvrsim benchmark: three CLI workloads on generated inputs.

    python3 perfbench/run.py --workload hist_arb --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

``--trace 0`` times ``python -m lvrsim`` processes end to end and reports
wall time, CPU time, peak RSS, input rows per second and set-up time. The
benchmark and its CLI runs stay on one CPU, and times are scaled by a
calibration loop run on that CPU (harness.calibrate).
``--trace 1`` calls ``lvrsim.cli.main`` in-process with each layer wrapped
and reports per-layer times and counters. Every run's tables are checked
(see harness.py). A summary goes to stdout, the full record (machine,
inputs, samples) to ``perfbench/.work/``, and the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs are a quarter of the historical sizes named in inputs.py
(harness.DEFAULT_SCALE), so that each run ends well within its time limit on
a 2-core machine.
"""
from __future__ import annotations

import argparse
import json
import sys

import harness


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to keep starting timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _summary(result: dict, trace: int) -> list[str]:
    m = result["machine"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  scale {result['scale']}"
        f"  seconds {result['seconds']}  trace {trace}",
        f"machine  nproc {m['nproc']}, {m['cpu_model']}, Python {m['python']}, "
        f"numpy {m['numpy']}",
        "inputs   " + "; ".join(f"{kind}.csv {f['rows']} rows {f['bytes']} bytes"
                                for kind, f in result["inputs"]["files"].items()),
    ]
    for name, metric in result["metrics"].items():
        note = ""
        if name == "wall_s":
            note = f"  (median of {len(result['samples']['wall_s'])} runs)"
        lines.append(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}{note}")
    if not trace:
        raw = ", ".join(f"{k} {v:.4g} s" for k, v in result["raw"].items())
        lines.append(f"  times above are scaled to the calibration loop's nominal speed "
                     f"(run factor {result['speed_factor']:.4f}); unscaled medians: {raw}")
    lines.append(f"  {'failed_frac':<36} {result['failed_frac']:>14.6g}"
                 f"  ({result['failed']} of {result['attempted']} runs)")
    if trace:
        largest = result["largest_layer"]
        lines.append(f"  largest layer share: {largest['name']} {largest['share']:.1%}")
        if result["absent"]:
            lines.append("  absent: " + ", ".join(result["absent"]))
    lines += [f"  problem: {p}" for p in result["problems"]]
    return lines


def run_one(name: str, args: argparse.Namespace) -> dict:
    scale = harness.DEFAULT_SCALE
    digests = harness.reference_digests(name, args.seed, scale)
    if args.trace:
        import tracing

        result = tracing.trace_run(name, args.seed, args.seconds, scale, digests)
    else:
        result = harness.measure(name, args.seed, args.seconds, scale, digests)
    record = harness.WORK / f"result_{name}_trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1))
    print("\n".join(_summary(result, args.trace)), flush=True)
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (harness.SRC / "lvrsim" / "__init__.py").is_file():
        print(f"error: no lvrsim package under {harness.SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    harness.pin_to_one_cpu()
    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args) for name in names}
    failed = sum(r["failed"] for r in results.values())
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": (results[args.workload]["metrics"] if args.workload != "all" else
                    {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}),
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
