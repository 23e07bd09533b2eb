"""Traced in-process run: per-layer spans and counters, recorded from outside.

The tracer wraps the public functions that ``lvrsim.cli`` imports from
``feeds``, ``simulation`` and ``fees``, then calls ``lvrsim.cli.main(argv)``.
``arbitrage`` and ``pool`` are reached only inside
``simulation.run_arb_sim``, so that function is also wrapped where the sweep
drivers call it, and ``optimal_arb_trade`` gets a call counter. Spans
(name, start, end, parent) and counters stay in memory and are written out
when the benchmark ends. A function the CLI no longer calls is reported
absent; its metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import harness

LAYER_MODULES = ("lvrsim.feeds", "lvrsim.simulation", "lvrsim.fees")
TRACED = (
    "feeds.load_klines", "feeds.load_block_timestamps", "feeds.align_to_blocks",
    "feeds.load_quote_updates", "simulation.blocktime_sweep", "simulation.run_arb_sim",
    "simulation.fees_vs_losses", "fees.load_swap_records", "fees.attribute_fees",
    "fees.accumulate", "arbitrage.optimal_arb_trade",
)

PER_LAYER = {  # name -> unit
    "feeds.load_klines_s": "s",
    "feeds.load_klines_us_per_row": "us",
    "feeds.load_block_timestamps_s": "s",
    "feeds.load_block_timestamps_calls": "count",
    "feeds.align_to_blocks_s": "s",
    "feeds.block_price_fills": "count",
    "feeds.load_quote_updates_s": "s",
    "feeds.quote_rows_collapsed": "count",
    "feeds.rows_read": "count",
    "simulation.blocktime_sweep_s": "s",
    "simulation.events": "count",
    "simulation.us_per_event": "us",
    "simulation.instants": "count",
    "simulation.run_arb_sim_s": "s",
    "simulation.ns_per_instant": "ns",
    "simulation.fees_vs_losses_s": "s",
    "arbitrage.calls": "count",
    "arbitrage.trade_yield": "ratio",
    "fees.load_swap_records_s": "s",
    "fees.us_per_record": "us",
    "fees.attribute_fees_s": "s",
    "fees.accumulate_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.hashed_bytes": "bytes",
    "trace_overhead_s": "s",
}


def _observe(name: str, tracer: "Tracer", args: tuple, result) -> None:
    """Counters taken from a traced call's arguments and result."""
    short = name.split(".", 1)[1]
    if short.startswith("load_") and args:
        tracer.paths.setdefault(name, set()).add(str(Path(args[0]).resolve()))
    if name == "feeds.load_klines":
        tracer.counters["klines_rows"] += len(result)
    elif name == "feeds.load_quote_updates":
        tracer.counters["quote_rows_kept"] += len(result)
    elif name == "feeds.align_to_blocks":
        tracer.counters["block_price_fills"] += int(result[1])
    elif name == "fees.load_swap_records":
        tracer.counters["swap_records"] += len(result)
    elif name == "simulation.run_arb_sim":
        tracer.counters["instants"] += int(result.n_instants)
        tracer.counters["events"] += len(result.losses)


class Tracer:
    """Spans and counters of one ``main`` call, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.paths: dict[str, set] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.counters[name + ".calls"] += 1
            _observe(name, self, args, result)
            return result

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> tuple[list, list[str]]:
        """Patch the layer functions; returns what to restore and what is absent."""
        cli = importlib.import_module("lvrsim.cli")
        simulation = importlib.import_module("lvrsim.simulation")
        patches = []  # (module, attribute, original, replacement, traced name)
        for attr, fn in list(vars(cli).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ in LAYER_MODULES):
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{attr}"
                patches.append((cli, attr, fn, self.wrap(name, fn), name))
        # the sweep drivers call the kernel inside their own module
        kernel = getattr(simulation, "run_arb_sim", None)
        if inspect.isfunction(kernel):
            name = "simulation.run_arb_sim"
            patches.append((simulation, "run_arb_sim", kernel, self.wrap(name, kernel), name))
        trade = getattr(simulation, "optimal_arb_trade", None)
        if inspect.isfunction(trade):
            name = "arbitrage.optimal_arb_trade"
            patches.append((simulation, "optimal_arb_trade", trade, self.count(name, trade), name))
        for module, attr, _, new, _ in patches:
            setattr(module, attr, new)
        wrapped = {p[4] for p in patches}
        return patches, [name for name in TRACED if name not in wrapped]

    def call_main(self, argv: list[str]) -> tuple[int, list[str]]:
        """Run ``lvrsim.cli.main`` traced; returns its exit code and absent functions."""
        main = importlib.import_module("lvrsim.cli").main
        patches, absent = self.install()
        try:
            index = self._open("cli.main")
            try:
                code = main(argv)
            finally:
                self._close(index)
        finally:
            for module, attr, old, _, _ in patches:
                setattr(module, attr, old)
        return code, absent

    def layer_metrics(self, rows_by_path: dict, out: Path) -> dict:
        def total(name: str) -> float:
            return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

        def rows(name: str) -> int:
            return sum(rows_by_path.get(p, 0) for p in self.paths.get(name, ()))

        def per(numerator: float, denominator: float, scale: float) -> float:
            return numerator / denominator * scale if denominator else 0.0

        root = next(i for i, s in enumerate(self.spans) if s["name"] == "cli.main")
        main_s = self.spans[root]["end"] - self.spans[root]["start"]
        children_s = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == root)
        c = self.counters
        run_arb_s = total("simulation.run_arb_sim")
        records_s = total("fees.load_swap_records")
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            hashed = sum(v["bytes"] for v in manifest["inputs"].values())
        except (OSError, ValueError, KeyError):
            hashed = 0
        return {
            "feeds.load_klines_s": total("feeds.load_klines"),
            "feeds.load_klines_us_per_row": per(total("feeds.load_klines"),
                                                c["klines_rows"], 1e6),
            "feeds.load_block_timestamps_s": total("feeds.load_block_timestamps"),
            "feeds.load_block_timestamps_calls": c["feeds.load_block_timestamps.calls"],
            "feeds.align_to_blocks_s": total("feeds.align_to_blocks"),
            "feeds.block_price_fills": c["block_price_fills"],
            "feeds.load_quote_updates_s": total("feeds.load_quote_updates"),
            "feeds.quote_rows_collapsed": (rows("feeds.load_quote_updates")
                                           - c["quote_rows_kept"]),
            "feeds.rows_read": sum(rows_by_path.get(p, 0)
                                   for p in set().union(*self.paths.values())),
            "simulation.blocktime_sweep_s": total("simulation.blocktime_sweep"),
            "simulation.events": c["events"],
            "simulation.us_per_event": per(run_arb_s, c["events"], 1e6),
            "simulation.instants": c["instants"],
            "simulation.run_arb_sim_s": run_arb_s,
            "simulation.ns_per_instant": per(run_arb_s, c["instants"], 1e9),
            "simulation.fees_vs_losses_s": total("simulation.fees_vs_losses"),
            "arbitrage.calls": c["arbitrage.optimal_arb_trade"],
            "arbitrage.trade_yield": per(c["events"], c["arbitrage.optimal_arb_trade"], 1.0),
            "fees.load_swap_records_s": records_s,
            "fees.us_per_record": per(records_s, c["swap_records"], 1e6),
            "fees.attribute_fees_s": total("fees.attribute_fees"),
            "fees.accumulate_s": total("fees.accumulate"),
            "cli.main_s": main_s,
            "cli.self_s": main_s - children_s,
            "cli.output_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
            "cli.hashed_bytes": hashed,
        }


def _largest_layer(tracer: Tracer, main_s: float) -> dict:
    """The direct child of ``main`` (or ``main``'s self time) with the most time."""
    root = next(i for i, s in enumerate(tracer.spans) if s["name"] == "cli.main")
    shares = Counter()
    for span in tracer.spans:
        if span["parent"] == root:
            shares[span["name"]] += (span["end"] - span["start"]) / main_s
    shares["cli.self"] = 1.0 - sum(shares.values())
    name, share = shares.most_common(1)[0]
    return {"name": name, "share": share}


def trace_run(name: str, seed: int, seconds: float, scale: float,
              digests: dict | None = None) -> dict:
    """Per-layer metrics: untraced and traced ``main`` calls alternate for ``seconds``."""
    workload = harness.WORKLOADS[name]
    work = harness.WORK / name
    meta, _, _ = harness.setup(workload, seed, scale, work, repeats=1)
    expected_results, expected_rows = workload.expected(meta)
    harness.library()
    cli = importlib.import_module("lvrsim.cli")
    data = work / "inputs"
    rows_by_path = {str((data / f"{kind}.csv").resolve()): f["rows"]
                    for kind, f in meta["files"].items()}
    argv = workload.argv(data)
    digests = dict(digests or {})
    untraced, traced, tracers, problems = [], [], [], []
    failed = attempted = 0

    def check(code: int, out: Path) -> tuple[dict, list[str]]:
        if code != 0:
            return {}, [f"main returned {code}"]
        return harness.check_outputs(out, expected_results, expected_rows, digests)

    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + untraced[-1] + traced[-1]["cli.main_s"] <= seconds):
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        began = time.perf_counter()
        code = cli.main([*argv, "--out", str(out)])
        untraced.append(time.perf_counter() - began)
        found, seen = check(code, out)
        if not digests and not seen:
            digests = found

        tracer = Tracer()
        out_traced = work / "out_traced"
        shutil.rmtree(out_traced, ignore_errors=True)
        code, absent = tracer.call_main([*argv, "--out", str(out_traced)])
        found_traced, seen_traced = check(code, out_traced)
        if found_traced != found:
            seen_traced.append("traced tables differ from the untraced ones")
        metrics = tracer.layer_metrics(rows_by_path, out_traced)
        traced.append(metrics)
        tracers.append(tracer)
        attempted += 2
        failed += bool(seen) + bool(seen_traced)
        problems += seen + seen_traced

    values = {k: statistics.median(m[k] for m in traced) for k in PER_LAYER
              if k != "trace_overhead_s"}
    values["trace_overhead_s"] = values["cli.main_s"] - statistics.median(untraced)
    last = tracers[-1]
    largest = _largest_layer(last, traced[-1]["cli.main_s"])
    (work / "trace.json").write_text(json.dumps({
        "workload": name, "seed": seed, "scale": scale, "absent": absent,
        "counters": dict(last.counters), "largest_layer": largest,
        "runs": [[{**s, "start": s["start"] - t.spans[0]["start"],
                   "end": s["end"] - t.spans[0]["start"]} for s in t.spans] for t in tracers],
    }, indent=1))
    shutil.rmtree(data, ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "out_traced", ignore_errors=True)
    return {
        "workload": name, "seed": seed, "scale": scale, "seconds": seconds,
        "machine": harness.machine_info(), "inputs": harness.input_summary(meta),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()},
        "samples": {"untraced_main_s": untraced,
                    "traced_main_s": [m["cli.main_s"] for m in traced]},
        "largest_layer": largest, "absent": absent,
        "problems": problems[:20], "digests": digests,
    }
