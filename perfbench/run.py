"""Benchmark of the expmarket package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --pin SEEDS [--smoke]

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced cycles and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; everything else goes to standard error and to
``.bench_out/`` at the root of the checkout.  ``--all`` runs every workload,
each in its own process, and prints the end-to-end metrics as a table.
``--pin`` runs one cycle per seed and rewrites ``expected.json``.
See README.md in this directory for the workloads and metrics.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracing import MARKET_FUNCTIONS, OpTimer, Tracer  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 3

# percentile reported as trade_tail_ms, fixed per workload so that a faster
# program (more repetitions, same distinct trades) reads the same one: the
# highest that keeps ten distinct trades beyond it (about 650 in a fleet
# cycle, 900 in a convergence cycle).  A bigmap cycle and the solo probe
# hold only 8 content trades on the measured pair, so they report p75.
TAIL_PERCENTILE = {"convergence": 98, "fleet": 98, "bigmap": 75, "solo": 75}

# per-layer values that must repeat exactly for a given seed
EXACT_COUNTS = ("serialize.wire_bytes", "localiser.match_ops", "merging.nodes_in")


def _metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _import_program():
    """Import expmarket from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "expmarket" / "__init__.py").is_file():
        raise ImportError(f"no expmarket package under {src}")
    sys.path.insert(0, str(src))
    import expmarket
    import expmarket.cli  # noqa: F401  (loads every module the tracer wraps)

    if Path(expmarket.__file__).resolve().parent != (src / "expmarket").resolve():
        raise ImportError(f"expmarket imported from {expmarket.__file__}, not {src}")
    return expmarket


def _commit() -> str:
    """The checkout's commit from .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the value with pct% of samples at or below)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def pinned_view(unit, outcome: dict) -> dict:
    """The part of a unit's outcome that is pinned in expected.json."""
    keys = unit.pin_keys or outcome
    return {k: outcome[k] for k in keys}


def _unscaled(start: float, end: float) -> float:
    return 1.0


class Runner:
    """Runs one workload's units and checks every outcome.

    ``work_per_s`` is the work of every unit run over the time they took:
    the throughput a user sees, averaged over the whole run.  The cycles of
    a run are identical, so each distinct trade is timed as the median of
    its repetitions.  Neither drifts as a run fits in more repetitions, as
    the fastest repetition would.  Every time is kept with the stretch of
    ``clock`` it was taken in, ``(seconds, start, end)``, so that it can be
    scaled by the machine's slowness over that stretch.
    """

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name, self.seed = name, seed
        # scratch space of this process's program runs, removed by close()
        self.work_dir = OUT / "work" / f"{name}-{os.getpid()}"
        self.workload = WORKLOADS[name](seed, smoke, self.work_dir)
        pins = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        self.pins = pins.get("smoke" if smoke else "full", {}).get(name, {}).get(str(seed))
        self.first: dict[str, dict] = {}
        self.attempted = self.failed = 0
        self.timer = OpTimer()
        self.clock = perf_counter  # the clock units are timed with
        self.timer.repeat_every = getattr(self.workload, "repeat_every", 0)
        self.recording = True
        self.work_done = 0
        self.unit_s: list[tuple[float, float, float]] = []
        self.runs: dict[str, int] = {}
        # (unit name, index of the call in the unit) -> (kind, label, noop, [times])
        self.op_s: dict[tuple[str, int], tuple[str, str | None, bool, list[tuple]]] = {}

    def close(self) -> None:
        self.timer.uninstall()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            self.workload.setup()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def run_unit(self, unit) -> float:
        """Time one unit and check its outcome; returns its seconds (0 if it failed)."""
        self.attempted += 1
        self.timer.label = unit.label
        self.timer.trades = 0
        first_op = len(self.timer.samples)
        try:
            t0 = self.clock()
            raw = unit.run()
            dt = self.clock() - t0
            work, outcome = unit.summarize(raw)
            self._check(unit, outcome)
        except Mismatch as exc:
            self.failed += 1
            _log(f"FAILED {self.name}/{unit.name}: {exc}")
            return 0.0
        except Exception:  # an invariant error raised by the program is a failure too
            self.failed += 1
            _log(f"FAILED {self.name}/{unit.name}:\n{traceback.format_exc()}")
            return 0.0
        if self.recording:
            ops = self.timer.samples[first_op:]
            self.runs[unit.name] = self.runs.get(unit.name, 0) + 1
            if not unit.probe:
                self.work_done += work
                # repeat trades (see OpTimer) are not the program's work
                repeats = sum(op[2] for op in ops if op[0] == "repeat")
                self.unit_s.append((dt - repeats, t0, t0 + dt))
            for j, (kind, label, seconds, noop, start) in enumerate(ops):
                self.op_s.setdefault((unit.name, j), (kind, label, noop, []))[3].append(
                    (seconds, start, start + seconds))
        return dt

    def _check(self, unit, outcome: dict) -> None:
        first = self.first.setdefault(unit.name, outcome)
        if outcome != first:
            raise Mismatch(f"repeat differs from the first run of this unit: {outcome} != {first}")
        if self.pins is not None and self.pins.get(unit.name) != pinned_view(unit, outcome):
            raise Mismatch(f"pinned outcome differs: {outcome} != {self.pins.get(unit.name)}")

    def run_cycle(self, probe: bool = True) -> float:
        return sum(self.run_unit(unit) for unit in self.workload.cycle()
                   if probe or not unit.probe)

    def trade_times(self, label=None, noop=False, kind="trade", slowness=_unscaled) -> list[float]:
        """Each distinct trade's median time, for trades with this label."""
        return [statistics.median(s / slowness(start, end) for s, start, end in times)
                for k, lab, is_noop, times in self.op_s.values()
                if k == kind and is_noop == noop and (label is None or lab == label)]

    def work_per_s(self, slowness=_unscaled) -> float:
        busy = sum(s / slowness(start, end) for s, start, end in self.unit_s)
        return self.work_done / busy if busy else 0.0


def measure(runner: Runner, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """Untraced run: repeat whole cycles until the time is up.

    Only whole cycles run, so work_per_s always weighs the cycle's units
    alike.  A cycle is not started if it would end more than half a cycle
    past the deadline.  Every timing is scaled by the slowness the speed
    probe measured over its stretch of the run, and set-up time by that
    over the whole run (see speed.py); the raw figures go to the record.
    """
    probe = SpeedProbe()
    runner.clock = runner.timer.clock = probe.clock
    deadline = perf_counter() + seconds
    units = runner.workload.cycle()
    cycle_s: list[float] = []
    probe.start()
    try:
        while not cycle_s or perf_counter() + statistics.median(cycle_s) / 2 < deadline:
            t0 = perf_counter()
            runner.run_cycle()
            cycle_s.append(perf_counter() - t0)
    finally:
        probe.stop()
    label = getattr(runner.workload, "latency_label", None)
    # a workload that repeats trades takes its no-op latency from the repeats
    # alone: its own no-op trades are few, at map sizes that vary by seed
    noop_kind = "repeat" if runner.timer.repeat_every else "trade"
    pct = TAIL_PERCENTILE[runner.name]

    def figures(slowness, setup_slowness: float) -> dict:
        content = runner.trade_times(label, slowness=slowness)
        noop = runner.trade_times(label, noop=True, kind=noop_kind, slowness=slowness)
        return {
            "setup_s": setup_s / setup_slowness,
            "work_per_s": runner.work_per_s(slowness),
            "trade_p50_ms": 1e3 * statistics.median(content) if content else 0.0,
            "trade_tail_ms": 1e3 * _percentile(content, pct) if content else 0.0,
            "noop_trade_p50_ms": 1e3 * statistics.median(noop) if noop else 0.0,
        }

    metrics = figures(probe.slowness, probe.slowness())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    content = runner.trade_times(label)
    noop = runner.trade_times(label, noop=True, kind=noop_kind)
    detail = {
        "slowness": probe.slowness(), "speed_slices": len(probe.slices),
        "raw": figures(_unscaled, 1.0),
        "cycles": len(cycle_s), "cycle_units": len(units), "work_unit": runner.workload.work_unit,
        "work_done": runner.work_done, "repeats": runner.runs,
        "trades": len(content), "noop_trades": len(noop), "tail_percentile": pct,
        "trades_beyond_tail": len(content) - int(-(-len(content) * pct // 100)),
    }
    return metrics, detail


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced cycles until the time is up.

    Probe units (the solo workload's map pair) and repeat trades are left
    out, so the layers of a traced cycle are those of the workload itself.
    """
    tracer = Tracer()
    runner.timer.repeat_every = 0
    deadline = perf_counter() + seconds
    plain_s: list[float] = []
    traced_s: list[float] = []
    cycles: list[dict] = []
    while not cycles or perf_counter() + statistics.median(plain_s) + statistics.median(traced_s) \
            <= deadline + statistics.median(plain_s) / 2:
        t0 = perf_counter()
        runner.run_cycle(probe=False)
        plain_s.append(perf_counter() - t0)
        tracer.reset()
        tracer.install()
        runner.recording = False
        try:
            t0 = perf_counter()
            runner.run_cycle(probe=False)
            traced_s.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
            runner.recording = True
        cycles.append(tracer.layer_stats())
        if len(cycles) == 1:
            tracer.write_spans(OUT / "spans" / f"{runner.name}-seed{runner.seed}.csv")
    for key in EXACT_COUNTS:
        values = {c.get(key, 0) for c in cycles}
        if len(values) > 1:
            runner.failed += 1
            _log(f"FAILED {runner.name}: {key} differs between traced cycles: {values}")

    def med(key: str) -> float:
        return statistics.median(c.get(key, 0) for c in cycles)

    trades = med("merging.trades")
    localise_calls = med("localiser.localise.calls")
    metrics = {}
    for key in _metric_units("per_layer"):
        if key.endswith((".calls", ".self_s")) or key in EXACT_COUNTS:
            metrics[key] = med(key)
    metrics["market.self_s"] = sum(med(f"market.{f}.self_s") for f in MARKET_FUNCTIONS)
    metrics["merging.noop_trade_frac"] = med("merging.noop_trades") / trades if trades else 0.0
    metrics["localiser.hit_frac"] = med("localiser.hits") / localise_calls if localise_calls else 0.0
    metrics["merging.trade_scaling"] = _trade_scaling(runner)
    # median traced cycle minus median untraced one, like every other timing
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(plain_s)
    detail = {"traced_cycles": len(cycles), "plain_cycle_s": plain_s, "traced_cycle_s": traced_s}
    return metrics, detail


def _trade_scaling(runner: Runner) -> float:
    """p50 content-trade time on the largest map pair over the smallest one."""
    sizes = getattr(runner.workload, "sizes", ())
    if len(sizes) < 2:
        return 0.0
    by_size = [runner.trade_times(str(n)) for n in (max(sizes), min(sizes))]
    if not all(by_size):
        return 0.0
    return statistics.median(by_size[0]) / statistics.median(by_size[1])


def run_one(args) -> int:
    try:
        expmarket = _import_program()
        import numpy
    except ImportError as exc:
        _log(f"error: cannot import the program: {exc}")
        return 2
    runner = Runner(args.workload, args.seed, args.smoke)
    import_s = perf_counter() - T_START
    setup_s = import_s + runner.setup()
    runner.timer.install()
    try:
        if args.trace:
            metrics, detail = measure_traced(runner, args.seconds)
            units = _metric_units("per_layer")
        else:
            metrics, detail = measure(runner, args.seconds, setup_s)
            units = _metric_units("end_to_end")
    finally:
        runner.close()
    if runner.pins is None:
        _log(f"note: seed {args.seed} has no pinned outcomes; checked repeats and invariants only")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "pinned": runner.pins is not None,
        "failed_frac": runner.failed / runner.attempted, "detail": detail,
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "expmarket": expmarket.__version__, "nproc": os.cpu_count(),
                        "commit": _commit()},
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    _log(json.dumps({k: record[k] for k in ("failed_frac", "detail", "environment")}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    table = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            _log(f"error: {name} exited {proc.returncode}")
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        table[name] = result
    print(f"{'metric':<20}{'unit':<7}" + "".join(f"{n:>14}" for n in WORKLOADS))
    for key, unit in _metric_units("end_to_end").items():
        row = "".join(f"{table[n]['metrics'][key]['value']:>14.4g}" for n in WORKLOADS)
        print(f"{key:<20}{unit:<7}{row}")
    row = "".join(f"{table[n]['failed'] / table[n]['attempted']:>14.4g}" for n in WORKLOADS)
    print(f"{'failed_frac':<20}{'1':<7}{row}")
    print(json.dumps({"correct": ok, "workloads": table}))
    return 0 if ok else 1


def pin(args) -> int:
    """Run one cycle per seed and record the outcomes in expected.json."""
    try:
        _import_program()
    except ImportError as exc:
        _log(f"error: cannot import the program: {exc}")
        return 2
    first, _, last = args.pin.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    section = doc.setdefault("smoke" if args.smoke else "full", {})
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        for seed in seeds:
            runner = Runner(name, seed, args.smoke)
            runner.pins = None
            runner.workload.setup()
            runner.timer.install()
            try:
                runner.run_cycle()
            finally:
                runner.close()
            if runner.failed:
                _log(f"error: {name} seed {seed} failed; nothing pinned")
                return 1
            section.setdefault(name, {})[str(seed)] = {
                u.name: pinned_view(u, runner.first[u.name]) for u in runner.workload.cycle()}
            _log(f"pinned {name} seed {seed}")
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--pin", metavar="SEEDS", help="record outcomes for seeds A-B")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.pin:
        return pin(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required (or --all / --pin)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
