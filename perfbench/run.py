"""heartnet benchmark: the ``train``, ``score`` and ``grid`` workloads,
each a closed loop of one client calling ``heartnet.cli.main`` in this
process, the code path of the ``heartnet`` command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes over the workload's ops and
reports per-layer metrics per traced op, plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout and nowhere else;
without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import Yardstick
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GENERATOR = ROOT / "tools" / "generate_fixture.py"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5  # set-up is repeated and its median reported
MAX_REPORTED_FAILURES = 5
# With --trace 0 the loop runs past --seconds if needed, so that p90 has
# ten samples beyond it: in the machine's slow state 30 s give ~100
# train or grid ops.
MIN_OPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "efficiency_pct": "%",
    "final_sse": "sse",
}

# (metric, unit, how it is read from the tracer); counts and self times
# are per traced op.
PER_LAYER = (
    ("network.forward.calls", "count/op", ("calls", "network.forward")),
    ("network.forward.self_s", "s/op", ("self", "network.forward")),
    ("network.backward.calls", "count/op", ("calls", "network.backward")),
    ("network.backward.self_s", "s/op", ("self", "network.backward")),
    ("network.sse.self_s", "s/op", ("self", "network.sse")),
    ("network.sigmoid.calls", "count/op", ("calls", "network.sigmoid")),
    ("parallel.NeuronPool.run.calls", "count/op", ("calls", "parallel.NeuronPool.run")),
    ("parallel.NeuronPool.run.self_s", "s/op", ("self", "parallel.NeuronPool.run")),
    ("parallel.NeuronPool.run.fanned_out_calls", "count/op",
     ("count", "parallel.NeuronPool.run.fanned_out_calls")),
    ("parallel.NeuronPool.created", "count/op", ("calls", "parallel.NeuronPool.__init__")),
    ("parallel.NeuronPool.lifecycle_self_s", "s/op",
     ("self", "parallel.NeuronPool.__init__", "parallel.NeuronPool.close")),
    ("trainer.apply_update.calls", "count/op", ("calls", "trainer.apply_update")),
    ("trainer.apply_update.self_s", "s/op", ("self", "trainer.apply_update")),
    ("trainer.train_epoch.self_s", "s/op", ("self", "trainer.train_epoch")),
    ("trainer.train.self_s", "s/op", ("self", "trainer.train")),
    ("trainer.epochs_accepted", "count/op", ("count", "trainer.epochs_accepted")),
    ("trainer.epochs_rejected", "count/op", ("count", "trainer.epochs_rejected")),
    ("data.load_dataset.self_s", "s/op", ("self", "data.load_dataset")),
    ("data.impute.self_s", "s/op", ("self", "data.impute")),
    ("data.Scaler.transform.calls", "count/op", ("calls", "data.Scaler.transform")),
    ("data.Scaler.transform.self_s", "s/op", ("self", "data.Scaler.transform")),
    ("data.Scaler.transform_rows.self_s", "s/op", ("self", "data.Scaler.transform_rows")),
    ("data.decode_output.calls", "count/op", ("calls", "data.decode_output")),
    ("data.split.self_s", "s/op", ("self", "data.split")),
    ("data.fit_scaler.self_s", "s/op", ("self", "data.fit_scaler")),
    ("network.save_network.self_s", "s/op", ("self", "network.save_network")),
    ("network.load_network.self_s", "s/op", ("self", "network.load_network")),
    ("data.save_scaler.self_s", "s/op", ("self", "data.save_scaler")),
    ("data.load_scaler.self_s", "s/op", ("self", "data.load_scaler")),
    ("trainer.write_history_csv.self_s", "s/op", ("self", "trainer.write_history_csv")),
    ("evaluation.evaluate.calls", "count/op", ("calls", "evaluation.evaluate")),
    ("evaluation.evaluate.rows", "count/op", ("count", "evaluation.evaluate.rows")),
    ("evaluation.evaluate.self_s", "s/op", ("self", "evaluation.evaluate")),
    ("evaluation.run_experiment.self_s", "s/op", ("self", "evaluation.run_experiment")),
    ("evaluation.run_experiment.cells", "count/op", ("count", "evaluation.run_experiment.cells")),
    ("cli.main.self_s", "s/op", ("self", "cli.main")),
)


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ``heartnet.cli`` afresh from the checkout's ``src``."""
    if not (SRC / "heartnet" / "cli.py").is_file():
        raise ProgramMissing(f"no heartnet package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "heartnet" or n.startswith("heartnet.")]:
        del sys.modules[name]
    cli = importlib.import_module("heartnet.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"heartnet was imported from {cli.__file__}, not {SRC}")
    return cli


def load_generator():
    if not GENERATOR.is_file():
        raise ProgramMissing(f"no table generator at {GENERATOR}")
    spec = importlib.util.spec_from_file_location("generate_fixture", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate


def call(cli, argv) -> tuple[float, object, str, str]:
    """One CLI call with stdout and stderr captured; returns (seconds,
    exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the program must never raise out of main; count it
        code = None
        err.write(traceback.format_exc())
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


class Tally:
    """Latency, throughput and failures of the ops run so far.  Times are
    rescaled to the yardstick's nominal machine speed (see ``speed``)."""

    def __init__(self):
        self.raw: list[float] = []  # wall seconds per op
        self.scaled: list[float] = []  # the same, at nominal machine speed
        self.samples = 0
        self.failures: list[str] = []
        self._yardstick = Yardstick()

    @property
    def attempted(self) -> int:
        return len(self.raw)

    def run(self, cli, workload, op) -> tuple[float, float]:
        """One op and its checks; returns (scaled seconds, scale factor)."""
        seconds, code, stdout, stderr = call(cli, op.argv)
        factor = self._yardstick.factor()
        self.raw.append(seconds)
        self.scaled.append(seconds * factor)
        if code != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {code}: {last[0]}"]
        else:
            try:
                outcome = workload.check(op, stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            else:
                self.samples += outcome.samples
                problems = outcome.problems
        if problems:
            self.failures.append(f"{op.argv[0]} #{self.attempted}: {'; '.join(problems)}")
        return seconds * factor, factor


def set_up(workload) -> tuple[object, list[float], list[float]]:
    """Import the program, do the workload's own set-up and one warm-up
    op, ``SETUP_REPEATS`` times; returns the last module and the raw and
    rescaled times."""
    raw, scaled = [], []
    warmup = workload.schedule()[0]
    for _ in range(SETUP_REPEATS):
        yardstick = Yardstick()
        start = perf_counter()
        cli = import_program()
        workload.setup(lambda argv: call(cli, argv)[1])
        _, code, _, stderr = call(cli, warmup.argv)
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] * yardstick.factor())
        if code != 0:
            raise RuntimeError(f"warm-up op exited {code}: {stderr.strip()[-500:]}")
    return cli, raw, scaled


def measure(cli, workload, seconds: float) -> Tally:
    """Ops until ``seconds`` have passed and at least ``MIN_OPS`` ran."""
    tally = Tally()
    schedule = workload.schedule()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        tally.run(cli, workload, schedule[i % len(schedule)])
        i += 1
        if perf_counter() >= deadline and tally.attempted >= MIN_OPS:
            return tally


def measure_traced(cli, workload, seconds: float) -> tuple[Tally, Tracer, dict]:
    """Whole cycles over the schedule, each once untraced and once traced,
    so per-op counts repeat exactly and the overhead is a paired
    difference."""
    tally = Tally()
    tracer = Tracer()
    schedule = workload.schedule()
    untraced = traced = 0.0
    cycles = 0
    deadline = perf_counter() + seconds
    while cycles == 0 or perf_counter() < deadline:
        untraced += sum(tally.run(cli, workload, op)[0] for op in schedule)
        tracer.install()
        try:
            for op in schedule:
                scaled, factor = tally.run(cli, workload, op)
                tracer.settle(factor)
                traced += scaled
        finally:
            tracer.uninstall()
        cycles += 1
    ops = cycles * len(schedule)
    overhead = {
        "traced_ops": ops,
        "trace.overhead_ms": 1000.0 * (traced - untraced) / ops,
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
    }
    return tally, tracer, overhead


def per_layer_metrics(tracer: Tracer, overhead: dict) -> dict:
    ops = overhead["traced_ops"]
    metrics = {}
    for name, unit, (kind, *keys) in PER_LAYER:
        if kind == "calls":
            value = sum(tracer.calls(k) for k in keys) / ops
        elif kind == "self":
            value = sum(tracer.self_s(k) for k in keys) / ops
        else:
            value = sum(tracer.counts[k] for k in keys) / ops
        metrics[name] = {"value": value, "unit": unit}
    accepted = tracer.counts["trainer.epochs_accepted"]
    attempted = accepted + tracer.counts["trainer.epochs_rejected"]
    metrics["trainer.accept_ratio"] = {
        "value": accepted / attempted if attempted else 0.0, "unit": "ratio"}
    metrics["trace.overhead_ms"] = {"value": overhead["trace.overhead_ms"], "unit": "ms/op"}
    metrics["trace.overhead_pct"] = {"value": overhead["trace.overhead_pct"], "unit": "%"}
    return metrics


def absent_spans(tracer: Tracer) -> list[str]:
    """Spans a per-layer metric reads that the program no longer has."""
    wanted = {key for _, _, (kind, *keys) in PER_LAYER if kind != "count" for key in keys}
    return sorted(wanted - tracer.found)


def percentiles_ms(seconds: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in ms."""
    ms = sorted(1000.0 * s for s in seconds)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def end_to_end_metrics(tally: Tally, workload, setup_scaled) -> dict:
    p50, p90 = percentiles_ms(tally.scaled)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "samples_per_s": tally.samples / sum(tally.scaled),
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "peak_rss_mb": peak_rss_mb(),
        "efficiency_pct": workload.efficiency_pct(),
        "final_sse": workload.final_sse(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def peak_rss_mb() -> float:
    """This process's peak resident set plus the largest child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "git_revision": git_revision(),
        "seed": seed,
        "platform": platform.platform(),
    }


def print_summary(args, tally, metrics, setup, extra=()):
    raw_setup, scaled_setup = setup
    raw_p50, raw_p90 = percentiles_ms(tally.raw)
    print(f"heartnet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
    print(f"  set-up: median of {len(scaled_setup)}; rescaled "
          f"{', '.join(f'{t:.4f}' for t in scaled_setup)} s; "
          f"wall {', '.join(f'{t:.4f}' for t in raw_setup)} s")
    print(f"  ops: {tally.attempted} CLI calls, {tally.samples} sample passes, "
          f"{sum(tally.scaled):.3f} s rescaled, {sum(tally.raw):.3f} s wall")
    print(f"  wall-clock op_ms: p50 {raw_p50:.3f}, p90 {raw_p90:.3f} (not rescaled)")
    print(f"  failed_ratio: {len(tally.failures) / tally.attempted:.6f} "
          f"({len(tally.failures)}/{tally.attempted})")
    for line in tally.failures[:MAX_REPORTED_FAILURES]:
        print(f"  FAILED {line}")
    for name, metric in metrics.items():
        note = f"  (n={tally.attempted} ops)" if name.startswith("op_ms") else ""
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}{note}")
    for line in extra:
        print(f"  {line}")


def run(args) -> dict:
    generate = load_generator()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, generate)
        cli, *setup = set_up(workload)
        if args.trace:
            tally, tracer, overhead = measure_traced(cli, workload, args.seconds)
            metrics = per_layer_metrics(tracer, overhead)
            ops = overhead["traced_ops"]
            extra = [f"traced ops: {ops} (each also run untraced)",
                     f"absent layer functions: {', '.join(absent_spans(tracer)) or 'none'}",
                     "every span with calls, per traced op (calls, self s, total s):"]
            for span, (calls, total, self_s) in sorted(
                    tracer.totals.items(), key=lambda item: -item[1][2]):
                if calls:
                    extra.append(f"  {span:<40} {calls / ops:>12.6g} {self_s / ops:>12.6g}"
                                 f" {total / ops:>12.6g}")
        else:
            tally = measure(cli, workload, args.seconds)
            metrics = end_to_end_metrics(tally, workload, setup[1])
            extra = ()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print_summary(args, tally, metrics, setup, extra)
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
