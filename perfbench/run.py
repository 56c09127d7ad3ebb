"""The spinchannel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run repeats the workload's batch of ops for
``--seconds`` seconds, and between its passes it sets up (fresh-interpreter
import, input generation, one warm-up op; not the writing of input files)
``SETUP_RUNS`` times in all.  It
checks every output against the independent reference and prints the
metrics, one per line, with the last line a JSON object: with ``--trace 0``
the end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` its
per-layer metrics.  In a traced run the first half of the time is measured
untraced and the second half with every public ``spinchannel`` function
wrapped; the difference between the two is the tracing overhead.

The compute speed of a shared host drifts by tens of percent from one
stretch of seconds to the next.  Every op is therefore bracketed by a short
fixed compute kernel (the host probe), and each op time is scaled by
(PROBE_NOMINAL_S / probe time around it) ** s, where s is the workload's
``host_sensitivity`` (see workloads.py): the time the op would have taken at
the probe's nominal speed.  ``wall_s`` sums each op's median scaled time over
the passes; ``setup_s`` (imports and a small warm-up op, interpreter-bound
work) is scaled by the run's median probe time with s = 1.  The raw times are
printed beside them and kept in ``result-*.json``.

Files written under ``.perfbench_out/``: ``result-*.json`` (all figures,
environment, failed checks), and for traced runs ``layers-*.tsv`` (per-layer
table) and ``spans-<workload>.npz`` (every span: name, start, end, parent).
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# fixed before numpy loads, so results do not depend on the host's core count
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# set-up is short and noisy, so it is repeated and the median reported
SETUP_RUNS = 9
# The host probe: a Python loop and a small eigh, the kind of work whose speed
# drifts with the host's load.  On a shared 2-vCPU x86-64 host its median over
# a run ranged from 0.74 to 1.30 ms; PROBE_NOMINAL_S only fixes the scale of
# the reported times.
PROBE_LOOP = 10_000
PROBE_MATRIX = np.add.outer(np.arange(48.0), np.arange(48.0)) % 7.0
PROBE_REPEATS = 3
PROBE_NOMINAL_S = 8.0e-4
MIN_PASSES = 2
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


class Raised:
    """An op that raised instead of returning."""

    def __init__(self, text: str) -> None:
        self.text = text


def parse_args(argv):
    parser = argparse.ArgumentParser(description="spinchannel benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_package():
    """Import spinchannel from this checkout's src/, never from elsewhere."""
    if not (SRC / "spinchannel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinchannel sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import spinchannel

    if SRC.resolve() not in Path(spinchannel.__file__).resolve().parents:
        raise SystemExit(f"perfbench: spinchannel was imported from {spinchannel.__file__}, not {SRC}")
    return spinchannel


class SetupSampler:
    """Set-up times of fresh interpreters, taken a few at a time between passes."""

    def __init__(self, args, first: float) -> None:
        self.samples = [first]
        self.command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
        self.command += ["--seed", str(args.seed), "--seconds", "1", "--setup-only"]

    def take(self) -> None:
        proc = subprocess.run(self.command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up run failed:\n{proc.stderr}")
        self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def keep_pace(self, progress: float) -> None:
        """Take samples until their share of SETUP_RUNS is ahead of ``progress``."""
        due = min(SETUP_RUNS, 2 + int((SETUP_RUNS - 1) * progress))
        while len(self.samples) < due:
            self.take()


def host_probe() -> float:
    """Seconds the fixed probe kernel takes now (median of PROBE_REPEATS)."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(PROBE_LOOP):
            total += i * 0.5
        np.linalg.eigh(PROBE_MATRIX)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(workload, budget_s: float, tracer=None, setup: SetupSampler | None = None) -> list[list[tuple]]:
    """Repeat the batch while another pass fits in ``budget_s`` (at least
    MIN_PASSES times); set-up samples taken between passes do not count
    against the budget.  Each pass is a list of (label, seconds, outcome,
    probe seconds), the last the mean of the probes just before and after."""
    passes = []
    spent = 0.0
    last = 0.0
    while len(passes) < MIN_PASSES or spent + last <= budget_s:
        if setup is not None:
            setup.keep_pace(spent / budget_s)
        start = time.perf_counter()
        results = []
        probe_before = host_probe()
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    value = op.call()
                else:
                    with tracer.span(f"op.{op.label}"):
                        value = op.call()
            except Exception:  # a raising op is a failed op; the run goes on
                value = Raised(traceback.format_exc(limit=4))
            t1 = time.perf_counter()
            probe_after = host_probe()
            if not isinstance(value, Raised):
                try:
                    value = op.record(value)
                except Exception:  # e.g. an output file the op did not write
                    value = Raised(traceback.format_exc(limit=4))
            results.append((op.label, t1 - t0, value, (probe_before + probe_after) / 2.0))
            probe_before = probe_after
        last = sum(seconds for _label, seconds, _value, _probe in results)
        spent += time.perf_counter() - start
        passes.append(results)
    if setup is not None:
        setup.keep_pace(1.0)
    return passes


def pass_walls(passes) -> list[float]:
    return [sum(seconds for _label, seconds, _value, _probe in results) for results in passes]


def op_medians(passes, sensitivity: float = 0.0) -> list[float]:
    """Each op's median time over ``passes``, each time scaled to the probe's
    nominal speed with exponent ``sensitivity`` (0: as measured)."""
    return [
        statistics.median(
            seconds * (PROBE_NOMINAL_S / probe) ** sensitivity
            for _label, seconds, _value, probe in (results[i] for results in passes)
        )
        for i in range(len(passes[0]))
    ]


def judge(workload, passes) -> tuple[int, int, checks.Report]:
    """(attempted, failed, report): an execution fails when it raised, when
    its output differs from the op's first output, or when that output
    failed a check."""
    first = {}
    for results in passes:
        for label, _seconds, value, _probe in results:
            if not isinstance(value, Raised):
                first.setdefault(label, value)
    report = checks.evaluate(workload, first)
    attempted = failed = 0
    for results in passes:
        for label, _seconds, value, _probe in results:
            attempted += 1
            if isinstance(value, Raised):
                report.fail(label, value.text.strip().splitlines()[-1])
                failed += 1
            elif value != first[label]:
                report.fail(label, "output differs from the first run of the same op")
                failed += 1
            elif label in report.problems:
                failed += 1
    return attempted, failed, report


def tail(latencies: list[float]):
    """(percentile, value) of the highest percentile with enough samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(latencies) * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct, float(np.percentile(latencies, pct))
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "src_lines": src_lines,
    }


def traced_half(sc, workload, budget_s: float):
    tracer = Tracer()
    modules = {}
    for layer in layers.LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{sc.__name__}.{layer}")
        except ModuleNotFoundError:
            continue  # a layer that no longer exists reports 0
    tracer.install(modules, sc.__name__, layers.HOOKS)
    try:
        passes = run_passes(workload, budget_s, tracer)
    finally:
        tracer.uninstall()
    return tracer, passes


def measure(args, sc, workload, sampler: SetupSampler) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    budget = args.seconds / 2.0 if args.trace else args.seconds
    plain = run_passes(workload, budget, setup=sampler)
    setup = sampler.samples
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    traced = []
    if args.trace:
        tracer, traced = traced_half(sc, workload, budget)
    attempted, failed, report = judge(workload, plain + traced)

    rows = [[seconds for _label, seconds, _value, _probe in results] for results in plain]
    probes = [[probe for _label, _seconds, _value, probe in results] for results in plain]
    latencies = [t for row in rows for t in row]
    per_op = op_medians(plain)
    walls = pass_walls(plain)
    probe_median = statistics.median(p for row in probes for p in row)
    figures = {
        "setup_s": statistics.median(setup) * PROBE_NOMINAL_S / probe_median,
        "wall_s": sum(op_medians(plain, workload.host_sensitivity)),
        "setup_raw_s": statistics.median(setup),
        "wall_raw_s": sum(per_op),
        "host_probe_s": probe_median,
        "op_p50_s": statistics.median(per_op),
        "peak_rss_mb": rss_mb,
        **report.metrics(),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, at the probe's nominal speed",
        "wall_s": (
            f"each of {len(workload.ops)} ops at its median over {len(rows)} passes, "
            f"at the probe's nominal speed with sensitivity {workload.host_sensitivity:g}"
        ),
        "setup_raw_s": "as measured",
        "wall_raw_s": f"as measured; fastest pass {min(walls):.4f} s",
        "host_probe_s": f"median over the ops of the probes around each, nominal {PROBE_NOMINAL_S:g} s",
        "op_p50_s": f"median over the {len(workload.ops)} ops of each one's median",
    }
    problems = {label: sorted(set(messages)) for label, messages in report.problems.items()}
    correct = failed == 0
    if tracer is not None:
        per_layer = layers.figures(tracer.table(), tracer.counters, len(traced))
        overhead = sum(op_medians(traced, workload.host_sensitivity)) - figures["wall_s"]
        per_layer["trace.overhead_s"] = overhead
        trace_problems = [f"hook for {name} failed: {message}" for name, message in tracer.hook_errors.items()]
        # The median traced pass by its top-level spans must match the median
        # untraced pass to within the tracing overhead plus the spread of the
        # pass times of both halves (the host's drift between the halves).
        per_pass = tracer.top_level_durations().reshape(len(traced), len(workload.ops)).sum(axis=1)
        top_level = float(np.median(per_pass))
        untraced = statistics.median(walls)
        everything = walls + pass_walls(traced)
        allowed = abs(overhead) + max(everything) - min(everything)
        if abs(top_level - untraced) > allowed:
            trace_problems.append(
                f"top-level spans cover {top_level:.4f} s per traced pass, an untraced pass takes "
                f"{untraced:.4f} s (allowed difference {allowed:.4f} s)"
            )
        if trace_problems:
            problems["trace"] = trace_problems
            correct = False
        figures["trace.top_level_s_per_pass"] = top_level

    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in figures.items():
        unit = units.get(name) or ("s" if name.endswith("_s") else "")
        shown = "n/a (no window reference affordable)" if value is None else f"{value:.6g} {unit}".rstrip()
        note = notes.get(name)
        print(f"{name} {shown}" + (f"  ({note})" if note else ""))
    pct = tail(latencies)
    if pct is None:
        print(f"op_tail_s n/a ({len(latencies)} ops; p{TAIL_PERCENTILES[-1]:g} needs {TAIL_MIN_BEYOND} beyond it)")
    else:
        print(f"op_tail_s {pct[1]:.6g} s  (p{pct[0]:g} of {len(latencies)} ops)")
    print(f"fail_ratio {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    for label, messages in problems.items():
        for message in messages:
            print(f"FAILED {label}: {message}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    result = {
        "env": env,
        "figures": figures,
        "setup_samples": setup,
        "op_s": rows,
        "probe_s": probes,
        "op_median_s": {f"{i}:{op.label}": t for i, (op, t) in enumerate(zip(workload.ops, per_op))},
        "problems": problems,
    }
    if tracer is not None:
        result["per_layer"] = per_layer
        table = tracer.table()
        lines = ["name\tcalls_per_pass\tself_s_per_pass\ttotal_s_per_pass"]
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
            n = len(traced)
            lines.append(f"{name}\t{row['calls'] / n:.6g}\t{row['self_s'] / n:.6g}\t{row['total_s'] / n:.6g}")
        lines += [f"{name}\t{value:.6g}" for name, value in sorted(per_layer.items())]
        (OUT / f"layers-{stem}.tsv").write_text("\n".join(lines) + "\n")
        tracer.save(OUT / f"spans-{args.workload}.npz")
        print("per-layer (per pass):")
        for name, value in sorted(per_layer.items()):
            print(f"  {name} {value:.6g}")
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    if args.trace:
        declared = spec["per_layer"]
        values = {m["name"]: per_layer.get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: figures[m["name"]] for m in declared}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sc = import_package()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, sc, workdir)
        workload.warmup()
        first_setup = time.perf_counter() - T0 - workload.write_s
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        return measure(args, sc, workload, SetupSampler(args, first_setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
