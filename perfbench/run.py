"""End-to-end and per-layer benchmark of the ISE toolchain.

Usage (from the repository root)::

    python3 perfbench/run.py --workload toolchain|sweep|batch \\
        --seed N --seconds S --trace 0|1

One run imports the toolchain in three fresh interpreters, sets its
workload up three times, runs one warm-up repetition that is discarded,
then repeats the workload's cold and warm operations until
``--seconds`` have passed.  Every time is normalised to machine speed
by the calibration loop run around it (``calibration.py``) and pooled
over its samples: ``setup_s`` is the import time plus the set-up time,
``cold_s`` and ``warm_s`` the time per operation.  With ``--trace 1``
the first third of the time runs untraced, the rest with the span
wrappers of ``tracing.py`` installed; the run then reports per-layer
self times, counts and the tracing overhead, and writes a Chrome
trace-event file under ``.perfbench/``.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when any op failed its
oracle or the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, calibrate, normalised
from tracing import ROOT, Tracer, install

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
OUT = ROOT_DIR / ".perfbench"

#: Environment knobs of the program that would change what is measured.
PINNED_ENV = ("REPRO_WORKERS", "REPRO_BACKEND", "REPRO_VERIFY",
              "REPRO_STORE", "REPRO_CHAOS_PLAN", "REPRO_STORE_RETRIES")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: ``ise_speedup`` of the toolchain workload at seed 0: the geomean of
#: the committed ``benchmarks/results/BENCH_speedup.json`` rows.
SEED0_ISE_SPEEDUP = 2.504

IMPORTS = ("import time; t = time.perf_counter(); "
           "import repro.session, repro.exec.speedup, "
           "repro.explore.runner, repro.cluster, repro.analysis; "
           "print(time.perf_counter() - t)")

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
              "ise_speedup": "x", "peak_rss_mb": "MB"}

PROGRAMS = ("adpcm-decode", "adpcm-encode", "gsm", "fir", "crc32", "g721",
            "sha", "mixer")

#: Per-layer metrics and their units.  Seconds are self time per
#: repetition (cold plus warm operation); counts are per repetition.
PER_LAYER = {
    "pipeline.prepare_s": "s", "frontend.s": "s", "passes.s": "s",
    "interp.profile_s": "s", "ir.dfg.s": "s", "core.search_s": "s",
    "core.select_s": "s", "explore.plan_s": "s", "core.parallel.map_s": "s",
    "exec.rewrite_s": "s", "exec.measure_s": "s", "interp.compile_s": "s",
    "exec.baseline_run_s": "s", "exec.ise_run_s": "s",
    "interp.batch.reference_s": "s",
    **{f"interp.batch.baseline_s.{p}": "s" for p in PROGRAMS},
    **{f"interp.batch.rewritten_s.{p}": "s" for p in PROGRAMS},
    "store.get_s": "s", "store.put_s": "s", "root.self_s": "s",
    "explore.warm_s": "s", "explore.points_s": "s",
    "explore.warm_units": "count", "explore.cache.hits": "count",
    "explore.cache.misses": "count", "explore.cache.entries": "count",
    "core.parallel.busy_s": "s", "core.parallel.idle_frac": "ratio",
    "core.parallel.max_unit_s": "s",
    "core.cuts_considered": "count", "core.ub_pruned": "count",
    "interp.compile.compiled": "count", "interp.compile.hits": "count",
    "interp.compile.regions": "count", "interp.compile.fallbacks": "count",
    "exec.steps_baseline": "count", "exec.steps_ise": "count",
    "interp.batch.steps_baseline": "count",
    "interp.batch.steps_rewritten": "count", "exec.afu_evals": "count",
    "store.hits": "count", "store.misses": "count", "store.puts": "count",
    "store.bytes": "B",
    "trace.traced_s": "s", "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


#: Size offsets, in sixteenths of a program's default size, that every
#: seed but 0 deals out to the eight programs.  Balanced, so a seed
#: changes which programs run larger rather than how much work a run
#: does (timings are compared across seeds).
OFFSETS = (-1, -1, -1, 0, 0, 1, 1, 1)


def draw_sizes(seed: int, defaults: dict) -> dict:
    """Each program's input size: its default at seed 0, otherwise its
    default moved by a shuffled :data:`OFFSETS` entry."""
    if seed == 0:
        return {program: defaults[program] for program in PROGRAMS}
    offsets = list(OFFSETS)
    random.Random(seed).shuffle(offsets)
    return {program: defaults[program] + k * (defaults[program] // 16)
            for program, k in zip(PROGRAMS, offsets)}


def calibrated(step, times: int = SETUPS) -> dict:
    """Wall and calibration seconds of *times* calls of *step* (each
    returning its own wall seconds), calibrating around each call."""
    samples = {"wall": [], "cal": []}
    before = calibrate()
    for _ in range(times):
        samples["wall"].append(step())
        after = calibrate()
        samples["cal"].append((before + after) / 2)
        before = after
    return samples


def steady(wall, cal) -> float:
    """Normalised seconds per operation over a run: total wall seconds
    over total calibration seconds.  Pooling the whole run averages out
    the noise of each short calibration loop, which a median of
    per-operation ratios keeps."""
    return normalised(sum(wall), sum(cal))


def import_once() -> float:
    """Import time of the toolchain in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORTS],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT_DIR, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def op_s(sample: dict, name: str) -> float:
    """Normalised seconds of one timed operation of a repetition."""
    return normalised(sample[name], sample["cal"][name])


def both_s(sample: dict) -> float:
    return op_s(sample, "cold_s") + op_s(sample, "warm_s")


def stamp(args, workload, sizes) -> dict:
    """Environment of the run, recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workload": workload.name, "workers": workload.workers,
        "sizes": sizes, "lanes": getattr(workload, "lanes", None),
        "warmup": "one repetition discarded, not counted in setup_s",
    }


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git;
    ``None`` outside a git work tree."""
    head = ROOT_DIR / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT_DIR / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def repeat(workload, seconds: float, samples: list, tracer=None) -> None:
    """Run repetitions until *seconds* have passed (at least one); under
    a tracer each repetition gets its own self-time table and counts."""
    deadline = time.perf_counter() + seconds
    while True:
        first = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.counts.clear()
        sample = workload.rep(tracer)
        if tracer is not None:
            sample["self"] = tracer.self_times(first)
            sample["counts"] = dict(tracer.counts)
        samples.append(sample)
        if time.perf_counter() >= deadline:
            return


def layer_metrics(traced: list, untraced: list) -> dict:
    """Median per-layer values over the traced repetitions."""
    values = {name: [] for name in PER_LAYER}
    for sample in traced:
        row = dict.fromkeys(PER_LAYER, 0.0)
        row.update(sample["self"])
        row["root.self_s"] = sample["self"].get(ROOT, 0.0)
        row.update(sample["layers"])
        row.update(sample["counts"])
        cal = statistics.mean(sample["cal"].values())
        for name, unit in PER_LAYER.items():
            values[name].append(normalised(row[name], cal) if unit == "s"
                                else row[name])
    metrics = {name: statistics.median(vals) for name, vals in values.items()}
    traced_s = statistics.median(both_s(s) for s in traced)
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = (
        traced_s / statistics.median(both_s(s) for s in untraced) - 1.0)
    metrics["trace.coverage"] = statistics.median(
        1.0 - s["self"].get(ROOT, 0.0) / (s["cold_s"] + s["warm_s"])
        for s in traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("toolchain", "sweep", "batch"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no toolchain sources under {SRC}",
              file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import scenarios
    from repro.workloads.registry import get_workload

    defaults = {p: get_workload(p).default_n for p in PROGRAMS}
    sizes = draw_sizes(args.seed, defaults)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return run(args, scenarios, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, scenarios, sizes, workdir) -> int:
    workloads = []

    def set_up() -> float:
        workloads.append(scenarios.WORKLOADS[args.workload](sizes,
                                                             str(workdir)))
        start = time.perf_counter()
        workloads[-1].setup()
        return time.perf_counter() - start

    setups = calibrated(set_up)
    imports = calibrated(import_once)
    setup_s = (steady(imports["wall"], imports["cal"])
               + steady(setups["wall"], setups["cal"]))
    workload = workloads[-1]

    samples = [workload.rep(None)]          # warm-up, discarded
    untraced, traced = [], []
    tracer = Tracer()
    if args.trace:
        repeat(workload, args.seconds / 3, untraced)
        install(tracer)
        try:
            repeat(workload, args.seconds * 2 / 3, traced, tracer)
        finally:
            tracer.uninstall()
    else:
        repeat(workload, args.seconds, untraced)
    samples += untraced + traced

    verdict = workload.check(len(samples))
    notes = sorted({n for s in samples for n in s["notes"]})
    notes += verdict["notes"]
    attempted = sum(s["attempted"] for s in samples)
    failed = min(attempted, sum(s["failed"] for s in samples)
                 + verdict["failed"])
    ise = statistics.median(s["ise_speedup"] for s in untraced)
    if (args.workload == "toolchain" and args.seed == 0
            and round(ise, 3) != SEED0_ISE_SPEEDUP):
        notes.append(f"ise_speedup {ise:.4f} at seed 0, expected "
                     f"{SEED0_ISE_SPEEDUP}")
        failed = attempted
    correct = failed == 0 and not notes

    end_to_end = {
        "setup_s": setup_s,
        **{name: steady([s[name] for s in untraced],
                        [s["cal"][name] for s in untraced])
           for name in ("cold_s", "warm_s")},
        "ise_speedup": ise,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    env = stamp(args, workload, sizes)
    wall = {name: statistics.median(s[name] for s in untraced)
            for name in ("cold_s", "warm_s")}
    record = {"env": env, "end_to_end": end_to_end, "wall": wall,
              "reference_s": REFERENCE_S, "setup_samples": setups,
              "import_samples": imports, "notes": notes,
              "attempted": attempted, "failed": failed,
              "samples": [{k: v for k, v in s.items() if k != "notes"}
                          for s in samples]}

    print(f"env: python {env['python']}, nproc {env['nproc']}, git "
          f"{env['git_sha']}, seed {args.seed}, workers {env['workers']}, "
          f"sizes {sizes}" + (f", lanes {env['lanes']}"
                              if env["lanes"] else ""))
    print(f"{len(untraced)} untraced and {len(traced)} traced "
          f"repetition(s) after one discarded warm-up")
    for name, value in end_to_end.items():
        raw = f" ({wall[name]:.6g} s wall)" if name in wall else ""
        print(f"  {name:<28} {value:12.6g} {END_TO_END[name]}{raw}")
    print(f"  {'failed_frac':<28} {failed / max(attempted, 1):12.6g} "
          f"ratio ({failed} of {attempted} ops)")
    print_derived(args.workload, untraced, end_to_end["cold_s"])
    for note in notes:
        print(f"  FAILED: {note}")

    if args.trace:
        layers = layer_metrics(traced, untraced)
        record["per_layer"] = layers
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(str(path), env)
        print(f"per-layer self time and counts (median of {len(traced)} "
              f"traced repetitions; Chrome trace in {path.name}):")
        for name, value in layers.items():
            print(f"  {name:<36} {value:14.6g} {PER_LAYER[name]}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    result.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_derived(name: str, measured: list, cold_s: float) -> None:
    """The workload's own throughput figures, by name and unit."""
    from scenarios import geomean

    if name == "sweep":
        points = 256 / cold_s
        print(f"  {'points_per_s':<28} {points:12.6g} 1/s")
    if name == "batch":
        programs = measured[0]["per_program"]
        for index, label in enumerate(("baseline", "rewritten")):
            rates = [statistics.median(
                s["per_program"][p][index] * s["cal"]["warm_s"] / REFERENCE_S
                for s in measured) for p in programs]
            print(f"  {label + '_inputs_per_s':<28} "
                  f"{geomean(rates):12.6g} 1/s (geomean of "
                  + ", ".join(f"{p} {r:.4g}" for p, r in
                              zip(programs, rates)) + ")")


if __name__ == "__main__":
    sys.exit(main())
