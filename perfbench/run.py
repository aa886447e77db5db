#!/usr/bin/env python3
"""Benchmark runner for strongpoly: seeded workloads, closed loop, one caller.

    python3 perfbench/run.py --workload strong-irred --seed 1 --seconds 25 --trace 0

runs one workload from the root of a checkout, checks every answer, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` a fixed number of instances runs
untraced and then traced, and the metrics are the per-layer ones.
``--baseline <rev>`` compares the working tree's ``src/`` with another
revision's; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from speed import Speed, pin_to_one_cpu  # noqa: E402
from stats import percentile, samples_beyond  # noqa: E402

WORKLOADS = ("strong-irred", "localize", "alexander", "cli")
#: The seed the committed references were recorded with.
DEFAULT_SEED = 1
#: A seed kept out of development: a claimed gain must also hold on it.
HELDOUT_SEED = 2
#: Every run completes at least this many instances, so p90 has at least
#: ten samples beyond it.
MIN_INSTANCES = 100
#: Wall-clock cap on one instance; an instance that hits it has failed.
INSTANCE_CAP_S = 30.0
#: No instance starts after this many seconds, whatever the count.
HARD_STOP_S = 120.0
#: Set-up is timed this many times in fresh processes; the median is reported.
SETUP_REPEATS = 7
#: Calibration samples taken before each set-up process and before the timed loop.
SPEED_SAMPLES = 15
#: A traced run covers this many cycles of instance kinds, untraced and traced.
TRACE_CYCLES = {"strong-irred": 3, "localize": 5, "alexander": 20, "cli": 2}
#: Instances of the default seed with a recorded reference answer: about five
#: times what a run of 25 s completes at the commit that recorded them.
REFERENCE_COUNTS = {"strong-irred": 1800, "localize": 3000, "alexander": 12000, "cli": 15}
#: Pairs of runs, one on each source tree, that ``--baseline`` makes.
BASELINE_PAIRS = 10
REFERENCES = BENCH / "references"
OUT = ROOT / ".bench_out"


class InstanceTimeout(BaseException):
    """Raised by the per-instance alarm; not an Exception, so library code
    that catches errors cannot swallow it."""


def _alarm(signum, frame):
    raise InstanceTimeout()


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_workload(name: str, seed: int, src: Path):
    if name == "cli":
        from clirun import Cli

        return Cli(seed, str(src), str(ROOT))
    sys.path.insert(0, str(src))
    import strongpoly

    if Path(strongpoly.__file__).resolve().parent != (src / "strongpoly").resolve():
        fail(f"imported strongpoly from {strongpoly.__file__}, not from {src}")
    import algebra

    return algebra.WORKLOADS[name](seed)


def budget_errors(workload) -> tuple:
    if workload.name == "cli":
        return ()
    import algebra

    return (algebra.BudgetExceeded,)


# -- references ---------------------------------------------------------------


def digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def load_references(name: str, seed: int) -> list:
    """Reference answers as "D:<digest>" (decided) or "U:<digest>" (undecided);
    empty for a seed without references.  The cli commands do not depend on
    the seed, so their references, indexed by command, hold for every seed."""
    path = REFERENCES / f"{name}.json"
    data = json.loads(path.read_text())
    if name != "cli" and data["seed"] != seed:
        return []
    return data["answers"]


def reference_key(index: int, inst: dict) -> int:
    """Position of an instance's reference: its index, or its cli command."""
    return inst.get("command", index)


# -- the closed loop ----------------------------------------------------------


def run_instance(workload, inst: dict, errors: tuple):
    """Run one instance under the cap: (latency_s, kind of outcome, result)."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_CAP_S)
    try:
        result = workload.run(inst)
        outcome = "ok"
    except InstanceTimeout:
        result, outcome = f"hit the {INSTANCE_CAP_S:.0f} s cap", "failed"
    except errors as exc:
        result, outcome = str(exc), "undecided"
    except Exception as exc:  # an unexpected error fails the instance, not the run
        result, outcome = f"{type(exc).__name__}: {exc}", "failed"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, outcome, result


def run_loop(workload, refs: list, stop, collect=None, during=None, speed=None) -> list[dict]:
    """Run instances 0, 1, 2, ... until ``stop(count, elapsed)`` holds.

    Each record holds the latency, the state ("decided", "undecided" or
    "failed"), the canonical answer, the reference key and whether a
    reference answer exists; failures are reported on stderr.
    ``during(index)`` is a context manager entered around the instance's
    run only, not its checks.  ``collect(index, inst, result)`` runs after
    each instance that passed its checks; a string it returns is a further
    problem that fails the instance.  ``speed``, a ``speed.Speed``, samples
    the machine's speed between instances.
    """
    errors = budget_errors(workload)
    during = during or (lambda index: contextlib.nullcontext())
    records = []
    start = time.perf_counter()
    while not stop(len(records), time.perf_counter() - start):
        index = len(records)
        inst = workload.instance(index)
        key = reference_key(index, inst)
        ref = refs[key] if key < len(refs) else None
        with during(index):
            latency, outcome, result = run_instance(workload, inst, errors)
        canonical, problem = "", None
        if outcome == "ok":
            try:
                decided, canonical, problem = workload.judge(inst, result)
            except Exception as exc:
                decided, problem = False, f"judging raised {type(exc).__name__}: {exc}"
            state = "decided" if decided else "undecided"
        elif outcome == "undecided":
            state, canonical = "undecided", f"budget: {result}"
        else:
            state, problem = "failed", result
        # Budgets are counts, not times, so a reference that was decided
        # must stay decided, and with the same answer.
        if problem is None and ref is not None and ref.startswith("D:"):
            if state == "undecided":
                problem = "decided in the reference, undecided now"
            elif digest(canonical) != ref[2:]:
                problem = "decided answer differs from the reference"
        if problem is None and outcome == "ok" and collect is not None:
            problem = collect(index, inst, result)
        if problem:
            state = "failed"
            print(f"perfbench: instance {index} ({inst['kind']}) failed: {problem}",
                  file=sys.stderr)
        records.append({"latency": latency, "state": state, "answer": canonical, "key": key,
                        "referenced": ref is not None})
        if speed is not None:
            speed.maybe_sample()
    return records


def timed_stop(seconds: float, cycle: int):
    """Stop after ``seconds`` at the end of a whole cycle of instance kinds,
    so every run holds the same mix."""
    def stop(count, elapsed):
        if elapsed >= HARD_STOP_S:
            return count >= 1
        return elapsed >= seconds and count >= MIN_INSTANCES and count % cycle == 0
    return stop


def count_stop(n: int):
    return lambda count, elapsed: count >= n


# -- measurements ---------------------------------------------------------------


def run_checked(argv, env=None) -> str:
    """Standard output of a command that must succeed."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"{' '.join(argv[:4])} ... exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def time_processes(argv, repeats: int, env=None) -> list[float]:
    """Wall time of each of ``repeats`` runs of a command, one after another."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_checked(argv, env)
        out.append(time.perf_counter() - start)
    return out


def setup_seconds(name: str, seed: int, src: Path) -> float:
    """Median time from process start to the first instance being ready, each
    at the reference speed measured just before it."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--src", str(src), "--setup-only"]
    scaled = []
    for _ in range(SETUP_REPEATS):
        speed = Speed()
        speed.sample(SPEED_SAMPLES)
        [wall] = time_processes(argv, 1)
        scaled.append(wall * speed.scale())
    return statistics.median(scaled)


def peak_rss_mib(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(name: str, seed: int, seconds: float, src: Path) -> dict:
    setup_s = setup_seconds(name, seed, src)
    workload = load_workload(name, seed, src)
    refs = load_references(name, seed)
    speed = Speed()
    speed.sample(SPEED_SAMPLES)
    records = run_loop(workload, refs, timed_stop(seconds, len(workload.KINDS)), speed=speed)
    rss = peak_rss_mib(name)
    wall = [r["latency"] for r in records]
    scale = speed.scale()
    latencies = [t * scale for t in wall]
    n = len(records)
    failed = sum(r["state"] == "failed" for r in records)
    decided = sum(r["state"] == "decided" for r in records)
    unreferenced = sum(not r["referenced"] for r in records)
    if refs and unreferenced:
        print(f"perfbench: {unreferenced} instances ran past the {len(refs)} references "
              f"and were checked by the self-checks only", file=sys.stderr)
    print(f"{name} seed {seed}: {n} instances in {sum(wall):.2f} s of calls, "
          f"{failed} failed, {decided} decided, {n - unreferenced} checked against "
          f"references; p90 has {samples_beyond(n, 90)} samples beyond it")
    print(f"{name} seed {seed}: timings at the reference speed are wall times x{scale:.3f} "
          f"({len(speed.samples)} calibration samples); wall time: "
          f"{n / sum(wall):.4g} instances/s, "
          f"p50 {percentile(wall, 50) * 1000:.4g} ms, p90 {percentile(wall, 90) * 1000:.4g} ms")
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1000.0, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1000.0, "ms"),
        "success_ratio": ((n - failed) / n, "ratio"),
        "decided_ratio": (decided / n, "ratio"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


# -- the traced run -------------------------------------------------------------


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def traced(name: str, seed: int, src: Path) -> dict:
    import tracer

    workload = load_workload(name, seed, src)
    refs = load_references(name, seed)
    n = TRACE_CYCLES[name] * len(workload.KINDS)
    extra = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.handler_ms": 0.0}
    handler_ms = []
    raws = []

    if name == "cli":
        def plain_collect(index, inst, result):
            handler_ms.append(json.loads(result[1])["timing_ms"])

        def traced_collect(index, inst, result):
            line = result[2].rstrip("\n").rsplit("\n", 1)[-1]
            if not line.startswith(tracer.TRACE_MARK):
                return f"no trace totals from the CLI: {result[2][-300:]}"
            raws.append(json.loads(line[len(tracer.TRACE_MARK):]))
            return None

        plain = run_loop(workload, refs, count_stop(n), plain_collect)
        workload.program = [str(BENCH / "traced_cli.py")]
        traced_records = run_loop(workload, refs, count_stop(n), traced_collect)
        raw = tracer.merge_raw(raws)
        env = dict(os.environ, PYTHONPATH=str(src))
        extra["cli.interpreter_s"] = statistics.median(
            time_processes([sys.executable, "-c", "pass"], SETUP_REPEATS))
        probe = ("import time; t = time.perf_counter(); import strongpoly.cli; "
                 "print(time.perf_counter() - t)")
        extra["cli.import_s"] = statistics.median(
            [float(run_checked([sys.executable, "-c", probe], env)) for _ in range(SETUP_REPEATS)])
        extra["cli.handler_ms"] = statistics.median(handler_ms)
        spans = []
    else:
        import strongpoly

        plain = run_loop(workload, refs, count_stop(n))
        recorder = tracer.Recorder()

        def traced_collect(index, inst, result):
            for counter, value in workload.work(inst, result).items():
                recorder.count(counter, value)

        @contextlib.contextmanager
        def recording(index):
            # Installed around the program's run only: the benchmark's own
            # checks and counters are not program work.
            recorder.instance = index
            uninstall = tracer.install(recorder, strongpoly)
            try:
                yield
            finally:
                uninstall()

        traced_records = run_loop(workload, refs, count_stop(n), traced_collect, recording)
        raw = recorder.raw()
        spans = recorder.spans

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "instances": n,
         "span_fields": ["name", "start", "end", "parent", "folded_s", "instance"],
         "spans": spans, **raw}))

    same = [(r["state"], r["answer"]) for r in plain] == \
        [(r["state"], r["answer"]) for r in traced_records]
    if not same:
        print("perfbench: traced answers differ from untraced ones", file=sys.stderr)
    failed = sum("failed" in (a["state"], b["state"]) for a, b in zip(plain, traced_records))
    values = tracer.layer_metrics(raw)
    values.update(extra)
    values["trace.overhead_ratio"] = (sum(r["latency"] for r in traced_records)
                                      / sum(r["latency"] for r in plain))
    print(f"{name} seed {seed}: {n} instances untraced then traced, "
          f"overhead x{values['trace.overhead_ratio']:.2f}, answers identical: {same}")
    metrics = {k: (v, _unit(k)) for k, v in sorted(values.items())}
    return {"correct": same and failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


# -- references and entry point ---------------------------------------------------


def record_references(name: str, src: Path):
    """Run the default seed's first instances and store their answers."""
    workload = load_workload(name, DEFAULT_SEED, src)
    records = run_loop(workload, [], count_stop(REFERENCE_COUNTS[name]))
    if any(r["state"] == "failed" for r in records):
        fail("an instance failed; references not written")
    answers = [None] * (1 + max(r["key"] for r in records))
    for r in records:
        answers[r["key"]] = ("D:" if r["state"] == "decided" else "U:") + digest(r["answer"])
    REFERENCES.mkdir(exist_ok=True)
    path = REFERENCES / f"{name}.json"
    path.write_text(json.dumps({"workload": name, "seed": DEFAULT_SEED, "answers": answers},
                               indent=0) + "\n")
    print(f"wrote {len(answers)} references to {path.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}, the one with references; "
                         f"keep {HELDOUT_SEED} for checking a claimed gain)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="strongpoly source tree to measure (default: ./src)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, make the first instance and exit (times set-up)")
    ap.add_argument("--record-references", action="store_true",
                    help=f"store the answers of seed {DEFAULT_SEED} as references")
    ap.add_argument("--baseline", metavar="REV",
                    help=f"compare ./src with REV's src/ in {BASELINE_PAIRS} alternating "
                         "pairs of runs")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not (src / "strongpoly" / "__init__.py").is_file():
        fail(f"no strongpoly sources under {src}")
    signal.signal(signal.SIGALRM, _alarm)
    pin_to_one_cpu()

    if args.setup_only:
        workload = load_workload(args.workload, args.seed, src)
        load_references(args.workload, args.seed)
        workload.instance(0)
        return
    if args.record_references:
        record_references(args.workload, src)
        return
    if args.baseline:
        import baseline

        baseline.compare(args.baseline, args.workload, args.seed, args.seconds, BASELINE_PAIRS)
        return
    if args.trace:
        result = traced(args.workload, args.seed, src)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, src)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
