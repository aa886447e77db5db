"""Compare the working tree's ``src/`` with another revision's, same benchmark.

    python3 perfbench/run.py --workload localize --baseline HEAD~1

extracts ``src/`` of the revision with ``git archive`` into a temporary
directory under ``.bench_build/`` (the working tree and ``.git`` are left
alone), then runs the benchmark of the working tree against each source
tree in pairs.  Every run uses ``--seed`` (by default the one with
references, so every answer is checked against them and the held-out seed
stays unused), so the quartiles show run-to-run spread only; the side that
runs first alternates.  It prints each side's median and quartiles per
metric, and how many pairs the working tree won.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from stats import quartiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def extract_src(rev: str) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="baseline-", dir=build))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    return tmp


def run_side(workload: str, seed: int, seconds: float, src: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--src", str(src)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: run on {src} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    if not result["correct"]:
        print(f"perfbench: incorrect answers on {src}", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def compare(rev: str, workload: str, seed: int, seconds: float, pairs: int):
    tmp = extract_src(rev)
    sides = {"tree": ROOT / "src", rev: tmp / "src"}
    runs: dict = {name: [] for name in sides}
    try:
        for k in range(pairs):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for name in order:
                runs[name].append(run_side(workload, seed, seconds, sides[name]))
                print(f"pair {k + 1}/{pairs} {name}: {runs[name][-1]}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower = {m["name"] for m in spec["end_to_end"] if m["better"] == "lower"}
    summary = {}
    print(f"{'metric':18} {'side':10} {'q1':>12} {'median':>12} {'q3':>12}  tree wins")
    for metric in runs["tree"][0]:
        wins = sum((a[metric] < b[metric]) if metric in lower else (a[metric] > b[metric])
                   for a, b in zip(runs["tree"], runs[rev]))
        for name in sides:
            q1, q2, q3 = quartiles([r[metric] for r in runs[name]])
            summary.setdefault(metric, {})[name] = {"q1": q1, "median": q2, "q3": q3}
            tail = f"  {wins}/{pairs}" if name == "tree" else ""
            print(f"{metric:18} {name[:10]:10} {q1:12.4f} {q2:12.4f} {q3:12.4f}{tail}")
        summary[metric]["tree_wins"] = wins
    print(json.dumps({"workload": workload, "baseline": rev, "pairs": pairs,
                      "metrics": summary}))
