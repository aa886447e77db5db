"""The cli workload: cold ``python -m strongpoly.cli`` processes, one at a time.

The fifteen commands are the ones whose output the acceptance suite holds
byte-stable across runs and hash seeds.  Each cycle of fifteen instances runs
every command once, in an order drawn from the seed.  This module does not
import strongpoly: the benchmark's own preparation is all its set-up does.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

_MATRIX = json.dumps({"vars": 2, "matrix": [["x1*x2 - 1", "0"], ["x2 - 1", "x1"]]})
_IDEAL = json.dumps({"vars": 2, "generators": ["x1*x2 - x2", "x1^2 - x1"]})

#: (arguments, stdin) of each command; --json is appended to every one.
COMMANDS = [
    (("check-irred", "x1^2 - x2"), None),
    (("check-strong-irred", "1 + x1 - x2"), None),
    (("check-strong-irred", "x1*x2 - 1"), None),
    (("check-coprime", "1 + x1 - x2", "1 + x3", "--vars", "3"), None),
    (("check-vector-coprime", "1 + x1 - x2; 1 + x1", "1 + x3; 1 + x1", "--vars", "3"), None),
    (("gen-family", "--family", "F2", "--k", "1,1,1"), None),
    (("slice-poly", "1 + x1 - x2"), None),
    (("elementary-ideal", "--k", "1", "--stdin"), _MATRIX),
    (("divisorial-hull", "--stdin"), _IDEAL),
    (("torsion-alex", "--braid", "s1 s2^-1 s1 s2^-1", "--strands", "3"), None),
    (("braid-alex", "--braid", "s1 s1 s1", "--strands", "2"), None),
    (("verify-ribbon", "1 + x1 - x2", "--laurent"), None),
    (("blanchfield-witness", "--p", "1 + x1 - x2", "--f", "x1", "--laurent"), None),
    (("reduce-ideal", "--p", "1 + x1 - x2", "--q", "1 + x1*x2", "--gens", "1,3;2,1"), None),
    (("genericity", "--vars", "3", "--degree", "2", "--trials", "20", "--seed", "5"), None),
]
_EXIT_FOR_STATUS = {"PROVED": 0, "REFUTED": 1, "UNDECIDED": 2}


class Cli:
    name = "cli"
    KINDS = tuple(range(len(COMMANDS)))

    def __init__(self, seed: int, src: str, root: str):
        self.seed = seed
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
        # What follows the interpreter: the CLI module, or a traced wrapper.
        self.program = ["-m", "strongpoly.cli"]

    def instance(self, index: int) -> dict:
        cycle, pos = divmod(index, len(COMMANDS))
        order = list(range(len(COMMANDS)))
        random.Random(f"{self.name}:{self.seed}:{cycle}").shuffle(order)
        command = order[pos]
        args, stdin = COMMANDS[command]
        return {"kind": args[0], "command": command, "args": list(args) + ["--json"],
                "stdin": stdin}

    def run(self, inst: dict):
        proc = subprocess.run(
            [sys.executable, *self.program, *inst["args"]], input=inst["stdin"],
            capture_output=True, text=True, env=self.env, cwd=self.root,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def judge(inst: dict, result):
        """(decided, canonical answer, problem or None)."""
        code, stdout, stderr = result
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return False, "", f"exit {code}, no JSON report; stderr: {stderr.strip()[-200:]}"
        report.pop("timing_ms", None)
        canonical = f"{code} " + json.dumps(report, sort_keys=True)
        problem = None
        if code not in (0, 1, 2, 4):
            problem = f"exit code {code} is outside the verdict taxonomy"
        elif report.get("exit_code") != code:
            problem = f"report says exit {report.get('exit_code')}, process exited {code}"
        elif report.get("status") in _EXIT_FOR_STATUS and _EXIT_FOR_STATUS[report["status"]] != code:
            problem = f"status {report['status']} exited with {code}"
        return code in (0, 1), canonical, problem

    @staticmethod
    def work(inst: dict, result) -> dict:
        return {}
