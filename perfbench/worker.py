"""The measured process: one client, one instance at a time, one thread.

    python3 perfbench/worker.py probe WORKDIR
    python3 perfbench/worker.py timed WORKDIR SECONDS MIN_BLOCKS
    python3 perfbench/worker.py fixed WORKDIR BLOCKS [SPANS_PATH]

WORKDIR holds manifest.json and the DIMACS files that run.py wrote. Every
mode first imports ppszlab from the checkout's src/ and reads all inputs
into memory; that is the set-up a CLI user pays, and `probe` stops there
and prints its duration. `timed` runs whole blocks, cycling through the
corpus, until SECONDS have passed and at least MIN_BLOCKS are done.
`fixed` runs exactly the first BLOCKS blocks, and with SPANS_PATH it
traces them and writes the spans there.

One JSON line goes to stdout per finished instance, flushed at once, so
the parent still has every finished result if it must kill this process.
A last line with "done" carries the run totals.

`timed` also times a fixed reference loop (`reference`) between
instances, about every CALIBRATE_EVERY seconds. Each timing is a line
{"ref", "covered"}, where "covered" is the run time it stands for.
run.py scales the instance times by them, so that a change in the
host's speed cancels out.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALIBRATE_EVERY = 0.5  # seconds of instances between two reference timings
WIDE = (1 << 2048) - 1


def reference() -> float:
    """Seconds for one pass of a fixed loop of wide-integer arithmetic: an
    accumulator that grows to about 6,800 bits and ANDs and shifts of a
    2,048-bit mask, as in the implication index. About 25 ms on the
    machine this was tuned on. Over a run, its time follows the host's
    speed as each workload's instances do (README.md has the figures).

    The loop must run alone: another thread of this process would slow
    it as much as the instances and so hide its own cost. Exits if one
    is found.
    """
    if threading.active_count() > 1:
        sys.exit("reference loop: another thread is running in the worker")
    wall, cpu = time.perf_counter(), time.process_time()
    acc, mask = 0, WIDE ^ 0x5A5A5A5A
    for i in range(40_000):
        acc += i * i ^ (acc >> 3)
        if i % 64 == 0:
            mask = (mask & (mask >> 7)) | ((mask << 1) & WIDE)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if cpu > 1.2 * wall + 0.002:
        sys.exit("reference loop: the worker burns CPU time on another thread")
    return wall


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    mode, workdir = argv[0], argv[1]
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ppszlab.cli

    with open(os.path.join(workdir, "manifest.json")) as handle:
        manifest = json.load(handle)
    blocks = []
    for block in manifest["blocks"]:
        loaded = []
        for entry in block:
            with open(os.path.join(workdir, entry["file"])) as handle:
                loaded.append((handle.read(), entry["argv"]))
        blocks.append(loaded)
    setup_s = time.perf_counter() - start
    if mode == "probe":
        _emit({"setup_s": setup_s, "module": ppszlab.__file__})
        return 0

    from ppszlab import cli, cnf, engine, permutations

    def solve(text: str, options: list[str]) -> tuple[int, str]:
        sys.stdin = io.StringIO(text)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["solve", *options, "-"])
        return code, out.getvalue()

    def exact(text: str, options: list[str]) -> tuple[int, str]:
        formula = cnf.parse_dimacs(text)
        perms = permutations.construct_sigma(formula.variables)
        p_exact = engine.success_probability_exact(formula, perms)
        p_identity = engine.success_probability_via_identity(formula, perms)
        return 0, json.dumps({"exact": str(p_exact), "identity": str(p_identity)}, sort_keys=True)

    call = exact if manifest["kind"] == "exact" else solve
    tracer = None
    if mode == "fixed" and len(argv) > 3:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    if mode == "timed":
        seconds, min_blocks = float(argv[2]), int(argv[3])
    else:
        seconds, min_blocks = 0.0, int(argv[2])
    stdin = sys.stdin
    calibrate = mode == "timed"
    loop_start = last_reference = time.perf_counter()
    done = 0
    serial = 0
    while done < min_blocks or (mode == "timed" and time.perf_counter() - loop_start < seconds):
        for position, (text, options) in enumerate(blocks[done % len(blocks)]):
            span = None
            if tracer is not None:
                tracer.current_instance = serial
                span = tracer.open("instance")
            t0 = time.perf_counter()
            try:
                code, out = call(text, options)
                error = None
            except Exception:
                code, out, error = -1, "", traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
            sys.stdin = stdin
            _emit({"block": done, "pos": position, "s": elapsed, "code": code, "out": out, "error": error})
            serial += 1
            covered = time.perf_counter() - last_reference
            if calibrate and covered >= CALIBRATE_EVERY:
                _emit({"ref": reference(), "covered": covered})
                last_reference = time.perf_counter()
        done += 1
    loop_s = time.perf_counter() - loop_start
    if calibrate:
        _emit({"ref": reference(), "covered": time.perf_counter() - last_reference})
    summary = {
        "done": True,
        "blocks": done,
        "loop_s": loop_s,
        "setup_s": setup_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        summary["layers"] = tracer.totals()
        summary["facts"] = {
            "forced_steps": tracer.forced_steps,
            "guessed_steps": tracer.guessed_steps,
            "walk_successes": tracer.walk_successes,
            "cutoff_hits": tracer.cutoff_hits,
        }
        tracer.write(argv[3])
    _emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
