"""Benchmark for ppszlab: seeded workloads, checked answers, layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ppszlab is imported from its src/.
NAME is one of general-mixed, unique-rounds, exact-prob and
randomized-tau4, or `all` for a table of every workload.

--trace 0 measures the end-to-end metrics: it generates the seed's
corpus, times fresh `import ppszlab` plus input loading in separate
processes, then runs whole blocks in one worker process until S seconds
have passed and the workload's trace blocks are done. Instance times are
scaled by a reference loop timed in the same worker (see _speed_factor).
--trace 1 runs the workload's fixed trace blocks twice, in two fresh
workers, once plain and once with spans installed, and reports the
per-layer metrics; the spans are written to
.perfbench/spans/NAME-seedN.tsv.gz. Every answer is checked in both
modes. A worker that outlives its time cap is killed and every
instance it still owed counts as failed.

The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}. A line before it carries the sample counts, the
median instance time, the tail percentile and the samples beyond it,
failed_frac and the behaviour fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9  # split before and after the timed worker
TIMED_CAP_SLACK = 90.0  # a timed worker is killed at --seconds plus this
PLAIN_PASS_CAP = 40.0  # trace mode: the untraced pass of the trace blocks
TRACED_PASS_CAP = 100.0  # trace mode: the same blocks with spans installed
# Reported times are scaled to a machine on which worker.reference() takes
# this long (about its time on the 2-vCPU machine this was tuned on).
NOMINAL_REFERENCE_S = 0.025

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ips": "1/s",
    "instance_s_tail": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric: (unit, span name, field of the span totals)
SPAN_METRICS = {
    "cnf.parse_s": ("s", "cnf.parse", "busy_s"),
    "cnf.restrict_calls": ("count", "cnf.restrict", "calls"),
    "cnf.restrict_s": ("s", "cnf.restrict", "busy_s"),
    "oracle.enumerate_calls": ("count", "oracle.enumerate", "calls"),
    "oracle.enumerate_s": ("s", "oracle.enumerate", "busy_s"),
    "permutations.construct_calls": ("count", "permutations.construct", "calls"),
    "permutations.construct_s": ("s", "permutations.construct", "busy_s"),
    "permutations.materialize_s": ("s", "permutations.materialize", "busy_s"),
    "implication.index_builds": ("count", "implication.index_build", "calls"),
    "implication.index_build_s": ("s", "implication.index_build", "busy_s"),
    "engine.walks": ("count", "engine.walk", "calls"),
    "engine.walk_s": ("s", "engine.walk", "busy_s"),
    "engine.walk_self_s": ("s", "engine.walk", "self_s"),
    "unique.dppsz_calls": ("count", "unique.dppsz", "calls"),
    "unique.dppsz_s": ("s", "unique.dppsz", "busy_s"),
    "analysis.lambda_k_calls": ("count", "analysis.lambda_k", "calls"),
    "analysis.lambda_k_s": ("s", "analysis.lambda_k", "busy_s"),
}
OTHER_LAYER_UNITS = {
    "implication.lookups": "count",
    "implication.sweeps": "count",
    "implication.memo_hit_ratio": "ratio",
    "implication.sweep_s": "s",
    "implication.hit_s": "s",
    "engine.forced_steps": "count",
    "engine.guessed_steps": "count",
    "engine.walk_success_ratio": "ratio",
    "unique.cutoff_hits": "count",
    "general.restrictions_tried": "count",
    "general.restrictions_skipped": "count",
    "general.modify_calls": "count",
    "trace.overhead_frac": "ratio",
}
PER_LAYER_UNITS = {name: spec[0] for name, spec in SPAN_METRICS.items()} | OTHER_LAYER_UNITS


class BenchError(RuntimeError):
    """The benchmark itself cannot run here."""


def _worker(args: list[str], cap: float) -> tuple[list[dict], list[dict], dict | None]:
    """Run one worker to completion or to its cap. Returns its instance
    records, its reference-loop timings and its closing summary (None if
    it did not finish)."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, capture_output=True, timeout=cap
        )
        stdout, code = proc.stdout, proc.returncode
        if code != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        stdout, code = exc.stdout or b"", None
        sys.stderr.write(f"worker killed at its {cap:.0f} s cap\n")
    records, references, summary = [], [], None
    for line in stdout.decode(errors="replace").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # a line cut short by the kill
        if record.get("done"):
            summary = record
        elif "ref" in record:
            references.append(record)
        else:
            records.append(record)
    return records, references, summary if code == 0 else None


def _speed_factor(references: list[dict]) -> float:
    """NOMINAL_REFERENCE_S over the reference loop's time, averaged over
    the stretch of run each timing stands for. Multiplying a measured time
    by it gives the time at the nominal machine speed."""
    if not references:
        return 1.0  # the worker died before its first timing; the run has failed
    covered = sum(r["covered"] for r in references)
    mean = sum(r["ref"] * r["covered"] for r in references) / covered
    return NOMINAL_REFERENCE_S / mean


def _write_corpus(workdir: str, kind: str, corpus) -> None:
    blocks = []
    for b, block in enumerate(corpus):
        entries = []
        for pos, instance in enumerate(block):
            name = f"b{b:03d}-{pos:02d}.cnf"
            with open(os.path.join(workdir, name), "w") as handle:
                handle.write(instance.dimacs)
            entries.append({"file": name, "argv": list(instance.argv)})
        blocks.append(entries)
    with open(os.path.join(workdir, "manifest.json"), "w") as handle:
        json.dump({"kind": kind, "blocks": blocks}, handle)


def _setup_seconds(workdir: str, probes: int) -> list[float]:
    samples = []
    for _ in range(probes):
        records, _, _ = _worker(["probe", workdir], cap=60.0)
        if not records:
            raise BenchError("set-up probe failed")
        if not os.path.abspath(records[0]["module"]).startswith(SRC + os.sep):
            raise BenchError(f"ppszlab was imported from {records[0]['module']}, not {SRC}")
        samples.append(records[0]["setup_s"])
    return samples


def _judge(workload, corpus, records, summary, owed: int) -> dict:
    """Check every record; count owed-but-missing instances as failed."""
    from workloads import check, fingerprint

    failures = []
    for record in records:
        instance = corpus[record["block"] % len(corpus)][record["pos"]]
        if record["code"] == -1:
            why = "exception: " + record["error"].strip().splitlines()[-1]
        else:
            why = check(instance, workload.kind, record["code"], record["out"])
        if why is not None:
            failures.append(f"block {record['block']} pos {record['pos']}: {why}")
    unfinished = 0 if summary is not None else max(1, owed - len(records))
    attempted = len(records) + unfinished
    for message in failures[:5]:
        sys.stderr.write(f"{workload.name}: wrong answer, {message}\n")
    fingerprinted = [
        r["out"] for r in records if r["block"] < workload.trace_blocks and r["code"] != -1
    ]
    return {
        "attempted": attempted,
        "failed": len(failures) + unfinished,
        "fingerprint": fingerprint(fingerprinted),
    }


def _tail(samples: list[float], percentile: int) -> tuple[float, int]:
    """The percentile of the samples, and how many samples lie above it."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, len(ordered) * percentile // 100)
    return ordered[index], len(ordered) - index - 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(workload, seed: int, seconds: float, tiny: bool = False, corrupt=None) -> dict:
    from workloads import generate

    corpus = generate(workload, seed, 2 if tiny else workload.corpus_blocks, tiny)
    min_blocks = 2 if tiny else workload.trace_blocks
    workdir = _workdir(workload, seed)
    try:
        _write_corpus(workdir, workload.kind, corpus)
        # Probes on both sides of the timed run sample two stretches of
        # machine load, so one slow stretch cannot set the median alone.
        setup = _setup_seconds(workdir, SETUP_PROBES // 2 + 1)
        records, references, summary = _worker(
            ["timed", workdir, repr(seconds), str(min_blocks)], cap=seconds + TIMED_CAP_SLACK
        )
        setup += _setup_seconds(workdir, SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if corrupt is not None:
        corrupt(records)
    owed = min_blocks * len(corpus[0])
    verdict = _judge(workload, corpus, records, summary, owed)
    measured = [r["s"] for r in records]
    if not measured:
        raise BenchError(f"{workload.name}: no instance finished")
    # The host's speed drifts by a fifth over minutes; the reference loop,
    # timed between instances, drifts with it, and scaling by it cancels
    # the drift (see README.md). A run is whole blocks of one fixed mix, so
    # the mean over all of them is the steadiest estimate across seeds; the
    # tail's fixed percentile falls inside a class of like-cost instances.
    factor = _speed_factor(references)
    samples = [s * factor for s in measured]
    tail, beyond = _tail(samples, workload.tail_percentile)
    peak_kb = summary["peak_rss_kb"] if summary else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "throughput_ips": len(samples) / sum(samples),
        "instance_s_tail": tail,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    verdict["metrics"] = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    verdict["detail"] = {
        "samples": len(samples),
        # reported but not gated
        "instance_s_p50": statistics.median(samples),
        "tail_percentile": workload.tail_percentile,
        "tail_beyond": beyond,
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "blocks": summary["blocks"] if summary else None,
        "setup_samples": len(setup),
        "speed_factor": factor,
        "references": len(references),
        "measured": {
            "throughput_ips": len(measured) / sum(measured),
            "instance_s_tail": _tail(measured, workload.tail_percentile)[0],
            "instance_s_p50": statistics.median(measured),
        },
    }
    return verdict


def run_traced(workload, seed: int, tiny: bool = False) -> dict:
    from workloads import generate

    blocks = 1 if tiny else workload.trace_blocks
    corpus = generate(workload, seed, blocks, tiny)
    workdir = _workdir(workload, seed)
    spans_path = os.path.join(OUT_DIR, "spans", f"{workload.name}-seed{seed}.tsv.gz")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    try:
        _write_corpus(workdir, workload.kind, corpus)
        plain, _, plain_summary = _worker(["fixed", workdir, str(blocks)], cap=PLAIN_PASS_CAP)
        traced, _, summary = _worker(["fixed", workdir, str(blocks), spans_path], cap=TRACED_PASS_CAP)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    owed = blocks * len(corpus[0])
    first = _judge(workload, corpus, plain, plain_summary, owed)
    verdict = _judge(workload, corpus, traced, summary, owed)
    verdict["attempted"] += first["attempted"]
    verdict["failed"] += first["failed"]
    if first["fingerprint"] != verdict["fingerprint"]:
        sys.stderr.write(f"{workload.name}: tracing changed the canonical outputs\n")
        verdict["failed"] += 1
    if summary is None or not plain:
        raise BenchError(f"{workload.name}: traced pass did not finish")
    layers, facts = summary["layers"], summary["facts"]

    def total(span: str, field: str):
        return layers.get(span, {}).get(field, 0)

    values = {name: total(span, field) for name, (_, span, field) in SPAN_METRICS.items()}
    lookups = sum(row["lookups"] for row in layers.values())
    sweeps = sum(row["sweeps"] for row in layers.values())
    walks = total("engine.walk", "calls")
    outputs = [json.loads(r["out"]) for r in traced if r["code"] != -1]
    general_outputs = [p for p in outputs if p.get("mode") == "general"]
    values.update(
        {
            "implication.lookups": lookups,
            "implication.sweeps": sweeps,
            "implication.memo_hit_ratio": 1.0 - sweeps / lookups if lookups else 0.0,
            "implication.sweep_s": sum(row["sweep_s"] for row in layers.values()),
            "implication.hit_s": sum(row["hit_s"] for row in layers.values()),
            "engine.forced_steps": facts["forced_steps"],
            "engine.guessed_steps": facts["guessed_steps"],
            "engine.walk_success_ratio": facts["walk_successes"] / walks if walks else 0.0,
            "unique.cutoff_hits": facts["cutoff_hits"],
            "general.restrictions_tried": sum(p["restrictions_tried"] for p in general_outputs),
            "general.restrictions_skipped": sum(p["restrictions_skipped"] for p in general_outputs),
            "general.modify_calls": sum(p["modify_calls"] for p in general_outputs),
            "trace.overhead_frac": sum(r["s"] for r in traced) / sum(r["s"] for r in plain) - 1.0,
        }
    )
    verdict["metrics"] = {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    instance_s = total("instance", "busy_s")
    verdict["detail"] = {
        "samples": len(traced),
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "spans": spans_path,
        "share_of_instance_time": {
            name: values[name] / instance_s for name, unit in PER_LAYER_UNITS.items() if unit == "s"
        },
    }
    return verdict


def _workdir(workload, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=OUT_DIR)


def _result_line(verdict: dict) -> str:
    return json.dumps(
        {
            "correct": verdict["failed"] == 0,
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": verdict["metrics"],
        },
        sort_keys=True,
    )


def _table(name: str, verdict: dict) -> list[str]:
    samples = verdict["detail"]["samples"]
    rows = [f"{name}: {samples} samples, failed {verdict['failed']}/{verdict['attempted']}"]
    for metric, entry in verdict["metrics"].items():
        rows.append(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
    rows.append(f"  {'failed_frac':32s} {verdict['detail']['failed_frac']:>14.6g} ratio"
                f" (base {verdict['attempted']} attempted)")
    if "tail_percentile" in verdict["detail"]:
        rows.append(f"  {'instance_s_p50':32s} {verdict['detail']['instance_s_p50']:>14.6g} s")
        rows.append(f"  {'instance_s_tail percentile':32s} {verdict['detail']['tail_percentile']:>14.4g} %"
                    f" ({verdict['detail']['tail_beyond']} samples beyond)")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ppszlab", "__init__.py")):
        print(f"error: no ppszlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    verdicts = {}
    try:
        for name in names:
            if args.trace:
                verdicts[name] = run_traced(WORKLOADS[name], args.seed)
            else:
                verdicts[name] = run_timed(WORKLOADS[name], args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name, verdict in verdicts.items():
            print("\n".join(_table(name, verdict)))
        return 0 if all(v["failed"] == 0 for v in verdicts.values()) else 1
    verdict = verdicts[args.workload]
    print(json.dumps({"workload": args.workload, "seed": args.seed, **verdict["detail"],
                      "fingerprint": verdict["fingerprint"]}, sort_keys=True))
    print(_result_line(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
