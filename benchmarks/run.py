"""Run one evcoref benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads: grid, long-predict, long-train; ``benchmarks/workloads.py``
defines them and says why each exists.  Repetitions run one after
another, each in a fresh process, until ``--seconds`` have passed.

Each repetition generates its inputs from one draw seed,
``seed + 1000 * draw``, and a run cycles through ``DRAWS[workload]``
draws.  A single corpus swings time, memory and scores by several
percent from seed to seed; a run's figures rest on several.  Timings
and memory are medians over repetitions; scores and losses depend only
on the draw, so they are medians over draws, and repetitions of one
draw must reproduce them exactly.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` each draw runs untraced and then traced; the metrics are
the per-layer ones from the traced repetitions, plus the tracing
overhead, traced minus untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (documents) and metrics.  Earlier lines and
``benchmarks/results/`` hold machine info, per-repetition records and,
for traced repetitions, every span.  Exit status: 0 when every check
passed; 1 when a check failed, with the result printed; 2 when a
repetition could not run, with no result printed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "workloads.py")

DRAWS = {"grid": 3, "long-predict": 9, "long-train": 9}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_docs_per_s": "docs/s",
    "predict_pairs_per_s": "pairs/s",
    "peak_rss_mib": "MiB",
    "test_avg": "F1",
    "test_conll": "F1",
    "train_loss": "nats/doc",
}
PER_DRAW = ("test_avg", "test_conll", "train_loss")
# Set-up is measured at least this often per run; repetitions that stop
# after set-up make up the count when full ones are few (grid).
MIN_SETUPS = 9
# A run must end within 180 s; one repetition never takes that long.
DEADLINE_S = 175.0


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("_kib_per_pair", "KiB/pair"), ("_frac", "fraction"),
                         ("pairs", "pairs"), ("nodes_per_doc", "nodes/doc")):
        if name.endswith(suffix):
            return unit
    return "count"


def draw_seed(seed, draw):
    return seed + 1000 * draw


class RepetitionFailed(RuntimeError):
    pass


def repetition(args, rep, draw, traced, started, setup_only=False):
    """Run one repetition in a fresh process and return its record."""
    seed = draw_seed(args.seed, draw)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if rep == 0:
        cmd.append("--machine")
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--spans", os.path.join(RESULTS, f"{args.workload}-seed{seed}.spans.json")]
    timeout = DEADLINE_S - (time.monotonic() - started)
    cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(f"repetition {rep} did not finish within the run's deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionFailed(f"repetition {rep} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def by_draw(records):
    """Complete records grouped by draw seed, in first-seen order."""
    groups = {}
    for r in records:
        if "wall_s" in r:
            groups.setdefault(r["seed"], []).append(r)
    return list(groups.values())


def aggregate(records, trace):
    """Metrics over complete records, as {name: {"value", "unit"}}."""
    plain = [r for r in records if not r["trace"] and "wall_s" in r]
    traced = [r for r in records if r["trace"] and "layers" in r]
    if trace:
        if not plain or not traced:
            return {}
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # Tracing shifts when the collector runs; measure it untraced.
        values["autodiff.gc_collections"] = statistics.median(r["gc_collections"] for r in plain)
        values["autodiff.gc_s"] = statistics.median(r["gc_s"] for r in plain)
        base = statistics.median(r["wall_s"] for r in plain)
        overhead = statistics.median(r["wall_s"] for r in traced) - base
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / base
        return {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    if not plain:
        return {}
    draws = by_draw(plain)
    out = {}
    for name, unit in END_TO_END.items():
        if name in PER_DRAW:
            value = statistics.median(group[0][name] for group in draws)
        elif name == "setup_s":
            value = statistics.median(r[name] for r in records if not r["trace"] and name in r)
        else:
            value = statistics.median(r[name] for r in plain)
        out[name] = {"value": value, "unit": unit}
    return out


def failures(records):
    """Every failed check over a run's records."""
    out = [f for r in records for f in r["failures"]]
    draws = by_draw(records)
    for group in draws:
        for name in PER_DRAW:
            if len({r[name] for r in group}) > 1:
                out.append(f"{name} differs between repetitions of seed {group[0]['seed']}")
    if draws and "variant_avg" in draws[0][0]:
        # Criterion 08's ordering, on test AVG averaged over draws as it
        # averages over seeds.
        avg = {v: statistics.fmean(g[0]["variant_avg"][v] for g in draws)
               for v in ("cdgm+noise", "simple", "baseline")}
        if not avg["cdgm+noise"] > avg["simple"] > avg["baseline"]:
            out.append("test AVG is not cdgm+noise > simple > baseline: " + json.dumps(avg))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DRAWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "evcoref")):
        print(f"run.py: no evcoref sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    started = time.monotonic()
    records = []
    try:
        while True:
            rep = len(records)
            if args.trace:
                draw, traced = rep // 2, rep % 2 == 1
            else:
                draw, traced = rep % DRAWS[args.workload], False
            records.append(repetition(args, rep, draw, traced, started))
            if records[-1]["failures"]:
                break
            enough = len(records) % 2 == 0 if args.trace else len(records) >= DRAWS[args.workload]
            if enough and time.monotonic() - started >= args.seconds:
                break
        while not args.trace and not records[-1]["failures"] and len(records) < MIN_SETUPS:
            rep = len(records)
            records.append(repetition(args, rep, rep % DRAWS[args.workload], False, started, True))
    except RepetitionFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    problems = failures(records)
    metrics = aggregate(records, args.trace)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = not problems and not failed and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": records[0].get("machine"), "records": records,
                   "problems": problems, "result": result}, fh, indent=1)
    print("machine:", json.dumps(records[0].get("machine")))
    n = sum(1 for r in records if r["trace"] == bool(args.trace) and "wall_s" in r)
    for name, m in metrics.items():
        how = f"{len(by_draw(records))} draws" if name in PER_DRAW else f"{n} repetitions"
        if name == "setup_s":
            how = f"{len(records)} set-ups"
        print(f"{name:38s} {m['value']:.6g} {m['unit']} (median of {how})")
    print(f"error_rate {failed / attempted:.4g} ({failed} of {attempted} documents)")
    for problem in problems:
        print("check failed:", problem, file=sys.stderr)
    print(f"records: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
