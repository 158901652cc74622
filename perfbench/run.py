"""Benchmark of `sphmoduli analyze`: one workload per process.

    python3 perfbench/run.py --workload subsets --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Each analysis is one in-process call of `sphmoduli.cli.main` with
`--json`; its output is captured and checked (checks.py).

A run is a sequence of whole rounds; a round runs every case of the corpus
once, in an order drawn from the seed.  Every third round, starting with
the first, is cold: the package is imported afresh just before it, so its
caches are empty.  The other rounds are warm.  Host speed drifts by tens of
percent over seconds, so a case's time is its median over the rounds of
its kind, and repeats of one case are a whole round apart.  Set-up (a fresh
import plus building the corpus) is timed twice before every round.  Rounds
are started while the last one would still end within `--seconds`, and at
least three are run.  With `--trace 1` the warm rounds alternate between
traced and untraced ones, and the per-layer metrics are printed instead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a fuller record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import lie  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_ROUNDS = 3
SETUPS_PER_ROUND = 2


def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "sphmoduli" or n.startswith("sphmoduli.")}


def set_up(workload: str, keep: bool):
    """Import the package afresh and build the corpus; returns (cli, cases,
    seconds).  With keep=False the modules imported before are put back, so
    the program's caches stay as they were."""
    before = package_modules()
    for name in before:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("sphmoduli.cli")
    cases = corpus.WORKLOADS[workload]()
    seconds = time.perf_counter() - start
    if not keep:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(before)
        cli = before["sphmoduli.cli"]
    return cli, cases, seconds


def run_case(cli, case):
    """One timed analysis; returns (seconds, exit status, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(case.argv())
    except SystemExit as e:
        status = e.code
    except Exception as e:  # the benchmark must finish the round and report it
        status = f"raised {type(e).__name__}: {e}"
    return time.perf_counter() - start, status, out.getvalue()


def medians(samples: dict) -> dict:
    """Each case's median time over the rounds that sampled it."""
    return {label: statistics.median(times) for label, times in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sphmoduli", "cli.py")):
        print(f"error: no sphmoduli sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace else None
    groups = {}
    setup_samples = []
    cold = {}           # case label -> seconds, one per cold round
    warm = {}           # same for untraced warm rounds
    traced = {}         # same for traced warm rounds
    layer_warm = []     # per-layer snapshot of each traced warm round
    layer_cold = []     # per-layer snapshot of each cold round (traced runs only)
    round_log = []
    attempted = failed = 0
    wrong = []

    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while True:
        kind = ("cold", "warm", "warm")[k % 3]
        tracing = tracer is not None and (kind == "cold" or k % 3 == 1)
        if tracer is not None:
            tracer.uninstall()
        for n in range(SETUPS_PER_ROUND):
            # A cold round runs on the modules of its last set-up.
            keep = k == 0 or (kind == "cold" and n == SETUPS_PER_ROUND - 1)
            fresh_cli, cases, seconds = set_up(args.workload, keep)
            setup_samples.append(seconds)
            if keep:
                cli = fresh_cli
        if k == 0:
            path = os.path.abspath(sys.modules["sphmoduli"].__file__)
            if not path.startswith(SRC + os.sep):
                print(f"error: imported sphmoduli from {path}, not {SRC}", file=sys.stderr)
                return 2
        if tracing:
            tracer.install()
            tracer.reset()
        sink = cold if kind == "cold" else traced if tracing else warm
        round_start = time.perf_counter()
        for case in rng.sample(cases, len(cases)):
            seconds, status, text = run_case(cli, case)
            if case.group not in groups:
                groups[case.group] = lie.Group(case.group)
            errors = checks.check_report(case, groups[case.group], status, text)
            if tracer is not None:
                errors += tracer.errors
                tracer.errors.clear()
            attempted += 1
            if errors:
                failed += 1
                if status == 0:
                    wrong.append({"case": case.label, "errors": errors})
            sink.setdefault(case.label, []).append(seconds)
        round_seconds = time.perf_counter() - round_start
        round_log.append({"kind": kind, "traced": tracing, "seconds": round_seconds})
        if tracing:
            (layer_cold if kind == "cold" else layer_warm).append(tracer.snapshot())
        k += 1
        if k >= MIN_ROUNDS and time.perf_counter() + round_seconds > deadline:
            break
    if tracer is not None:
        tracer.uninstall()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        typical = medians(warm)
        metrics = {
            "corpus_s": (sum(typical.values()), "s"),
            "analyze_p50_s": (statistics.median(typical.values()), "s"),
            "cold_s": (sum(medians(cold).values()), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
        }
    else:
        metrics = layer_metrics(layer_warm, layer_cold)
        untraced = sum(medians(warm).values())
        overhead = sum(medians(traced).values()) - untraced
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100 * overhead / untraced, "%")

    correct = not wrong
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=round_log, setup_samples=setup_samples,
                  samples_warm=warm, samples_cold=cold, samples_traced=traced, wrong=wrong)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for w in wrong[:5]:
        print(f"wrong output: {w['case']}: {w['errors']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


COUNT_UNITS = {"adapted.subset_accept_ratio": "ratio"}


def layer_metrics(warm_rounds: list, cold_rounds: list) -> dict:
    """Per-layer metrics of one warm pass: times are the median over the
    traced rounds, counts (identical in every warm round) come from the first.
    The root-system and catalog layers are also given for a cold pass,
    where their caches are filled."""
    out = {}
    for name, value in warm_rounds[0].items():
        if name.endswith("_s"):
            out[name] = (statistics.median(r[name] for r in warm_rounds), "s")
        else:
            out[name] = (value, COUNT_UNITS.get(name, "count"))
    for name, cold_name in (("rootsys.build_s", "rootsys.build_cold_s"),
                            ("sphroots.catalog_s", "sphroots.catalog_cold_s")):
        out[cold_name] = (statistics.median(r[name] for r in cold_rounds), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
