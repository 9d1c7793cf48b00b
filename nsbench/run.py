"""nseries benchmark: seeded CLI workloads in a closed loop, one client.

    python3 nsbench/run.py --workload corr --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/nseries` of that checkout and nothing else.  Set-up imports the package
afresh, draws the workload's inputs from the seed with `nseries.samples`,
writes them under `.nsbench_work/`, and prints their digest; it is repeated
SETUP_REPS times and `setup_s` is the median.  Then each job calls
`nseries.cli.main(argv)` in this process with stdout captured, one job after
the other, until `--seconds` have passed.  Outputs are checked exactly after
the timed loop (see workloads.py); a wrong output, an unexpected exit code or
an exception counts as a failed job.

Every reported time is scaled to nominal host speed by the reference probe
of speed.py, run between jobs and between set-ups; the raw figures are
printed beside the scaled ones.  A job's latency is the median over its runs
in the loop, and the figures are over the distinct jobs of the list, each
counted once: `jobs_per_s` is their number over the sum of their latencies
(times the share of runs with a correct output), and `job_p50_ms` and
`job_p90_ms` are means of the job latencies ranked within QUANTILE_BAND of
the 50th and 90th percentile.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs the
workload's trace pass (its first jobs) alternately without and with the
boundary tracer of tracing.py until `--seconds` have passed, requires the
outputs of both to be byte-identical, and reports per-layer metrics per
traced pass.  Spans go to `.nsbench_out/spans-<workload>-<seed>.tsv.gz`.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics (name -> {value, unit}).
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
QUANTILE_BAND = 0.05  # half-width, in quantile, of the ranks a percentile averages
MIN_TRACE_PAIRS = 1

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "free_algebra.mul_pairs": "count",
            "free_algebra.mul_useful": "ratio",
            "series_calculus.bch_s": "s",
            "hahn_series.constructs": "count",
            "hahn_series.mul_pairs": "count",
            "hahn_series.mul_useful": "ratio",
            "operators.compose_calls": "count",
            "operators.apply_calls": "count",
            "operators.table_constructs": "count",
            "operators.evaluate_s": "s",
            "operators.predicate_s": "s",
            "operators.predicate_apply_calls": "count",
            "correspondence.star_s": "s",
            "correspondence.exp_log_s": "s",
            "vaut_factors.exponent_aut_calls": "count",
            "vaut_factors.exponent_aut_s": "s",
            "support_order.cmp_calls": "count",
            "textio.parse_s": "s",
            "textio.format_s": "s",
            "textio.bytes_in": "B",
            "textio.bytes_out": "B",
            "trace.overhead": "ratio",
        }
    )
    return units


def import_fresh():
    """Drop any loaded nseries modules and import the checkout's package."""
    for name in [m for m in sys.modules if m == "nseries" or m.startswith("nseries.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    nseries = importlib.import_module("nseries")
    if Path(nseries.__file__).resolve().parent != (SRC / "nseries").resolve():
        raise RuntimeError(f"nseries imported from {nseries.__file__}, not from {SRC}")
    return importlib.import_module("nseries.cli"), workloads.load_modules()


def set_up(workload: str, seed: int, work: Path):
    """SETUP_REPS fresh set-ups between reference probes; returns (median
    speed-scaled seconds, median raw seconds, cli, Setup)."""
    probes = speed.SpeedLog()
    spans = []
    digests = set()
    for _ in range(SETUP_REPS):
        for _ in range(speed.NEIGHBOURS):
            probes.probe()
        shutil.rmtree(work, ignore_errors=True)
        start = perf_counter()
        cli, ns = import_fresh()
        setup = workloads.SETUPS[workload](ns, seed, work)
        spans.append((start, perf_counter() - start))
        digests.add(setup.digest)
    for _ in range(speed.NEIGHBOURS):
        probes.probe()
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic: input digests differ between repetitions")
    scaled = statistics.median(dt * probes.scale(start) for start, dt in spans)
    return scaled, statistics.median(dt for _, dt in spans), cli, setup


def run_job(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in-process; exceptions become exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else -1
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, out.getvalue()


class Checker:
    """Exact checks; an output byte-identical to one already verified for the
    same job is accepted without recomputing the expected value."""

    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        self.verified: dict[int, tuple[int, str]] = {}
        self.failures: dict[str, int] = {}

    def check(self, index: int, rc: int, out: str) -> bool:
        if self.verified.get(index) == (rc, out):
            return True
        job = self.jobs[index]
        try:
            reason = job.check(rc, out)
        except Exception as exc:  # a malformed output can break the check itself
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            self.verified[index] = (rc, out)
            return True
        key = f"{job.kind}: {reason}"
        self.failures[key] = self.failures.get(key, 0) + 1
        return False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(cli, setup, seconds: float):
    """Run jobs back to back for `seconds`, with a reference probe between
    jobs when one is due; returns (records, elapsed, SpeedLog)."""
    records = []
    jobs = setup.jobs
    probes = speed.SpeedLog()
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        probes.probe_if_due()
        index = i % len(jobs)
        t0 = perf_counter()
        rc, out = run_job(cli, jobs[index].argv)
        records.append((index, t0, perf_counter() - t0, rc, out))
        i += 1
    elapsed = perf_counter() - start
    # Probes after the loop give the last jobs neighbours on both sides.
    for _ in range(speed.NEIGHBOURS):
        probes.probe()
    return records, elapsed, probes


def band_mean(values: list[float], q: float) -> float:
    """Mean of the values ranked within QUANTILE_BAND of quantile q.  The job
    lists mix job kinds whose latencies lie far apart, so a plain order
    statistic jumps between neighbours wherever the mix leaves a gap at q."""
    ordered = sorted(values)
    n = len(ordered)
    lo = int((q - QUANTILE_BAND) * n)
    hi = max(lo + 1, round((q + QUANTILE_BAND) * n))
    return statistics.fmean(ordered[lo:hi])


def job_latencies(records, scale) -> dict[int, float]:
    """Median latency in ms of each distinct job of the list over its runs,
    each run's time multiplied by scale(start of the run)."""
    runs: dict[int, list[float]] = {}
    for index, t0, dt, _, _ in records:
        runs.setdefault(index, []).append(dt * 1000.0 * scale(t0))
    return {index: statistics.median(times) for index, times in runs.items()}


def mix_figures(per_job: dict[int, float], ok_share: float) -> tuple[float, float, float]:
    """(jobs_per_s, p50, p90) of the job mix: every distinct job counts once,
    whatever share of the list the run repeated."""
    ms = list(per_job.values())
    return ok_share * len(ms) / (sum(ms) / 1000.0), band_mean(ms, 0.5), band_mean(ms, 0.9)


def end_to_end(workload, seed, seconds, setup_s, setup_raw_s, cli, setup):
    records, elapsed, probes = closed_loop(cli, setup, seconds)
    rss = peak_rss_mb()
    checker = Checker(setup.jobs)
    ok = [checker.check(index, rc, out) for index, _, _, rc, out in records]
    failed = ok.count(False)
    ok_share = 1.0 - failed / len(records)
    per_job = job_latencies(records, probes.scale)
    jobs_per_s, p50, p90 = mix_figures(per_job, ok_share)
    raw = mix_figures(job_latencies(records, lambda _: 1.0), ok_share)
    metrics = {
        "jobs_per_s": jobs_per_s,
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    runs_beyond = sum(1 for index, *_ in records if per_job[index] > p90)
    print(
        f"{workload} seed={seed}: {len(records)} runs of {len(per_job)} distinct jobs "
        f"in {elapsed:.3f} s, closed loop with one client; {runs_beyond} runs of "
        f"{sum(1 for v in per_job.values() if v > p90)} jobs beyond p90"
    )
    print(
        f"  reference probe: {len(probes.durations)} runs, median {probes.median_ms():.3f} ms, "
        f"nominal {speed.NOMINAL_PROBE_MS} ms; times below are scaled to nominal speed"
    )
    print(
        f"  raw: {raw[0]:.6g} jobs/s, p50 {raw[1]:.6g} ms, p90 {raw[2]:.6g} ms, "
        f"setup {setup_raw_s:.6g} s"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {E2E_UNITS[name]}")
    print(f"  fail_ratio = {failed / len(records):.6g} ({failed}/{len(records)})")
    for reason, count in sorted(checker.failures.items()):
        print(f"  FAILED x{count}: {reason}")
    return len(records), failed, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


class PassTotals:
    """Per-layer totals folded from each traced pass's spans."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in tracing.LAYERS}
        self.inclusive = {name: 0.0 for name in tracing.INCLUSIVE}
        self.spans = 0

    def fold(self, log: tracing.SpanLog) -> None:
        for i, t in enumerate(tracing.self_times(log)):
            self.self_s[tracing.layer_of(log.name(i))] += t
        for name, members in tracing.INCLUSIVE.items():
            self.inclusive[name] += tracing.inclusive_time(log, members)
        self.spans += len(log)


def traced(workload, seed, seconds, cli, setup, out_dir: Path):
    jobs = setup.jobs[: setup.trace_jobs]
    checker = Checker(setup.jobs)
    tracer = tracing.Tracer()
    totals = PassTotals()
    out_dir.mkdir(parents=True, exist_ok=True)
    span_path = out_dir / f"spans-{workload}-{seed}.tsv.gz"
    wall = {False: 0.0, True: 0.0}
    attempted = failed = mismatched = passes = 0
    start = perf_counter()
    tracer.install()
    try:
        with gzip.open(span_path, "wt", encoding="utf-8", compresslevel=1) as spans_out:
            spans_out.write(tracing.SPAN_HEADER)
            pair = 0
            pair_s = 0.0
            # Whole pairs only, and no pair that would end past --seconds.
            while pair < MIN_TRACE_PAIRS or perf_counter() - start + pair_s <= seconds:
                pair_start = perf_counter()
                # Alternate which side goes first so warm-up does not bias the ratio.
                order = (False, True) if pair % 2 == 0 else (True, False)
                outputs = {}
                for on in order:
                    tracer.enabled = on
                    t0 = perf_counter()
                    results = []
                    for index, job in enumerate(jobs):
                        tracer.job = passes * len(jobs) + index
                        results.append(run_job(cli, job.argv))
                    wall[on] += perf_counter() - t0
                    tracer.enabled = False
                    outputs[on] = results
                attempted += 2 * len(jobs)
                for index, (plain, with_trace) in enumerate(zip(outputs[False], outputs[True])):
                    failed += not checker.check(index, *plain)
                    failed += not checker.check(index, *with_trace)
                    mismatched += plain != with_trace
                totals.fold(tracer.spans)
                tracer.spans.write_rows(spans_out)
                tracer.spans = tracing.SpanLog(tracer.spans.names)
                passes += 1
                pair += 1
                pair_s = perf_counter() - pair_start
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, totals, passes, wall[True] / wall[False])
    units = per_layer_units()
    print(
        f"{workload} seed={seed}: traced {passes} passes of {len(jobs)} jobs, "
        f"{totals.spans} spans written to {span_path.relative_to(ROOT)}; "
        f"traced outputs differing from untraced: {mismatched}"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for reason, count in sorted(checker.failures.items()):
        print(f"  FAILED x{count}: {reason}")
    return (
        attempted,
        failed,
        mismatched,
        {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )


def per_layer_metrics(tracer, totals: PassTotals, passes: int, overhead: float) -> dict:
    """Per traced pass; counts repeat exactly for one seed."""
    calls = {layer: 0 for layer in tracing.LAYERS}
    for name, n in tracer.calls.items():
        calls[tracing.layer_of(name)] += n
    counts = dict(tracer.counts)
    for metric, names in tracing.CALL_COUNTERS.items():
        counts[metric] = sum(tracer.calls.get(n, 0) for n in names)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = calls[layer] / passes
        metrics[f"{layer}.self_s"] = totals.self_s[layer] / passes
    for name, value in totals.inclusive.items():
        metrics[name] = value / passes
    for name, value in counts.items():
        if not name.endswith("_useful_pairs"):
            metrics[name] = value / passes
    for prefix in ("free_algebra", "hahn_series"):
        pairs = counts[f"{prefix}.mul_pairs"]
        metrics[f"{prefix}.mul_useful"] = counts[f"{prefix}.mul_useful_pairs"] / pairs if pairs else 0.0
    metrics["trace.overhead"] = overhead
    units = per_layer_units()
    return {name: metrics[name] for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nseries" / "__init__.py").is_file():
        print(f"error: no nseries sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".nsbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, setup_raw_s, cli, setup = set_up(args.workload, args.seed, work)
        print(
            f"inputs {args.workload} seed={args.seed}: {len(setup.jobs)} jobs, "
            f"sha256={setup.digest}"
        )
        if args.trace:
            attempted, failed, mismatched, metrics = traced(
                args.workload, args.seed, args.seconds, cli, setup, ROOT / ".nsbench_out"
            )
            correct = failed == 0 and mismatched == 0
        else:
            attempted, failed, metrics = end_to_end(
                args.workload, args.seed, args.seconds, setup_s, setup_raw_s, cli, setup
            )
            correct = failed == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
