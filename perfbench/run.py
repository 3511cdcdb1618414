"""geosent's benchmark: seeded inputs, timed repetitions, checked outputs.

Run from the root of a geosent checkout:

    python3 perfbench/run.py --workload score-heavy --seed 8 --seconds 55 --trace 0

The benchmark builds the workload's inputs from the seed, then repeats
one closed-loop repetition (set-up, collect the stream, one `pipeline`
run) in a fresh process each time until --seconds have been measured,
and checks every repetition's outputs against what it planted.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and the metrics, end-to-end ones with --trace 0 and per-layer
ones from a traced run with --trace 1.  A readable summary goes to
standard error and the full record of the run, traced spans included,
to .perfbench/results/.  See perfbench/README.md for the workloads and
metrics.

    python3 perfbench/run.py --write-manifest

rebuilds perfbench/manifest.json, the input hashes the runs compare
against; only a deliberate change to the inputs should need it.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
MANIFEST = HERE / "manifest.json"

WORKLOADS = ("score-heavy", "resolve-heavy", "append-stream")
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MiB"),
    ("collect_records_per_s", "records/s"),
    ("collect_batch_p50_ms", "ms"),
    ("collect_batch_p99_ms", "ms"),
)
THREADS = 1  # timed repetitions; 2 workers are only checked for the same bytes (README)
MIN_REPS = 3
TIME_LIMIT_S = 160.0  # whole run, leaving room under the 180 s a benchmark run may take
CHILD_TIMEOUT_S = 120.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="geosent benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def _percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _run_child(job: dict, out: Path, deadline: float) -> dict | None:
    """One repetition in a fresh process; None when it failed or timed out."""
    job_path = out / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    timeout = min(CHILD_TIMEOUT_S, max(1.0, deadline - time.monotonic()))
    with open(out / "child.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers it left
            proc.wait()
    result = Path(job["result"])
    if proc.returncode != 0 or not result.exists():
        tail = (out / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"perfbench: repetition failed (exit {proc.returncode}):\n{tail}", file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def write_config(inp, out: Path, threads: int) -> Path:
    """The `pipeline` config of one repetition, writing every output under out."""
    p = inp.pipeline
    fmt = "%Y-%m-%dT%H:%M:%SZ"
    config = {
        "raw": out / "t1.jsonl", "regions": inp.regions, "parsed": out / "t2.tsv",
        "scores": out / "t3.csv", "start": inp.window[0].strftime(fmt),
        "end": inp.window[1].strftime(fmt), "bucket": p["bucket"], "threads": threads,
        "approaches": p["approaches"], "levels": p["levels"], "lexicon": inp.lexicon,
    }
    if inp.model is not None:
        config["model"] = inp.model
    if "kml" in p:
        config["kml_out"] = out / "map.kml"
    if "tilemap" in p:
        config["tilemap_out"] = out / "tiles.svg"
    if "line" in p:
        config.update(line_out=out / "series", line_region=p["line_region"],
                      line_bucket=p["line_bucket"])
    path = out / "pipeline.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in config.items()), encoding="utf-8")
    return path


class Bench:
    """Inputs, repetitions and checks of one benchmark run."""

    def __init__(self, args, work: Path):
        import checks
        import inputs

        self.args, self.work = args, work
        self.checks = checks
        self.problems: list[str] = []
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        canary = inputs.canary_hashes(work / "canary")
        for name, digest in sorted(canary.items()):
            if digest != manifest["canary"].get(name):
                self.problems.append(f"input mismatch: the {name} canary hash changed")
        self.inputs = inputs.build(args.workload, args.seed, work / "inputs")
        self.input_hashes = self.inputs.file_hashes()
        recorded = manifest["seeds"].get(str(args.seed), {}).get(args.workload)
        if recorded is not None and recorded["files"] != self.input_hashes:
            self.problems.append(f"input mismatch: inputs differ from the manifest at seed {args.seed}")
        raw = hashlib.sha256()
        if self.inputs.prefill is not None:
            raw.update(self.inputs.prefill.read_bytes())
        raw.update(self.inputs.stream.read_bytes())
        self.raw_sha256 = raw.hexdigest()
        self.reason_failures = checks.reject_reason_failures(self.inputs)
        self.verdicts: dict[tuple, object] = {}
        self.reference: dict[str, str] | None = None
        self.reps = 0

    def _job(self, out: Path, threads: int, trace: bool) -> dict:
        inp = self.inputs
        return {
            "src": str(SRC), "regions": str(inp.regions), "lexicon": str(inp.lexicon),
            "model": str(inp.model) if inp.model else None,
            "prefill": str(inp.prefill) if inp.prefill else None,
            "stream": str(inp.stream), "cuts": inp.cuts, "raw": str(out / "t1.jsonl"),
            "config": str(write_config(inp, out, threads)), "trace": trace,
            "result": str(out / "result.json"),
        }

    def repetition(self, threads: int, trace: bool, deadline: float) -> dict | None:
        """Run, check and clean up one repetition; returns its measurements."""
        self.reps += 1
        out = self.work / f"rep{self.reps}"
        out.mkdir()
        result = _run_child(self._job(out, threads, trace), out, deadline)
        if result is None or result["rc"] != 0:
            self.problems.append(f"repetition {self.reps} did not complete")
            shutil.rmtree(out, ignore_errors=True)
            return None
        hashes = self.checks.output_hashes(out)
        key = tuple(sorted(hashes.items()))
        if key not in self.verdicts:
            try:
                verdict = self.checks.check_outputs(self.inputs, out, self.raw_sha256)
            except (OSError, ValueError, KeyError) as exc:  # missing or unreadable outputs
                verdict = self.checks.Verdict(len(self.inputs.lines),
                                              [f"outputs could not be read: {exc!r}"])
            self.verdicts[key] = verdict
            self.problems += [f"repetition {self.reps}: {p}" for p in verdict.problems]
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            self.problems.append(f"repetition {self.reps} ({threads} workers): output sha256s "
                                 "differ from the first repetition")
        shutil.rmtree(out, ignore_errors=True)
        result["failed_lines"] = self.verdicts[key].failed_lines + self.reason_failures
        return result


def run(args, work: Path, began: float) -> tuple[dict, dict]:
    bench = Bench(args, work)
    inp = bench.inputs
    deadline = began + TIME_LIMIT_S
    calls = len(inp.cuts) - 1
    min_reps = MIN_REPS + (1 if args.trace else 0)

    if inp.cross_threads is not None:  # outputs must not depend on the worker count
        bench.repetition(inp.cross_threads, False, deadline)

    reps: list[dict] = []
    traced: list[dict] = []
    measured_from = time.monotonic()
    while True:
        trace = bool(args.trace) and (len(reps) + len(traced)) % 2 == 1
        rep = bench.repetition(THREADS, trace, deadline)
        if rep is None:
            break
        (traced if trace else reps).append(rep)
        done = len(reps) + len(traced)
        elapsed = time.monotonic() - measured_from
        per_rep = elapsed / done
        if done >= min_reps and elapsed + per_rep > args.seconds:
            break
        if time.monotonic() + 1.5 * per_rep > deadline:
            break
    everything = reps + traced
    if not reps or (args.trace and not traced):
        raise RuntimeError("no repetition completed; see the messages above")

    lines = len(inp.lines)
    measured = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "pipeline_s": median([r["pipeline_s"] for r in reps]),
        "records_per_s": median([lines / r["pipeline_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "collect_records_per_s": median([r["collect_stored"] / sum(r["collect_call_s"])
                                          for r in reps]),
        "collect_batch_p50_ms": median([median(r["collect_call_s"]) * 1e3 for r in reps]),
        "collect_batch_p99_ms": median([_percentile(r["collect_call_s"], 0.99) * 1e3
                                         for r in reps]),
    }
    failed = sum(r["failed_lines"] + len(r["failed_calls"]) for r in everything)
    attempted = len(everything) * (lines + calls)
    if args.trace:
        from tracing import PER_LAYER, layer_metrics
        per_rep = [layer_metrics(r["trace"]) for r in traced]
        layer = {name: median([m[name] for m in per_rep]) for name, _ in PER_LAYER
                 if name != "trace_overhead_frac"}
        layer["trace_overhead_frac"] = (median([r["pipeline_s"] for r in traced])
                                        / measured["pipeline_s"] - 1.0)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": not bench.problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": THREADS, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "result": result, "end_to_end": measured,
        "problems": bench.problems, "failed_frac": failed / attempted,
        "collect_calls": calls, "repetitions": len(reps), "traced_repetitions": len(traced),
        "descriptors": inp.descriptors, "input_sha256": bench.input_hashes,
        "output_sha256": bench.reference,
        "samples": {k: [r[k] for r in reps] for k in ("setup_s", "pipeline_s", "peak_rss_mb")},
        "trace_report": traced[0]["trace"] if traced else None,
    }
    return result, report


def write_manifest(work: Path) -> None:
    import inputs

    seeds: dict = {}
    for workload in WORKLOADS:
        built = inputs.build(workload, 8, work / workload)
        seeds[workload] = {"files": built.file_hashes(), "descriptors": built.descriptors}
    manifest = {"canary": inputs.canary_hashes(work / "canary"), "seeds": {"8": seeds}}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "geosent" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'geosent'} is missing; run from a geosent checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile geosent into src/geosent/__pycache__ first, so set-up loads
    # byte code the way an installed package does, and does so whether or not
    # the environment lets the repetitions write byte code themselves.
    if not compileall.compile_dir(str(SRC / "geosent"), quiet=1):
        print("perfbench: src/geosent does not compile", file=sys.stderr)
        return 1
    began = time.monotonic()
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_manifest:
            write_manifest(work)
            return 0
        result, report = run(args, work, began)
    except Exception:  # report the failure and leave no result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    for problem in report["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {report['repetitions']} repetitions, "
          f"{report['traced_repetitions']} traced, {report['collect_calls']} collect calls each, "
          f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
