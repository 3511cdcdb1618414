"""One measured repetition, in a fresh process.

Usage: python3 perfbench/child.py JOB.json

The job names the inputs, the pipeline config and where to write the
result.  The repetition times set-up (importing geosent, with numpy
already loaded, and loading the inputs the pipeline reads), feeds the
stream to `ingest.collect` one chunk per call the way a resumed stream
does, then runs
`geosent.cli.main(["pipeline", ...])`.  geosent is imported from the
checkout's `src`, because the console script is not necessarily
installed.  With tracing on, the tracer wraps the layers after set-up,
so its numbers cover collect and the pipeline only.
"""
from __future__ import annotations

import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])

    # numpy is imported before the clock starts: it is not geosent's code, and
    # its import time alone swings by a factor of two with the host's state.
    import numpy  # noqa: F401

    start = time.perf_counter()
    import geosent  # noqa: F401  (import cost is part of set-up)
    from geosent.classifier import load_model
    from geosent.georesolve import load_regions
    from geosent.lexicon import load_lexicon

    load_regions(job["regions"])
    load_lexicon(job["lexicon"])
    if job["model"]:
        load_model(job["model"])
    setup_s = time.perf_counter() - start

    from geosent import cli, ingest

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    raw = Path(job["raw"])
    if job["prefill"]:
        shutil.copyfile(job["prefill"], raw)
    else:
        raw.write_bytes(b"")
    stream = Path(job["stream"]).read_bytes()
    cuts = job["cuts"]
    call_s: list[float] = []
    failed_calls: list[str] = []
    stored = 0
    carried = b""
    size = raw.stat().st_size
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        data = carried + stream[lo:hi]
        t0 = time.perf_counter()
        try:
            stats, fragment = ingest.collect(io.BytesIO(data), raw)
        except Exception as exc:  # a raising call is one failed operation; the stream goes on
            call_s.append(time.perf_counter() - t0)
            failed_calls.append(f"call {k} raised {exc!r}")
            carried = b""
            size = raw.stat().st_size
            continue
        call_s.append(time.perf_counter() - t0)
        kept = data.rfind(b"\n") + 1
        new_size = raw.stat().st_size
        if (fragment != data[kept:] or stats.lines_read != data.count(b"\n")
                or new_size - size != kept):
            failed_calls.append(f"call {k} lost bytes: stored {new_size - size} of {kept}")
        size = new_size
        stored += stats.lines_read
        carried = fragment

    t0 = time.perf_counter()
    rc = cli.main(["pipeline", "--config", job["config"]])
    pipeline_s = time.perf_counter() - t0

    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "collect_call_s": call_s,
        "collect_stored": stored,
        "failed_calls": failed_calls,
        "trace": tracer.report() if tracer else None,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
