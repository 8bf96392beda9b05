"""Child process of the benchmark: one job per process, result as JSON on the
last line of stdout.

    worker.py generate --workload W --seed N --stem PATH
    worker.py setup
    worker.py rss --meta PATH
    worker.py measure --meta PATH --seconds S --trace 0|1 --spans PATH

``setup`` and ``rss`` run in fresh processes so that input generation and
earlier work do not count in their time or in ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
MIN_PASSES = 11  # per kind of pass, so that ten samples lie beyond the tail percentile


def _use_checkout_src() -> None:
    """Import medleak from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import medleak

    if Path(medleak.__file__).resolve().parent != src / "medleak":
        raise ImportError(f"medleak imported from {medleak.__file__}, not from {src}")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def generate(args) -> dict:
    _use_checkout_src()
    import workloads

    meta = workloads.generate(args.workload, args.seed, Path(args.stem))
    Path(args.stem).with_suffix(".meta.json").write_text(json.dumps(meta, indent=1))
    return meta


def setup(args) -> dict:
    import reference

    # pure Python only: the loop must not import numpy ahead of medleak
    before = reference.slowness(with_numpy=False)
    started = time.perf_counter()
    _use_checkout_src()
    from medleak.config import load_dictionaries

    load_dictionaries()
    raw = time.perf_counter() - started
    after = reference.slowness(with_numpy=False)
    return {"setup_s": reference.scaled(raw, before, after), "raw_setup_s": raw}


def rss(args) -> dict:
    _use_checkout_src()
    from medleak.config import load_dictionaries

    load_dictionaries()
    import workloads

    baseline = _maxrss_mb()
    workload = workloads.Workload(json.loads(Path(args.meta).read_text()))
    output = workload.run()
    grown = _maxrss_mb() - baseline
    del output
    return {"peak_rss_mb": grown, "baseline_mb": baseline}


def measure(args) -> dict:
    _use_checkout_src()
    import numpy
    import reference
    import tracing
    import workloads

    meta = json.loads(Path(args.meta).read_text())
    committed = json.loads(DIGESTS.read_text())
    failures: list[str] = []
    attempted = failed = 0

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        failures.append(message)

    for scenario, digest in workloads.fixture_digests(Path(args.meta).parent).items():
        attempted += 1
        if digest != committed["fixtures"][scenario]:
            fail(f"fixture {scenario}: report digest {digest} != committed")
    expected = committed["workloads"].get(meta["workload"], {})
    default_seed = meta["seed"] == expected.get("seed")
    if default_seed:
        attempted += 1
        if meta["input_sha256"] != expected["input_sha256"]:
            fail(f"default-seed input digest {meta['input_sha256']} != committed")

    # The first pass is untimed; its output is checked and every later pass
    # must reproduce it byte for byte.
    workload = workloads.Workload(meta)
    attempted += 1
    warm = workload.rendered(workload.run())
    first_digest = workloads.sha256(warm)
    problems, summary = workloads.check(meta, warm)
    if default_seed and first_digest != expected["report_sha256"]:
        problems.append(f"default-seed report digest {first_digest} != committed")
    del warm
    if problems:
        fail("; ".join(problems[:5]))

    # Pass times are scaled by the CPU slowness read right before and right
    # after each pass (reference.py); raw times are kept as well.
    walls: list[float] = []
    traced_walls: list[float] = []
    raw_walls: list[float] = []
    raw_traced_walls: list[float] = []
    slowness: list[float] = []
    per_pass: list[dict] = []
    tracer = tracing.Tracer()
    gc.collect()
    before = reference.slowness()
    slowness.append(before)
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        enough = len(walls) >= MIN_PASSES and (not args.trace or len(traced_walls) >= MIN_PASSES)
        if (elapsed >= args.seconds and enough) or elapsed >= 3 * args.seconds + 30:
            break
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        attempted += 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            output = workload.run()
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            fail(f"pass raised {type(exc).__name__}: {exc}")
            break
        finally:
            if traced:
                tracer.uninstall()
        digest = workloads.sha256(workload.rendered(output))
        del output
        if digest != first_digest:
            fail(f"{'traced' if traced else 'untraced'} pass digest {digest} != {first_digest}")
        elif problems:
            failed += 1  # same output as the pass that failed the checks
        gc.collect()
        after = reference.slowness()
        slowness.append(after)
        if traced:
            traced_walls.append(reference.scaled(wall, before, after))
            raw_traced_walls.append(wall)
            per_pass.append(tracing.per_layer(tracer, wall))
        else:
            walls.append(reference.scaled(wall, before, after))
            raw_walls.append(wall)
        before = after

    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "raw_walls": raw_walls,
        "raw_traced_walls": raw_traced_walls,
        "slowness": slowness,
        "report_sha256": first_digest,
        "summary": summary,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "numpy": numpy.__version__,
    }
    if args.trace:
        result["per_layer"] = {
            name: None if any(p[name] is None for p in per_pass) else statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]
        } if per_pass else {}
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span._asdict()) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="job", required=True)
    p = sub.add_parser("generate")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stem", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("rss")
    p.add_argument("--meta", required=True)
    p = sub.add_parser("measure")
    p.add_argument("--meta", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    args = parser.parse_args(argv)
    result = {"generate": generate, "setup": setup, "rss": rss, "measure": measure}[args.job](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
