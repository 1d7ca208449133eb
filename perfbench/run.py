"""Benchmark entry point for the steinberg certifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify-all --seed 0 --seconds 15 --trace 0

The library is imported from ``src/`` of the checkout and driven in-process
by one caller in one thread.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same operations are replayed with every layer's public functions wrapped
(see ``layer_trace.py``) and the object holds the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The exit status is 0 when
every answer was correct, 1 when some answer was wrong, and 2 when the
checkout holds no library to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "steinberg"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layer_trace import LAYERS, Tracer  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def fresh_import():
    """Import a fresh copy of the library from the checkout's ``src/``.

    Every ``steinberg`` module is dropped from ``sys.modules`` first, so
    module-level state (caches, wrappers of an earlier trace) starts empty.
    """
    for name in [m for m in sys.modules if m == "steinberg" or m.startswith("steinberg.")]:
        del sys.modules[name]
    gc.collect()
    mods = {layer: importlib.import_module(f"steinberg.{layer}") for layer in LAYERS}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != PACKAGE.resolve():
            raise ImportError(f"imported {mod.__file__}, not the checkout's {PACKAGE}")
    all_modules = [m for name, m in sys.modules.items()
                   if name == "steinberg" or name.startswith("steinberg.")]
    return SimpleNamespace(all_modules=all_modules, **mods)


def fresh_traced(tracer: Tracer):
    lib = fresh_import()
    tracer.install(lib)
    return lib


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev or None,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "optimize": sys.flags.optimize,
    }


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no library to benchmark at {PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    with Speedometer() as clock:
        setup_marks = []
        for _ in range(workload.setup_repeats):
            t0 = clock.mark()
            lib = fresh_import()
            state = workload.setup(lib, args.seed)
            setup_marks.append((t0, clock.mark()))
        body = workload.body(lib, state, args.seed, args.seconds, clock, fresh=fresh_import)
    setup_times = [clock.calibrated(a, b) for a, b in setup_marks]
    op_s = [clock.calibrated(a, b) for a, b in body.op_marks]
    wall_s = clock.calibrated(body.start, body.end)
    attempted, failed, problems = body.attempted, body.failed, list(body.problems)
    print(f"raw body {clock.raw(body.start, body.end):.3f} s, calibrated {wall_s:.3f} s; "
          f"probe median {statistics.median(clock.durs) * 1e6:.0f} us over {len(clock.durs)}")

    if args.trace:
        traced_clock = Speedometer()
        tracer = Tracer(traced_clock)
        with traced_clock:
            lib = fresh_traced(tracer)
            state = workload.setup(lib, args.seed)
            traced = workload.body(lib, state, args.seed, args.seconds, traced_clock,
                                   max_ops=len(op_s), fresh=lambda: fresh_traced(tracer))
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.problems
        traced_wall = traced_clock.calibrated(traced.start, traced.end)
        spans = tracer.aggregate()
        values = tracer.metrics(spans, traced_wall)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall_s
        wanted = spec["per_layer"]
        top = sorted(((v[1], k) for k, v in spans.items() if v[0]), reverse=True)[:15]
        for total, (layer, name) in top:
            calls, _, self_s = spans[(layer, name)]
            print(f"span {layer}.{name}: {calls} calls, {total:.3f} s, self {self_s:.3f} s")
        print(f"spans recorded {len(tracer.span_id)}")
    else:
        rounds = [sum(op_s[i:i + workload.round_ops])
                  for i in range(0, len(op_s) - workload.round_ops + 1, workload.round_ops)]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(rounds or [sum(op_s)]),
            "op_p50_ms": 1000 * percentile(op_s, 0.5),
            "op_p90_ms": 1000 * percentile(op_s, 0.9),
            "ops_per_s": len(op_s) / sum(op_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and attempted > 0
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"ops {len(op_s)}; attempted {attempted}; failed {failed}; "
          f"failed_share {failed / max(attempted, 1):.6g}; setup runs "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    for p in problems:
        print(f"problem {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
