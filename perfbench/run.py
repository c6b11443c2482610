"""Benchmark of the normcensus CLI: end-to-end metrics per workload, and
per-layer metrics from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-d34 --seed 1 --seconds 15 --trace 0

One process drives normcensus.cli.main in-process, one command at a time in
a closed loop, with the program's default thread count.  Every output is
checked against perfbench/oracles.py outside the timed region, and every
command's time is scaled for machine speed (perfbench/kernel.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Results and spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import kernel
from tracing import Tracer, metric_names
from workloads import WORKLOADS

SETUP_LAUNCHES = 5
MIN_COMMANDS = 100
OUT_DIR = os.path.join("perfbench", "out")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# --- set-up ----------------------------------------------------------------

def launch_import(src: str, extra: tuple[str, ...] = ()) -> tuple[float, str]:
    """Start a fresh interpreter that imports normcensus.cli; return its wall
    time and its stderr."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", "import normcensus.cli"],
                          env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"importing normcensus.cli failed:\n{proc.stderr}")
    return wall, proc.stderr


def setup_seconds(src: str) -> float:
    """Median cold-start wall time.  Not scaled by the kernel: import time
    (file access, extension loading) follows the kernel only loosely, and
    scaling it widened its run-to-run spread (README.md)."""
    launch_import(src)  # writes the bytecode caches; not counted
    return statistics.median(launch_import(src)[0] for _ in range(SETUP_LAUNCHES))


def import_times(src: str) -> dict[str, float]:
    """Seconds spent importing scipy and numpy modules (the sum of their self
    times under -X importtime), median of three launches; unscaled, like
    setup_s."""
    runs = []
    for _ in range(3):
        _, err = launch_import(src, ("-X", "importtime"))
        tot = {"scipy": 0.0, "numpy": 0.0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            if not parts[0].strip().isdigit():
                continue  # the header line
            top = parts[2].strip().split(".")[0]
            if top in tot:
                tot[top] += int(parts[0]) * 1e-6
        runs.append(tot)
    return {f"setup.import_{k}_s": statistics.median(r[k] for r in runs) for k in ("scipy", "numpy")}


# --- the closed loop -------------------------------------------------------

class Runner:
    def __init__(self, workload, cli) -> None:
        self.workload = workload
        self.cli = cli
        # every lru_cache of the library, by "module.function"
        self.caches = {
            f"{obj.__module__}.{obj.__qualname__}": obj
            for name, mod in sys.modules.items()
            if name.startswith("normcensus")
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
        }
        self.misses = dict.fromkeys(self.caches, 0)
        self.unexpected: list[str] = []
        self.command = 0

    def clear_caches(self) -> None:
        for key, c in self.caches.items():
            self.misses[key] += c.cache_info().misses
            c.cache_clear()

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a failed benchmark
                rc = 1
                err.write(traceback.format_exc())
        return rc, out.getvalue() + err.getvalue() if rc else out.getvalue()

    def run(self, seconds: float = 0.0, min_commands: int = 0, rounds: int | None = None,
            tracer: Tracer | None = None) -> dict:
        """Run whole rounds until the commands have taken `seconds` normalised
        seconds and `min_commands` ran, or exactly `rounds` rounds."""
        wall, before, after, ids = [], [], [], []
        items = failed = r = 0
        spent = 0.0  # normalised seconds, by the adjacent kernel times alone
        while (spent < seconds or len(wall) < min_commands) if rounds is None else r < rounds:
            for op in self.workload.round(r):
                if op.group_start:
                    self.clear_caches()
                    gc.collect()  # start each group on a clean heap, as a fresh process does
                self.command += 1
                if tracer is not None:
                    tracer.command = self.command
                (rc, text), w, kb, ka = kernel.timed(self.invoke, op.argv)
                wall.append(w)
                before.append(kb)
                after.append(ka)
                ids.append(self.command)
                spent += w * kernel.NOMINAL_S * 2 / (kb + ka)
                err = f"exit code {rc}: {text.strip()[-300:]}" if rc else None
                if err is None:
                    report = json.loads(text)
                    err = op.check(report)
                    if err is None:
                        items += op.items(report)
                if err is not None:
                    failed += 1
                    if not op.known_fault:
                        self.unexpected.append(f"{' '.join(op.argv)}: {err}")
            r += 1
        norm = kernel.normalise(wall, before, after)
        return {"wall": wall, "norm": norm, "items": items, "failed": failed, "rounds": r,
                "scale": {c: n / w for c, n, w in zip(ids, norm, wall) if w > 0}}


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the set-up launches
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


# --- main ------------------------------------------------------------------

def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "normcensus", "cli.py")):
        fail(f"no normcensus sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    os.environ.pop("NORMCENSUS_THREADS", None)  # the program's default

    kernel.kernel_time()  # warm up
    setup_s = setup_seconds(src)
    layer_setup = import_times(src) if args.trace else {}

    import normcensus.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        fail(f"imported normcensus from {cli.__file__}, not from {src}")

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, cli)
    gc.collect()
    gc.freeze()  # keep start-up objects out of the collections timed below

    if not args.trace:
        recs = runner.run(args.seconds, MIN_COMMANDS)
        norm = recs["norm"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (recs["items"] / sum(norm), "1/s"),
            "op_p50_ms": (statistics.median(norm) * 1e3, "ms"),
            "op_p90_ms": (quantile(norm, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        detail = {"wall_total_s": sum(recs["wall"]), "norm_total_s": sum(norm),
               "wall_p50_ms": statistics.median(recs["wall"]) * 1e3, "wall_p90_ms": quantile(recs["wall"], 0.9) * 1e3}
        runs = [recs]
    else:
        # the same rounds untraced, then traced: their time ratio is the
        # tracing overhead
        plain = runner.run(args.seconds / 2, MIN_COMMANDS // 2)
        runner.clear_caches()
        misses_before = dict(runner.misses)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run(rounds=plain["rounds"], tracer=tracer)
            runner.clear_caches()
        finally:
            tracer.uninstall()
        n_ops, n_items = len(traced["norm"]), max(traced["items"], 1)
        calls = tracer.calls()
        selfs = tracer.self_times(traced["scale"])
        misses = {k: v - misses_before[k] for k, v in runner.misses.items()}
        metrics = {}
        for name, unit in metric_names():
            base, field = name.rsplit(".", 1)
            if field == "calls":
                val = calls[base] / n_ops
            elif field == "per_item":
                val = calls[base] / n_items
            elif field == "self_s":
                val = selfs.get(base, 0.0) / n_ops
            else:  # misses
                val = misses.get(f"normcensus.{base}", 0) / n_ops
            metrics[name] = (val, unit)
        for name, val in layer_setup.items():
            metrics[name] = (val, "s")
        metrics["trace.overhead_ratio"] = (sum(traced["norm"]) / sum(plain["norm"]), "ratio")
        detail = {"spans": len(tracer.spans)}
        runs = [plain, traced]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    attempted = sum(len(r["norm"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    for msg in runner.unexpected[:10]:
        print(f"perfbench: unexpected failure: {msg}", file=sys.stderr)
    result = {
        "correct": not runner.unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, detail=detail, rounds=[r["rounds"] for r in runs]), fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
