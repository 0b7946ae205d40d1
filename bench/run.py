"""Benchmark of the subalg library: one workload, one seed, one run.

    python3 bench/run.py --workload roundtrip --seed 7 --seconds 20 --trace 0

Run from anywhere; the library is imported from ../src relative to this
file, never from an installed copy.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 times the first ceil(seconds * rate) items of the workload's
stream, where rate is its item rate when the benchmark was written
(workloads.py), and reports the end-to-end metrics, their times scaled to
a nominal host speed measured while they run (hostspeed.py).  --trace 1
runs the first ``trace_items`` items of the same stream twice, plainly and
under cProfile, and reports the per-layer metrics of the profiled pass (see
layers.py).  Exit status is 0 on success, 1 on a wrong answer (the result
line then says correct: false) and on any failure to set up.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Sampler  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 7        # set-ups per run: this process plus 6 children
DEFAULT_SEED = 20261017
INPUTS_AHEAD = 256       # inputs generated during set-up


class Aborted(Exception):
    """A wrong answer or an unexpected exception stops the run."""


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import subalg
    except ImportError as exc:
        sys.exit(f"bench: cannot import subalg from {SRC}: {exc}")
    if Path(subalg.__file__).resolve().parent != SRC / "subalg":
        sys.exit(f"bench: subalg imported from {subalg.__file__}, "
                 f"not from {SRC}")


def set_up(name, seed):
    """Import, case tables, input generation and one warm-up item."""
    import_library()
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    stream = workload.stream(seed)
    inputs = [stream(k) for k in range(INPUTS_AHEAD)]
    workload.check(workload.warmup, workload.run(workload.warmup))
    return workload, lambda k: inputs[k] if k < len(inputs) else stream(k)


def child_setup_s(name, seed):
    """(unscaled, scaled) set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Meter:
    """Runs items one by one: times them, counts typed library failures
    and checks every output outside the timed region."""

    def __init__(self, workload, sampler=None):
        self.workload = workload
        self.sampler = sampler    # a hostspeed.Sampler in the timed run
        self.profile = None       # a cProfile.Profile in the traced pass
        self.times = []
        self.scaled = []          # item times at nominal host speed
        self.errors = Counter()
        self.outputs = []

    def item(self, inp):
        from subalg import SubalgError
        from workloads import WrongAnswer
        out = None
        if self.profile:
            self.profile.enable()
        start = time.perf_counter()
        if self.sampler:
            self.sampler.start()
        try:
            out = self.workload.run(inp)
        except SubalgError as exc:
            self.errors[type(exc).__name__] += 1
        except Exception as exc:
            traceback.print_exc()
            raise Aborted(f"untyped exception on {inp}: {exc!r}") from exc
        finally:
            if self.sampler:
                self.sampler.stop()
            wall = time.perf_counter() - start
            if self.profile:
                self.profile.disable()
            work, scaled = self.sampler.measured(wall) if self.sampler \
                else (wall, wall)
            self.times.append(work)
            self.scaled.append(scaled)
        if out is not None:
            try:
                self.workload.check(inp, out)
            except WrongAnswer as exc:
                raise Aborted(f"wrong answer on {inp}: {exc}") from exc
        if self.profile:
            self.outputs.append(out)


def item_count(workload, seconds):
    return math.ceil(seconds * workload.rate)


def timed_run(meter, inputs, seconds):
    """The first item_count items, unless they take 3x longer."""
    count = item_count(meter.workload, seconds)
    for k in range(count):
        if sum(meter.times) > 3 * seconds:
            print(f"stopped after {k} of {count} items: over {3 * seconds} s")
            break
        meter.item(inputs(k))


def traced_run(meter, inputs):
    """Plain and profiled passes over the first trace_items inputs."""
    from layers import error_metrics, layer_metrics
    n = meter.workload.trace_items
    plain = Meter(meter.workload)
    for k in range(n):
        plain.item(inputs(k))
    meter.profile = cProfile.Profile()
    for k in range(n):
        meter.item(inputs(k))
    metrics = layer_metrics(pstats.Stats(meter.profile).stats, SRC / "subalg")
    metrics.update(error_metrics(meter.errors, n))
    points = [pt for out in meter.outputs for pt in spectrum_points(out)]
    metrics["spectrum.exact_share"] = \
        sum(1 for pt in points if pt.exact) / len(points) if points else 0.0
    ratio = sum(meter.times) / sum(plain.times)
    metrics["trace.overhead_ratio"] = ratio
    print(f"traced {n} items: {sum(meter.times):.2f} s profiled, "
          f"{sum(plain.times):.2f} s plain, overhead x{ratio:.2f}")
    return metrics


def spectrum_points(out):
    """Spectrum points an item produced, or its algebra's (cached by then
    in roundtrip and derivations, computed here otherwise)."""
    from subalg import SubalgError
    if out is None:
        return []
    if "spectrum" in out:
        return out["spectrum"]
    if "algebra" in out:
        try:
            return out["algebra"].spectrum()
        except SubalgError:
            return []
    return []


def source_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "subalg").rglob("*.py")))


def timing(times, pct):
    """items per second, median and p`pct` of item times."""
    tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1] \
        if len(times) > 1 else times[0]
    return len(times) / sum(times), statistics.median(times), tail


def end_to_end(meter, setups, planned):
    """The six end-to-end metrics, timings from the scaled item times.  The
    tail percentile is the highest with at least ten of the planned items
    beyond it, and at least the median."""
    errors = meter.errors
    n = len(meter.times)
    pct = max(50, math.floor(100 * (1 - 10 / planned)))
    rate, p50, tail = timing(meter.scaled, pct)
    raw = timing(meter.times, pct)
    beyond = sum(1 for t in meter.scaled if t > tail)
    failed = sum(errors.values())
    print(f"{n} items in {sum(meter.times):.2f} s of item work "
          f"({sum(meter.scaled):.2f} s scaled), {failed} failed "
          f"{dict(sorted(errors.items()))}")
    print(f"host speed: {sum(meter.times) / sum(meter.scaled):.3f} x nominal "
          f"time; unscaled items_per_s {raw[0]:.4f}, item_p50_s "
          f"{raw[1]:.4f}, item_tail_s {raw[2]:.4f}")
    print(f"item_tail_s is p{pct} of {n} items ({beyond} beyond it)")
    print("setup_s runs, scaled (unscaled): " + ", ".join(
        f"{s:.4f} ({w:.4f})" for w, s in setups))
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "items_per_s": (rate, "1/s"),
        "item_p50_s": (p50, "s"),
        "item_tail_s": (tail, "s"),
        "ok_ratio": (1 - failed / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("roundtrip", "derivations", "charpoly"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sampler = Sampler()
    sampler.start()
    try:
        workload, inputs = set_up(args.workload, args.seed)
    finally:
        sampler.stop()
    setup = sampler.measured(time.perf_counter() - _T0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    print(f"workload {args.workload}, seed {args.seed}, "
          f"src/subalg {source_lines()} lines")
    meter = Meter(workload, None if args.trace else sampler)
    result = {"correct": True}
    status = 0
    try:
        if args.trace:
            from layers import metric_specs
            values = traced_run(meter, inputs)
            metrics = {name: (values[name], unit)
                       for name, unit, _ in metric_specs()}
        else:
            setups = [setup] + [child_setup_s(args.workload, args.seed)
                                  for _ in range(SETUP_REPEATS - 1)]
            timed_run(meter, inputs, args.seconds)
            metrics = end_to_end(meter, setups,
                                 item_count(workload, args.seconds))
    except Aborted as exc:
        print(f"bench: {exc}", file=sys.stderr)
        result["correct"] = False
        status = 1
        metrics = {}
    result.update(attempted=len(meter.times),
                  failed=sum(meter.errors.values()),
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
