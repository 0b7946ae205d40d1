"""Tests of the benchmark itself (not of the library).

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from subalg import construct_case  # noqa: E402
from subalg.errors import SubalgError  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, WrongAnswer  # noqa: E402


def _canonical(inp):
    if isinstance(inp, workloads.Draw):
        return (inp.label, {k: str(v) for k, v in inp.params.items()},
                inp.expected)
    return inp


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    make = WORKLOADS[name].stream
    a, b, c = make(5), make(5), make(6)
    first = [_canonical(a(k)) for k in range(80)]
    assert first == [_canonical(b(k)) for k in range(80)]
    assert first != [_canonical(c(k)) for k in range(80)]


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 3])
def test_rational_roundtrip_inputs_construct(seed):
    """Images never degenerate: a degenerate one is a generator bug."""
    stream = WORKLOADS["roundtrip"].stream(seed)
    for k in range(60):
        draw = stream(k)
        if not draw.number_field:
            construct_case(draw.label, draw.params)


def test_checks_reject_wrong_answers():
    pair = WORKLOADS["charpoly"]
    out = pair.run(pair.warmup)
    pair.check(pair.warmup, out)
    with pytest.raises(WrongAnswer):
        pair.check(pair.warmup, dict(out, codim=out["codim"] + 1))
    with pytest.raises(WrongAnswer):
        pair.check(pair.warmup, dict(out, probes=[True, True, True]))
    trip = WORKLOADS["roundtrip"]
    out = trip.run(trip.warmup)
    with pytest.raises(WrongAnswer):
        trip.check(trip.warmup, dict(out, equal=False))


def _traced_counts(name):
    """Counts of a short traced run in a fresh process."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
        "from dataclasses import replace; "
        f"w, inputs = run.set_up({name!r}, 1); "
        "m = run.Meter(replace(w, trace_items=6)); "
        "print(json.dumps(run.traced_run(m, inputs)))")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v for k, v in metrics.items()
            if k.endswith(("_calls", "_ops", "_new", "_mul", "_inverse",
                           "basis_builds")) or k.startswith("errors.")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    first = _traced_counts(name)
    assert first["fields.fraction_new"] > 0
    assert first == _traced_counts(name)


def test_fails_without_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "charpoly",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_metric_listed():
    from layers import metric_specs
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in listed["per_layer"]] == \
        [name for name, _, _ in metric_specs()]
    assert [w["name"] for w in listed["workloads"]] == list(WORKLOADS)


def test_typed_failures_are_counted():
    def boom(_):
        raise SubalgError("boom")

    meter = run.Meter(replace(WORKLOADS["charpoly"], run=boom))
    meter.item(None)
    assert meter.errors == {"SubalgError": 1} and len(meter.times) == 1


def test_sampler_scales_by_reference_speed():
    """Work timed under the sampler is wall time minus the reference units
    it ran, scaled by their speed; the same work reads alike twice."""
    sampler = hostspeed.Sampler()
    scaled = []
    for _ in range(2):
        start = time.perf_counter()
        sampler.start()
        while time.perf_counter() - start < 0.2:
            hostspeed.reference_unit()
        sampler.stop()
        wall = time.perf_counter() - start
        assert sampler.units > 10
        work, value = sampler.measured(wall)
        assert 0 < work < wall
        assert value == pytest.approx(
            work * hostspeed.REF_UNIT_S * sampler.units / sampler.ref_s)
        scaled.append(value)
    assert scaled[0] == pytest.approx(scaled[1], rel=0.5)
