#!/usr/bin/env python3
"""Benchmark of the ``noncrossing`` library; see perfbench/README.md.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
  python3 perfbench/run.py --smoke

NAME is verify-all, transform-session or biject-roundtrip.  With
``--trace 0`` the run measures NAME for S seconds (default: run_seconds
of BENCHMARK.json), untraced, and reports the end-to-end metrics.  With
``--trace 1`` it runs the fixed-size traced pass of every workload, each
next to an untraced twin, and reports the per-layer metrics.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full run record (machine, code, seed, the
samples behind each median) goes to .perfbench/.

The workloads and metrics, with their units, come from BENCHMARK.json;
this file maps them to measurements.  ``--smoke`` runs one tiny request
per workload, traced and untraced, and checks each result against
BENCHMARK.json.

Children import ``noncrossing`` from ``src`` through PYTHONPATH; nothing
needs installing.  The run exits 2 without a result when ``src`` does not
hold the package or no request passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array

from calibrate import Readings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SESSION_CHILDREN = 5  # fresh processes per session run; setup_s is their median
IMPORT_PROBES = 15  # cold imports per verify-all run; setup_s is their median
RUN_BUDGET_S = 170  # every child is killed before the run passes this

# workload -> child config of its fixed-size traced pass
TRACED_PASS = {
    "verify-all": {"mode": "verify-inproc", "requests": 1},
    "transform-session": {"mode": "transform-session", "requests": 200},
    "biject-roundtrip": {"mode": "biject-roundtrip", "requests": "domain"},
}
SMOKE_PASS = {
    "verify-all": {"mode": "verify-inproc", "requests": 1, "order": 2},
    "transform-session": {"mode": "transform-session", "requests": 1},
    "biject-roundtrip": {"mode": "biject-roundtrip", "requests": 2},
}


class BenchError(Exception):
    """The benchmark cannot run here (no result is printed)."""


def load_spec() -> dict:
    try:
        with open(SPEC) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc


def layer_metrics(spec):
    """(name, workload, layer, field, unit) for every per-layer metric.

    A per-layer metric is named ``<workload>.<layer>.<field>``; the layer
    may be empty or dotted, the field is the last part.
    """
    for m in spec["per_layer"]:
        workload, rest = m["name"].split(".", 1)
        layer, _, field = rest.rpartition(".")
        yield m["name"], workload, layer, field, m["unit"]


# ---------------------------------------------------------------------------
# child processes


class Budget:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


class SpeedSampler:
    """The calibrate.py process, which reads the host's speed while a run
    measures.  ``stop`` ends it and returns its readings."""

    def __init__(self):
        os.makedirs(OUT, exist_ok=True)
        self._out = tempfile.TemporaryFile(dir=OUT)
        self._proc = subprocess.Popen([sys.executable, CALIBRATE], stdout=self._out,
                                      stderr=subprocess.DEVNULL, cwd=ROOT)
        self._readings = None

    def stop(self) -> Readings:
        if self._readings is None:
            self._proc.terminate()
            self._proc.wait()
            self._out.seek(0)
            pairs = [line.split() for line in self._out.read().decode().splitlines()]
            self._out.close()
            self._readings = Readings((int(t), float(ms)) for t, ms in pairs)
        return self._readings


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, budget: Budget) -> dict:
    """Run one child to completion and take its rusage with ``wait4``.

    ``RUSAGE_CHILDREN`` would give the maximum over every child so far, so
    a cold child's peak RSS comes from its own ``wait4`` record.  That
    figure is at least this process's RSS at the spawn (Linux carries the
    high-water mark across exec); cold ``verify all`` children peak far
    above it.  Children of child.py report their own peak instead.
    """
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(budget.left(), proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "rc": proc.returncode,
        "stdout": out.decode(errors="replace"),
        "stderr": stderr.strip().splitlines()[-1:] if stderr.strip() else [],
        "start_ns": start,
        "end_ns": end,
        "rss_mib": usage.ru_maxrss / 1024,
    }


def read_samples(path) -> list[tuple[int, float]]:
    """(start stamp, raw ms) pairs written by child.Reservoir.write."""
    starts, ms = array("q"), array("d")
    with open(path, "rb") as fh:
        data = fh.read()
    half = len(data) // 2
    starts.frombytes(data[:half])
    ms.frombytes(data[half:])
    return list(zip(starts, ms))


def run_child(cfg, budget: Budget) -> dict:
    """Start ``child.py`` with ``cfg``; returns its result or an error."""
    cfg = dict(cfg, samples=os.path.join(OUT, "samples.bin"))
    if os.path.exists(cfg["samples"]):
        os.remove(cfg["samples"])
    proc = spawn([sys.executable, CHILD, json.dumps(cfg)], budget)
    result = None
    if proc["rc"] == 0 and proc["stdout"].strip():
        try:
            result = json.loads(proc["stdout"].strip().splitlines()[-1])
            result["samples"] = read_samples(cfg["samples"])
        except (json.JSONDecodeError, OSError):
            result = None
    if result is None:
        why = proc["stderr"] or [f"exit code {proc['rc']}"]
        result = {"crashed": True, "attempted": 1, "failed": 1, "samples": [],
                  "errors": [f"{cfg['mode']} child: {why[-1]}"]}
    result["start_ns"] = proc["start_ns"]
    return result


def scaled_ms(result, shared: Readings) -> list[float]:
    """Each raw latency of a child scaled by the readings taken around it.

    A session child takes its own readings on its own CPU; a child that
    cannot pause between requests (verify-inproc) uses the shared sampler's.
    """
    readings = Readings(result["readings"]) if result.get("readings") else shared
    return [ms * readings.factor(t, t + int(ms * 1e6)) for t, ms in result["samples"]]


def import_probe(budget: Budget) -> dict:
    """A fresh interpreter that imports ``noncrossing.cli``."""
    proc = spawn([sys.executable, "-c", "import noncrossing.cli"], budget)
    if proc["rc"] != 0:
        raise BenchError(f"cannot import noncrossing from {SRC}: {proc['stderr']}")
    return proc


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q):
    """Inclusive-method percentile; a single sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarise(latencies, setups, rss, attempted, failed) -> dict:
    if not latencies:
        raise BenchError("no request succeeded, so no latency can be reported")
    return {
        "setup_s": statistics.median(setups),
        "request_p50_ms": statistics.median(latencies),
        "request_p90_ms": percentile(latencies, 90),
        "requests_per_s": 1e3 * len(latencies) / sum(latencies),
        "peak_rss_mib": statistics.median(rss),
        "success_ratio": (attempted - failed) / attempted,
    }


# ---------------------------------------------------------------------------
# end-to-end runs (untraced)


def verify_text_ok(text: str) -> bool:
    """Every line is PASS; the last is ``PASS <k> identities`` for k lines."""
    lines = text.splitlines()
    if len(lines) < 2:
        return False
    *entries, last = lines
    return all(line.startswith("PASS [") for line in entries) and (
        last == f"PASS {len(entries)} identities"
    )


def run_verify_all(seed, seconds, budget, sampler, smoke=False) -> tuple[dict, dict]:
    """Closed loop of cold ``python -m noncrossing verify all`` subprocesses.

    Every request of a run checks the same seed-derived verify seed.
    """
    import_probe(budget)  # untimed: compiles .pyc before the first sample
    probes = [import_probe(budget) for _ in range(1 if smoke else IMPORT_PROBES)]
    vseed = random.Random(f"verify-all:{seed}").randrange(10**6)
    argv = [sys.executable, "-m", "noncrossing", "verify", "all",
            "--seed", str(vseed), "--format", "text"]
    if smoke:
        argv += ["--order", "2"]
    passed, errors = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and not (smoke and attempted):
        proc = spawn(argv, budget)
        attempted += 1
        if proc["rc"] == 0 and verify_text_ok(proc["stdout"]):
            passed.append(proc)
        else:
            failed += 1
            errors.append(f"verify seed {vseed}: exit {proc['rc']} {proc['stderr']}")
    loop_s = time.perf_counter() - start
    readings = sampler.stop()

    def wall(p):
        return p["end_ns"] - p["start_ns"]

    raw_setups = [wall(p) / 1e9 for p in probes]
    setups = [wall(p) / 1e9 * readings.factor(p["start_ns"], p["end_ns"]) for p in probes]
    raw = [wall(p) / 1e6 for p in passed]
    latencies = [wall(p) / 1e6 * readings.factor(p["start_ns"], p["end_ns"]) for p in passed]
    rss = [p["rss_mib"] for p in passed]
    metrics = summarise(latencies, setups, rss, attempted, failed)
    record = {"attempted": attempted, "failed": failed, "errors": errors[:5],
              "verify_seed": vseed, "loop_s": loop_s,
              "samples": {"setup_s": setups, "request_ms": latencies, "peak_rss_mib": rss,
                          "raw_setup_s": raw_setups, "raw_request_ms": raw,
                          "setup_reference_ms": [readings.between(p["start_ns"], p["end_ns"])
                                                 for p in probes],
                          "reference_ms": [readings.between(p["start_ns"], p["end_ns"])
                                           for p in passed]}}
    return metrics, record


def run_session(workload, seed, seconds, budget, sampler, smoke=False) -> tuple[dict, dict]:
    """Each child: import, warm up (its setup_s), then a share of the loop.

    The percentiles pool the children's samples of scaled latencies.
    """
    parts = 1 if smoke else SESSION_CHILDREN
    results = []
    for _ in range(parts):
        cfg = {"mode": workload, "seed": seed,
               "seconds": None if smoke else seconds / parts,
               "requests": 1 if smoke else None}
        results.append(run_child(cfg, budget))
    readings = sampler.stop()
    ok = [r for r in results if not r.get("crashed")]
    if not ok:
        raise BenchError(f"every {workload} child failed: {results[0]['errors']}")
    latencies = [ms for r in ok for ms in scaled_ms(r, readings)]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    raw_setups = [(r["setup_end_ns"] - r["start_ns"]) / 1e9 for r in ok]
    setups = [s * readings.factor(r["start_ns"], r["setup_end_ns"])
              for s, r in zip(raw_setups, ok)]
    rss = [r["peak_rss_mib"] for r in ok]
    metrics = summarise(latencies, setups, rss, attempted, failed)
    record = {"attempted": attempted, "failed": failed,
              "errors": [e for r in results for e in r["errors"]][:5],
              "requests_passed": sum(r["requests_passed"] for r in ok),
              "samples_kept": len(latencies),
              "samples": {"setup_s": setups, "request_ms": latencies, "peak_rss_mib": rss,
                          "loop_s": [r["loop_s"] for r in ok],
                          "raw_setup_s": raw_setups,
                          "setup_reference_ms": [
                              readings.between(r["start_ns"], r["setup_end_ns"]) for r in ok],
                          "raw_request_ms": [ms for r in ok for _, ms in r["samples"]],
                          "reference_ms": [[ms for _, ms in r["readings"]] for r in ok]}}
    return metrics, record


# ---------------------------------------------------------------------------
# traced run


def traced_passes(spec, seed, budget, sampler, smoke=False) -> tuple[dict, dict]:
    """Fixed-size pass of every workload, untraced then traced.

    Request counts do not depend on time, so call and object counts
    repeat from run to run.  verify-all runs in-process as
    ``cli.main(["verify", "all", "--seed", s])`` so its calls can be traced.
    """
    wanted = list(layer_metrics(spec))
    workloads = list(dict.fromkeys(wl for _, wl, _, _, _ in wanted))
    passes = SMOKE_PASS if smoke else TRACED_PASS
    record = {"attempted": 0, "failed": 0, "errors": [], "passes": {}}
    runs = {}
    for workload in workloads:
        cfg = dict(passes[workload], seed=seed, seconds=None,
                   spans=os.path.join(OUT, f"spans-{workload}.tsv"))
        plain = run_child(dict(cfg, trace=False), budget)
        traced = run_child(dict(cfg, trace=True), budget)
        for r in (plain, traced):
            record["attempted"] += r["attempted"]
            record["failed"] += r["failed"]
            record["errors"] += r["errors"]
        if plain.get("crashed") or traced.get("crashed") or not (
            plain["samples"] and traced["samples"]
        ):
            raise BenchError(f"traced pass of {workload} failed: {record['errors'][-2:]}")
        runs[workload] = (cfg, plain, traced)
    readings = sampler.stop()
    metrics = {}
    for workload, (cfg, plain, traced) in runs.items():
        untraced_ms = scaled_ms(plain, readings)
        traced_ms = scaled_ms(traced, readings)
        overhead = statistics.median(traced_ms) - statistics.median(untraced_ms)
        for name, wl, layer, field, _ in wanted:
            if wl == workload:
                metrics[name] = layer_value(traced, layer, field, overhead)
        record["passes"][workload] = {
            "spans": traced["spans"], "spans_file": cfg["spans"],
            "layers": traced["layers"], "kreweras_cache": traced["kreweras_cache"],
            "samples": {"untraced_request_ms": untraced_ms, "traced_request_ms": traced_ms},
        }
    return metrics, record


def layer_value(result, layer, field, overhead_ms):
    if field == "trace_overhead_ms":
        return overhead_ms
    if field == "import_s":
        return result["import_s"]
    if field == "hit_ratio":
        cache = result["kreweras_cache"]
        return cache["hits"] / max(1, cache["hits"] + cache["misses"])
    if field == "words_checked":
        layer = "freeness.vanishing"
    agg = result["layers"].get(layer, {"calls": 0, "self_ns": 0, "total_ns": 0,
                                       "objects": 0, "first_ns": 0})
    return {
        "calls": agg["calls"],
        "objects": agg["objects"],
        "identities": agg["objects"],
        "words_checked": agg["objects"],
        "self_s": agg["self_ns"] / 1e9,
        "s": agg["total_ns"] / 1e9,
        "first_call_s": agg["first_ns"] / 1e9,
    }[field]


# ---------------------------------------------------------------------------
# result and run record


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "implementation": sys.implementation.name}


def code_identity() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "noncrossing")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def measure(spec, workload, seed, seconds, trace, smoke=False) -> dict:
    """One run: returns the result object printed as the last line."""
    if not os.path.isfile(os.path.join(SRC, "noncrossing", "__init__.py")):
        raise BenchError(f"no noncrossing package under {SRC}")
    budget = Budget(RUN_BUDGET_S)
    sampler = SpeedSampler()
    try:
        if trace:
            metrics, record = traced_passes(spec, seed, budget, sampler, smoke)
        elif workload == "verify-all":
            metrics, record = run_verify_all(seed, seconds, budget, sampler, smoke)
        else:
            metrics, record = run_session(workload, seed, seconds, budget, sampler, smoke)
    finally:
        sampler.stop()
    specs = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  smoke=smoke, machine=machine(), code=code_identity(),
                  metrics=metrics,
                  error_rate=record["failed"] / max(1, record["attempted"]))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"record-{workload}-trace{int(trace)}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for name, unit in specs:
        print(f"{workload:18} {name:58} {metrics[name]:>14.6g} {unit}")
    print(f"{workload:18} {'error_rate':58} {record['error_rate']:>14.6g} "
          f"({record['failed']}/{record['attempted']})  record: {os.path.relpath(path, ROOT)}")
    for err in record["errors"][:3]:
        print(f"{workload:18} error: {err}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }


# ---------------------------------------------------------------------------
# smoke test


def check_schema(spec, result, trace) -> list[str]:
    """Differences between a result object and BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number of at least 1")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metric names or units differ: {sorted(set(got) ^ set(want))}")
    for name, value in result["metrics"].items():
        if set(value) != {"value", "unit"} or isinstance(value["value"], bool) or not (
            isinstance(value["value"], (int, float))
        ):
            problems.append(f"{name}: {value}")
    return problems


def smoke(spec) -> int:
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, names in ((0, workloads), (1, workloads[:1])):
        for workload in names:
            result = measure(spec, workload, 1, 1, trace, smoke=True)
            problems += [f"{workload} trace {trace}: {p}"
                         for p in check_schema(spec, result, trace)]
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: output check failed")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny request per workload and a schema check")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            parser.error("--workload is required")
        for workload in (workloads if args.workload == "all" and not args.trace
                         else (args.workload,)):
            result = measure(spec, workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
