"""One benchmark child process.

Usage: python perfbench/child.py CONFIG_JSON

CONFIG_JSON keys:
  mode      transform-session, biject-roundtrip or verify-inproc
  seed      workload seed
  seconds   length of the timed loop (sessions), or null
  requests  fixed number of requests instead of ``seconds``, or null;
            "domain" runs biject-roundtrip once over every tree
  samples   file for the latency samples (see Reservoir.write)
  trace     wrap the library in spans (see spans.py)
  spans     where to write the spans when tracing
  order     verify-inproc only: ``--order`` for a reduced-size smoke pass

The last line of stdout is one JSON object: setup_end_ns (the
CLOCK_MONOTONIC stamp when warm-up ended), readings (the session's own
host speed readings, see SameCpuSampler), attempted, failed, errors,
requests_passed, samples_kept, loop_s, peak_rss_mib and, when tracing,
the per-layer aggregate.  Imports of ``noncrossing`` come from PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from math import comb

from calibrate import INTERVAL_S
from spans import Tracer, install

MAX_ERRORS = 3
CALIBRATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibrate.py")


def _dumps(obj) -> str:
    # the CLI's encoding of one object (``cli._dump``)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj) -> str:
    return _dumps(obj.to_json_dict())


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def moment_request(rng: random.Random, order: int) -> str:
    """A rational moment sequence as the JSON text ``transform`` accepts.

    Same generator style as ``verify.seeded_moment_corpus``: a nonzero
    first numerator, numerators in -6..6, denominators in 1..4.
    """
    nonzero = [x for x in range(-6, 7) if x != 0]
    coeffs = []
    for i in range(order):
        num = rng.choice(nonzero) if i == 0 else rng.randint(-6, 6)
        coeffs.append(str(Fraction(num, rng.randint(1, 4))))
    return _dumps({"order": order, "coeffs": coeffs})


def catalan_request(order: int) -> str:
    return _dumps({"order": order, "coeffs": [str(catalan(n)) for n in range(1, order + 1)]})


class TransformSession:
    """Warm m2k/k2m at order 12 and m2t/t2m at order 9, then round-trip
    a cycle of seeded sequences; every 50th is the Catalan sequence."""

    ORDER_K = 12
    ORDER_T = 9
    CATALAN_EVERY = 50
    INPUTS = 300  # every child cycles through the same seeded inputs

    def __init__(self, cfg, emit):
        from noncrossing import jsonio, transforms

        self.jsonio, self.transforms, self.emit = jsonio, transforms, emit
        self.rng = random.Random(f"transform-session:{cfg['seed']}")
        self.catalan_text = catalan_request(self.ORDER_K)
        self.texts = [self.catalan_text]
        self.emitted_bytes = 0
        if not self.request(0):
            raise RuntimeError("warm-up round trip on the Catalan sequence failed")

    def request(self, i: int) -> bool:
        """Request i; requests must arrive in order 0, 1, 2, ..."""
        tr = self.transforms
        k = i % self.INPUTS
        if k == len(self.texts):
            catalan = k % self.CATALAN_EVERY == 0
            self.texts.append(self.catalan_text if catalan
                              else moment_request(self.rng, self.ORDER_K))
        text = self.texts[k]
        m = self.jsonio.parse_moments(json.loads(text))
        kappa = tr.moments_to_cumulants(m)
        ok = tr.cumulants_to_moments(kappa) == m
        m9 = tr.MomentSequence(m.values[: self.ORDER_T])
        t = tr.moments_to_tcoeffs(m9)
        ok = ok and tr.tcoeffs_to_moments(t) == m9
        if text is self.catalan_text:
            ok = ok and all(k == 1 for k in kappa.values)
        self.emitted_bytes += len(self.emit(kappa)) + len(self.emit(t))
        return ok


class BijectRoundtrip:
    """Enumerate all planar trees on 10 vertices and bicolor trees on 7,
    then round-trip them through theta or lambda, JSON and parse_ncl in a
    seeded order."""

    TREE_N = 10
    BICOLOR_N = 7

    def __init__(self, cfg, emit):
        from noncrossing import jsonio, trees

        self.jsonio, self.trees, self.emit = jsonio, trees, emit
        plain = trees.enumerate_planar_trees(self.TREE_N)
        bicolor = trees.enumerate_bicolor(self.BICOLOR_N)
        # Catalan(9) and C(19, 6) / 7
        want_plain = catalan(self.TREE_N - 1)
        want_bicolor = comb(3 * self.BICOLOR_N - 2, self.BICOLOR_N - 1) // self.BICOLOR_N
        if (len(plain), len(bicolor)) != (want_plain, want_bicolor):
            raise RuntimeError(
                f"enumerated {len(plain)} planar and {len(bicolor)} bicolor trees, "
                f"expected {want_plain} and {want_bicolor}"
            )
        items = [(False, t) for t in plain] + [(True, t) for t in bicolor]
        random.Random(f"biject-roundtrip:{cfg['seed']}").shuffle(items)
        self.items = items

    def request(self, i: int) -> bool:
        is_bicolor, tree = self.items[i % len(self.items)]
        tr = self.trees
        if is_bicolor:
            pi = tr.ncls_from_bicolor(tree)
            back = tr.bicolor_from_ncls(self.jsonio.parse_ncl(json.loads(self.emit(pi))))
        else:
            pi = tr.connected_from_tree(tree)
            back = tr.tree_from_connected(self.jsonio.parse_ncl(json.loads(self.emit(pi))))
        return back == tree


class SameCpuSampler:
    """``calibrate.py --on-demand``, pinned with this process to one CPU.

    Each CPU of a shared host drifts on its own, so the readings must come
    from the CPU the requests run on.  A reading is taken only when asked,
    between requests, so it takes no time from them.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # the sampler inherits the affinity
        self._proc = subprocess.Popen([sys.executable, CALIBRATE, "--on-demand"],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.readings: list[tuple[int, float]] = []

    def read(self) -> None:
        self._proc.stdin.write(b"r")
        self._proc.stdin.flush()
        t, ms = self._proc.stdout.readline().split()
        self.readings.append((int(t), float(ms)))

    def close(self) -> list[tuple[int, float]]:
        self._proc.stdin.close()
        self._proc.wait()
        return self.readings


def run_session(cfg, tracer, samples) -> dict:
    emit = tracer.wrap("jsonio.emit", _emit) if tracer else _emit
    kind = TransformSession if cfg["mode"] == "transform-session" else BijectRoundtrip
    session = kind(cfg, emit)
    setup_end_ns = time.monotonic_ns()
    if cfg.get("requests") == "domain":
        cfg = dict(cfg, requests=len(session.items))
    first = 1 if kind is TransformSession else 0  # request 0 was the warm-up
    sampler = SameCpuSampler()
    try:
        out = timed_loop(session.request, cfg, tracer, samples, sampler, first=first)
    finally:
        readings = sampler.close()
    out.update(setup_end_ns=setup_end_ns, readings=readings)
    return out


class Reservoir:
    """A uniform random sample of at most ``CAPACITY`` request latencies,
    with their start stamps.

    The arrays are allocated in full when the child starts, so the child's
    peak RSS does not depend on how many requests it completes.
    """

    CAPACITY = 20000

    def __init__(self):
        self.start_ns = array("q", bytes(8 * self.CAPACITY))
        self.ms = array("d", bytes(8 * self.CAPACITY))
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, start_ns: int, ms: float) -> None:
        j = self.seen
        self.seen += 1
        if j >= self.CAPACITY:
            j = self._rng.randrange(self.seen)
            if j >= self.CAPACITY:
                return
        self.start_ns[j] = start_ns
        self.ms[j] = ms

    def kept(self) -> int:
        return min(self.seen, self.CAPACITY)

    def write(self, path: str) -> None:
        """The kept start stamps (int64), then the kept latencies in ms
        (float64), in native byte order."""
        n = self.kept()
        with open(path, "wb") as fh:
            fh.write(memoryview(self.start_ns).cast("B")[: 8 * n])
            fh.write(memoryview(self.ms).cast("B")[: 8 * n])


def timed_loop(request, cfg, tracer, samples, sampler=None, first=0) -> dict:
    """Closed loop: the next request starts when the previous one ends.

    A request that raises or fails its check counts as failed and adds no
    latency sample.  Every ``INTERVAL_S``, between requests, ``sampler``
    takes a host speed reading; the parent scales each sample by the
    readings taken around its start stamp (calibrate.py).
    """
    errors = []
    failed = 0
    seconds, count = cfg.get("seconds"), cfg.get("requests")
    clock = time.monotonic_ns
    start = clock()
    next_reading = start
    i = first
    while (count is None and clock() - start < seconds * 1e9) or (
        count is not None and i - first < count
    ):
        if sampler and clock() >= next_reading:
            sampler.read()
            next_reading = clock() + INTERVAL_S * 1e9
        if tracer:
            tracer.request = i
        t0 = clock()
        try:
            ok = request(i)
            why = "output check failed"
        except Exception as exc:  # a failed request, not a failed benchmark
            ok = False
            why = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if ok:
            samples.add(t0, (t1 - t0) / 1e6)
        else:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(f"request {i}: {why}")
        i += 1
    if sampler:
        sampler.read()
    samples.write(cfg["samples"])
    return {
        "requests_passed": samples.seen,
        "samples_kept": samples.kept(),
        "attempted": i - first,
        "failed": failed,
        "errors": errors,
        "loop_s": (clock() - start) / 1e9,
    }


def run_verify_inproc(cfg, tracer, samples, import_s) -> dict:
    """``cli.main(["verify", "all", "--seed", s])`` in this process."""
    from noncrossing import cli

    argv = ["verify", "all", "--seed", str(cfg["seed"])]
    if cfg.get("order") is not None:
        argv += ["--order", str(cfg["order"])]
    buf = io.StringIO()

    def request(_i):
        buf.seek(0)
        buf.truncate()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        report = json.loads(buf.getvalue())
        entries = report["entries"]
        return rc == 0 and report["pass"] is True and bool(entries) and all(
            e["pass"] for e in entries
        )

    out = timed_loop(request, {**cfg, "requests": 1}, tracer, samples)
    out["import_s"] = import_s
    return out


def peak_rss_mib() -> float:
    """This process's own peak RSS (``VmHWM``).

    The rusage of a child from ``wait4`` is at least its parent's RSS at
    the spawn, because Linux carries the high-water mark across exec; the
    parent grows as it collects samples, so the figure would depend on it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    cfg = json.loads(argv[1])
    samples = Reservoir()  # before the import, so its size is in every RSS
    t = time.perf_counter_ns()
    import noncrossing.cli  # noqa: F401  (the whole package)

    import_s = (time.perf_counter_ns() - t) / 1e9
    tracer = originals = None
    if cfg.get("trace"):
        tracer = Tracer()
        originals = install(tracer)
    if cfg["mode"] == "verify-inproc":
        out = run_verify_inproc(cfg, tracer, samples, import_s)
    else:
        out = run_session(cfg, tracer, samples)
    if tracer:
        out["layers"] = tracer.aggregate()
        info = originals["partitions.kreweras"].cache_info()
        out["kreweras_cache"] = {"hits": info.hits, "misses": info.misses}
        out["spans"] = len(tracer.spans)
        tracer.write(cfg["spans"])
    out["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
