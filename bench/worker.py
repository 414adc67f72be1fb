"""One fresh workload process: set up, run the closed loop, print a JSON summary.

Usage (from the checkout root, normally started by run.py):

    python3 bench/worker.py --workload pair-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/worker.py --workload pair-sweep --seed 1 --setup-only

The summary's ``ready_ns`` is the monotonic clock reading just before the
first timed operation; run.py subtracts its spawn time to get setup time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from time import perf_counter, perf_counter_ns, process_time_ns

import numpy as np

import tracing
from workloads import WORKLOADS

OUT_DIR = ".bench_runs"  # scratch files and span dumps, inside the checkout


def import_qpolar(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qpolar

    if not os.path.abspath(qpolar.__file__).startswith(os.path.join(src, "qpolar") + os.sep):
        raise SystemExit(f"qpolar was imported from {qpolar.__file__}, not from {src}")
    return qpolar


# Timing statistics are taken per window of whole cycle groups holding at
# least this many operations, and the median over a run's windows is
# reported. On a shared 2-CPU virtual machine single operations are slowed
# by 1-8 ms a few times a second; over a whole run of ~5000 millisecond
# operations the tail percentile then lands on those pauses
# (uncertainty-sweep tail spread 0.34 over ten seeds), while in a
# 500-operation window it stays below them (spread 0.06).
WINDOW_OPS = 500

# The same machine also runs 20-45% faster or slower for seconds to minutes
# at a time, and CPU time moves with it: five 30-second uncertainty-sweep runs
# in a row spread 0.22 in their median operation time. In-process operations are
# therefore timed against a speed probe, a fixed kernel of the calls qpolar's
# in-process work is made of (small dense eigen, Cholesky and solve, a
# 1024-point FFT, small matrix products) on fixed inputs, timed once per
# cycle. Its time moves with the machine, not with qpolar; timings are
# reported at the probe's nominal speed, scaled by PROBE_NOMINAL_NS over the
# run's median probe time. Over eight 10-second runs this took the spread of
# the median from 0.226 to 0.038.
PROBE_NOMINAL_NS = 700_000
_PROBE_RNG = np.random.default_rng(0)
_PROBE_S = _PROBE_RNG.standard_normal((12, 12))
_PROBE_S = _PROBE_S @ _PROBE_S.T + 12.0 * np.eye(12)
_PROBE_V = _PROBE_RNG.standard_normal(1024)
_PROBE_M = _PROBE_RNG.standard_normal((6, 6))


def speed_probe_ns() -> int:
    """CPU time of the fixed probe kernel."""
    t0 = process_time_ns()
    for _ in range(8):
        np.linalg.eigvalsh(_PROBE_S)
        np.linalg.cholesky(_PROBE_S)
        np.linalg.solve(_PROBE_S, _PROBE_V[:12])
        np.fft.fft(_PROBE_V)
        _PROBE_M @ _PROBE_M.T
    return process_time_ns() - t0


class Tally:
    """Outcome and latency of every operation in one measured phase."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.probe_ns: list[int] = []  # one speed probe per cycle, for CPU-timed workloads
        self.group_ends: list[int] = []  # operation count at the end of each cycle group
        self.failed = self.band = self.band_verdicts = self.band_misses = 0
        self.routes = self.route_agree = 0
        self.notes: list[str] = []

    def record(self, op, ok: bool, error, routes, band_exact) -> None:
        if routes is not None:
            self.routes += 1
            self.route_agree += len(set(routes)) == 1
        self.band += op.band
        if band_exact is not None:
            self.band_verdicts += 1
            self.band_misses += not band_exact
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                what = f"raised {error!r}" if error else "disagrees with oracle"
                self.notes.append(f"{op.kind}{' (band)' if op.band else ''}: {what}")

    def windows(self) -> list[np.ndarray]:
        """Latencies (ms) cut at group ends into windows of at least WINDOW_OPS operations."""
        lat = np.array(self.latency_ns, dtype=float) / 1e6
        cuts, start = [], 0
        for end in self.group_ends:
            if end - start >= WINDOW_OPS:
                cuts.append(end)
                start = end
        if not cuts or cuts[-1] != lat.size:
            cuts = cuts[:-1] + [lat.size]  # a short remainder joins the last window
        return np.split(lat, cuts[:-1])

    def summary(self) -> dict:
        scale = PROBE_NOMINAL_NS / float(np.median(self.probe_ns)) if self.probe_ns else 1.0
        wins = [np.sort(w) * scale for w in self.windows()]
        if min(w.size for w in wins) < 11:
            raise SystemExit("fewer than 11 operations in a window; the tail needs at least 11")
        # the tail is the highest percentile with at least 10 samples beyond it
        return {
            "ops": len(self.latency_ns),
            "failed": self.failed,
            "band_ops": self.band,
            "band_verdicts": self.band_verdicts,
            "band_misses": self.band_misses,
            "windows": len(wins),
            "window_ops": int(np.median([w.size for w in wins])),
            "throughput_ops_s": float(np.median([w.size / (w.sum() / 1e3) for w in wins])),
            "latency_p50_ms": float(np.median([np.median(w) for w in wins])),
            "latency_tail_ms": float(np.median([w[-11] for w in wins])),
            "tail_percentile": float(np.median([100.0 * (w.size - 10) / w.size for w in wins])),
            "speed_scale": scale,
            "probes": len(self.probe_ns),
            "routes": self.routes,
            "route_agree": self.route_agree,
            "notes": self.notes[:5],
        }


def run_cycle(wl, ops: list, tally: Tally, tracer=None) -> None:
    """Run one cycle's operations, timing each call and checking it untimed."""
    if wl.clock is process_time_ns:
        tally.probe_ns.append(speed_probe_ns())
    for op in ops:
        if tracer is not None:
            tracer.op = len(tally.latency_ns)
            root = tracer.begin("bench.op")
        t0 = wl.clock()
        try:
            result, error = wl.run(op), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, exc
        t1 = wl.clock()
        if tracer is not None:
            tracer.end(root)
            tracer.enabled = False
        tally.latency_ns.append(t1 - t0)
        try:
            ok = error is None and wl.check(op, result)
            routes = wl.routes(op, result) if error is None else None
            band_exact = wl.band_verdicts_exact(op, result) if error is None else None
        except Exception as exc:
            ok, routes, band_exact, error = False, None, None, exc
        if tracer is not None:
            tracer.enabled = True
        tally.record(op, ok, error, routes, band_exact)


def near_end(start: float, group_start: float, seconds: float) -> bool:
    """True at the group end nearest to `seconds`, assuming the next group takes as long."""
    now = perf_counter()
    return now - start + 0.5 * (now - group_start) >= seconds


def measure(wl, seconds: float, pending: list, tally: Tally) -> None:
    """Run whole groups of cycles, stopping at the group end nearest to `seconds`."""
    start = group_start = perf_counter()
    k = 0
    while True:
        run_cycle(wl, pending.pop(0) if pending else wl.cycle(k), tally)
        k += 1
        if k % wl.group == 0:
            tally.group_ends.append(len(tally.latency_ns))
            if k >= wl.min_cycles and near_end(start, group_start, seconds):
                return
            group_start = perf_counter()


def measure_traced(wl, seconds: float, pending: list, plain: Tally, traced: Tally, tracer) -> None:
    """Alternate whole groups without and with the span wrappers, stopping after a traced
    group at the end nearest to `seconds`.

    Alternating keeps machine drift out of the tracing overhead, the ratio of
    the two throughputs.
    """
    patches = tracing.wrap_qpolar(tracer)
    start = pair_start = perf_counter()
    k = 0
    while True:
        on = (k // wl.group) % 2 == 1
        tracing.patch(patches, on)
        tracer.enabled = on
        tally = traced if on else plain
        for _ in range(wl.group):
            run_cycle(wl, pending.pop(0) if pending else wl.cycle(k), tally, tracer if on else None)
            k += 1
        tally.group_ends.append(len(tally.latency_ns))
        tracing.patch(patches, False)
        tracer.enabled = False
        if on:
            if k // 2 >= wl.min_cycles and near_end(start, pair_start, seconds):
                return
            pair_start = perf_counter()


def peak_rss_mb() -> float:
    """ru_maxrss (kB on Linux) of this process or its largest waited-for child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.wrap_scipy(tracer)
    qp = import_qpolar(root)
    workdir = os.path.join(root, OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](qp, args.seed, workdir, tracer)
        pending = [wl.cycle(k) for k in range(wl.group)]
        ready_ns = perf_counter_ns()
        if args.setup_only:
            print(json.dumps({"ready_ns": ready_ns}))
            return
        doc = {"ready_ns": ready_ns}
        if tracer is None:
            tally = Tally()
            measure(wl, args.seconds, pending, tally)
            doc["run"] = tally.summary()
        else:
            plain, traced = Tally(), Tally()
            measure_traced(wl, args.seconds, pending, plain, traced, tracer)
            doc["run"] = plain.summary()
            doc["traced"] = traced.summary()
            doc["layers"] = tracing.layer_metrics(tracer, len(traced.latency_ns))
            np.savez_compressed(os.path.join(root, OUT_DIR, f"spans-{args.workload}.npz"), **tracer.arrays())
        doc["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(doc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
