"""qpolar benchmark: one workload per invocation, metrics as JSON on the last line.

    python3 bench/run.py --workload pair-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; qpolar is imported from its `src` directory.
With --trace 0 the last line carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Earlier lines print every metric with
its unit, the tail percentile and sample count, failures, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SETUP_SAMPLES = 3
IMPORT_PROBES = 3
# One BLAS thread: results and timings do not depend on how many cores are idle.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[str, str]:
    """Run a child in its own process group; kill the group if the deadline passes."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}\n{err[-4000:]}")
    return out, err


def run_worker(args, env: dict, deadline: float, setup_only: bool) -> tuple[float, dict]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawn_ns = perf_counter_ns()
    out, _ = run_child(cmd, env, deadline)
    doc = json.loads(out.strip().splitlines()[-1])
    return (doc["ready_ns"] - spawn_ns) / 1e9, doc


def import_probe(env: dict, deadline: float) -> dict:
    """Break setup down: `python -c pass` and `python -X importtime -c "import qpolar"`."""
    startup, probes = [], []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter()
        run_child([sys.executable, "-c", "pass"], env, deadline)
        startup.append((perf_counter() - t0) * 1e3)
        _, err = run_child([sys.executable, "-X", "importtime", "-c", "import qpolar"], env, deadline)
        rows = [(int(c), (len(indent) - 1) // 2, name) for _, c, indent, name in
                re.findall(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", err)]
        probes.append({
            "import.qpolar_ms": _family_ms(rows, "qpolar"),
            "import.scipy_optimize_ms": _family_ms(rows, "scipy.optimize"),
            "import.scipy_stats_ms": _family_ms(rows, "scipy.stats"),
            "import.scipy_spatial_ms": _family_ms(rows, "scipy.spatial"),
            "import.modules": float(len(rows)),
        })
    out = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
    out["python.startup_ms"] = statistics.median(startup)
    return out


def _family_ms(rows, prefix: str) -> float:
    """Cumulative import time of a package's outermost modules, with the deps they load first.

    importtime lists a module after the modules it imports, one indent level deeper.
    """
    def member(name):
        return name == prefix or name.startswith(prefix + ".")

    total, ancestors = 0, []
    for cumulative, depth, name in reversed(rows):
        del ancestors[depth:]
        if member(name) and not any(map(member, ancestors)):
            total += cumulative
        ancestors.append(name)
    return total / 1e3


def environment() -> str:
    import numpy
    import scipy

    threads = ",".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
            f"nproc={os.cpu_count()} {threads}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qpolar", "__init__.py")):
        print(f"no qpolar sources under {os.path.join(root, 'src')}; run from a checkout root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = child_env(root)

    try:
        if args.trace:
            _, doc = run_worker(args, env, deadline, setup_only=False)
            values = dict(doc["layers"])
            values["trace.throughput_ops_s"] = doc["traced"]["throughput_ops_s"]
            values["trace.untraced_throughput_ops_s"] = doc["run"]["throughput_ops_s"]
            values["trace.slowdown"] = doc["run"]["throughput_ops_s"] / doc["traced"]["throughput_ops_s"]
            values["quantum.route_agreement"] = _route_agreement(doc["run"], doc["traced"])
            values["quantum.band_verdict_misses"] = _band_misses(doc["run"], doc["traced"])
            values.update(import_probe(env, deadline))
            wanted = spec["per_layer"]
            phases = [doc["run"], doc["traced"]]
        else:
            setups = [run_worker(args, env, deadline, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup, doc = run_worker(args, env, deadline, setup_only=False)
            setups.append(setup)
            run = doc["run"]
            values = {
                "setup_s": statistics.median(setups),
                "throughput_ops_s": run["throughput_ops_s"],
                "latency_p50_ms": run["latency_p50_ms"],
                "latency_tail_ms": run["latency_tail_ms"],
                "ok_share": 1.0 - run["failed"] / run["ops"],
                "peak_rss_mb": doc["peak_rss_mb"],
            }
            wanted = spec["end_to_end"]
            phases = [run]
            print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    band_ops = sum(p["band_ops"] for p in phases)
    band_verdicts = sum(p["band_verdicts"] for p in phases)
    band_misses = sum(p["band_misses"] for p in phases)
    run = phases[-1]
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {failed} failed "
          f"(fail_share {failed / attempted:.6f}); {band_ops} tolerance-band ops")
    if band_verdicts:
        print(f"tolerance-band verdicts that miss the exact answer (reported, not failures): "
              f"{band_misses}/{band_verdicts} = {band_misses / band_verdicts:.6f}")
    print(f"latency_tail_ms is p{run['tail_percentile']:.2f} of {run['window_ops']} samples "
          f"(median over {run['windows']} windows of {run['ops']} operations)")
    if run["probes"]:
        print(f"timings scaled by {run['speed_scale']:.4f} to the speed probe's nominal speed "
              f"({run['probes']} probes); unscaled: throughput_ops_s "
              f"{run['throughput_ops_s'] * run['speed_scale']:.6g}, latency_p50_ms "
              f"{run['latency_p50_ms'] / run['speed_scale']:.6g}, latency_tail_ms "
              f"{run['latency_tail_ms'] / run['speed_scale']:.6g}")
    for note in sum((p["notes"] for p in phases), []):
        print(f"  failure: {note}")
    print(f"env: {environment()}")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _band_misses(*phases) -> float:
    """Share of tolerance-band states with a verdict that misses the exact answer (0.0 if none)."""
    verdicts = sum(p["band_verdicts"] for p in phases)
    return sum(p["band_misses"] for p in phases) / verdicts if verdicts else 0.0


def _route_agreement(*phases) -> float:
    """Share of states on which the three covariance-validity routes agree (1.0 if none)."""
    routes = sum(p["routes"] for p in phases)
    return sum(p["route_agree"] for p in phases) / routes if routes else 1.0


if __name__ == "__main__":
    sys.exit(main())
