"""Spans around qpolar's layers, recorded from outside the package.

A span is (name, start, end, parent span, operation id). Spans live in flat
arrays in memory and are written out once, when the run ends. The wrappers
replace each layer's public functions in every qpolar module namespace (so
calls between modules are seen too), the body constructors, and the scipy
entry points qpolar's solvers use. The scipy attributes are wrapped before
qpolar is imported, so code that imports them lazily still gets the wrapper.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("bodies", "polarity", "capacities", "quantum", "symplectic", "hardy", "cloud", "io", "cli")
SCIPY_LAYERS = {"scipy.linprog": "lp", "scipy.HalfspaceIntersection": "qhull", "scipy.ConvexHull": "qhull"}
SHARE_LAYERS = LAYERS + ("lp", "qhull", "import", "python", "bench")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.stack = [-1]
        self.op = -1
        self.enabled = False
        self.exact = [0, 0]  # is_quantum_pair verdicts: [sampled, exact]
        self.bytes_read = 0
        self.bytes_written = 0
        self._io_depth = 0

    def begin(self, name: str) -> int:
        code = self._ids.get(name)
        if code is None:
            code = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(code)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_pair(self, fn):
        """is_quantum_pair, also counting verdicts by whether they took an exact path."""
        traced = self.wrap("polarity.is_quantum_pair", fn)

        def counted(*args, **kwargs):
            verdict = traced(*args, **kwargs)
            if self.enabled:
                self.exact[bool(verdict.exact)] += 1
            return verdict

        counted.__wrapped__ = fn
        return counted

    def wrap_io(self, name: str, fn):
        """An io function, also counting file bytes at the outermost io call."""
        traced = self.wrap(name, fn)
        writes = name.startswith("io.dump")

        def counted(*args, **kwargs):
            if not self.enabled or self._io_depth:
                return traced(*args, **kwargs)
            paths = [a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike))]
            if not writes:
                self.bytes_read += _file_bytes(paths)
            self._io_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._io_depth -= 1
                if writes:
                    self.bytes_written += _file_bytes(paths)

        counted.__wrapped__ = fn
        return counted

    def arrays(self) -> dict:
        import numpy as np  # not at module level: CLI children import numpy inside their import span

        return {
            "names": np.array(self.names, dtype=str),
            "name_ids": np.frombuffer(self.name_ids, dtype=np.int64),
            "starts": np.frombuffer(self.starts, dtype=np.int64),
            "ends": np.frombuffer(self.ends, dtype=np.int64),
            "parents": np.frombuffer(self.parents, dtype=np.int64),
            "ops": np.frombuffer(self.ops, dtype=np.int64),
        }

    def dump_json(self, path: str) -> None:
        """Write spans, counters and names (used by the CLI launcher)."""
        doc = {"names": self.names, "name_ids": list(self.name_ids), "starts": list(self.starts),
               "ends": list(self.ends), "parents": list(self.parents), "exact": self.exact,
               "bytes_read": self.bytes_read, "bytes_written": self.bytes_written}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def merge_child(self, path: str, parent: int) -> None:
        """Append a child process's spans under `parent`, in the parent's current op."""
        with open(path) as fh:
            doc = json.load(fh)
        offset = len(self.starts)
        op = self.ops[parent]
        for code, start, end, par in zip(doc["name_ids"], doc["starts"], doc["ends"], doc["parents"]):
            name = doc["names"][code]
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            self.name_ids.append(self._ids[name])
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if par < 0 else par + offset)
            self.ops.append(op)
        self.exact[0] += doc["exact"][0]
        self.exact[1] += doc["exact"][1]
        self.bytes_read += doc["bytes_read"]
        self.bytes_written += doc["bytes_written"]


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def wrap_scipy(tracer: Tracer) -> None:
    """Wrap the solver entry points at the scipy attribute; call before importing qpolar."""
    import scipy.optimize
    import scipy.spatial

    scipy.optimize.linprog = tracer.wrap("scipy.linprog", scipy.optimize.linprog)
    for cls in ("HalfspaceIntersection", "ConvexHull"):
        setattr(scipy.spatial, cls, tracer.wrap(f"scipy.{cls}", getattr(scipy.spatial, cls)))


def wrap_qpolar(tracer: Tracer) -> list[tuple]:
    """Patches that wrap every public function of each imported layer, wherever qpolar refers to it.

    Each patch is (namespace, attribute, original, wrapper); `patch` applies
    or reverts them.
    """
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"qpolar.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__ or attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if name == "polarity.is_quantum_pair":
                wrappers[id(obj)] = tracer.wrap_pair(obj)
            elif layer == "io":
                wrappers[id(obj)] = tracer.wrap_io(name, obj)
            else:
                wrappers[id(obj)] = tracer.wrap(name, obj)
    patches = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qpolar" or mod_name.startswith("qpolar."):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    patches.append((mod, attr, obj, wrapper))
    bodies = sys.modules["qpolar.bodies"]
    for cls in (bodies.Ellipsoid, bodies.HPolytope, bodies.VPolytope):
        patches.append((cls, "__post_init__", cls.__post_init__, tracer.wrap("bodies.construct", cls.__post_init__)))
    return patches


def patch(patches: list[tuple], on: bool) -> None:
    for owner, attr, original, wrapper in patches:
        setattr(owner, attr, wrapper if on else original)


def _layer(name: str) -> str:
    if name in SCIPY_LAYERS:
        return SCIPY_LAYERS[name]
    return name.split(".", 1)[0]


# Per-layer functions reported as <name>.calls and <name>.self_ms per operation.
FUNCTIONS = (
    "bodies.gauge", "bodies.support", "bodies.hpolytope_vertices", "bodies.enclosing_ellipsoid",
    "bodies.construct", "symplectic.require_symmetric", "polarity.is_quantum_pair", "polarity.polar_dual",
    "capacities.product_capacity", "capacities.ellipsoid_capacity",
    "quantum.is_quantum_covariance", "quantum.rs_check", "quantum.capacity_criterion", "quantum.theorem2_check",
    "quantum.hardy_check", "quantum.heisenberg_eigen_check",
    "symplectic.symplectic_eigenvalues", "symplectic.block_diagonalize",
    "hardy.hbar_fourier_1d", "hardy.hardy_envelope_verify",
    "cloud.cloud_analyze", "io.load_body", "io.load_covariance", "io.load_cloud", "io.dump_cloud",
)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-operation counts, self times and blocking-step shares from the recorded spans."""
    import numpy as np

    a = tracer.arrays()
    names, ids, parents = a["names"], a["name_ids"], a["parents"]
    dur = (a["ends"] - a["starts"]).astype(float)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child
    k = len(names)
    calls = np.bincount(ids, minlength=k).astype(float)
    self_by = np.bincount(ids, weights=self_ns, minlength=k)
    total_by = np.bincount(ids, weights=dur, minlength=k)
    index = {name: i for i, name in enumerate(names)}

    def get(arr, name):
        i = index.get(name)
        return float(arr[i]) if i is not None else 0.0

    out = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = get(calls, fn) / n_ops
        out[f"{fn}.self_ms"] = get(self_by, fn) / n_ops / 1e6
    lp = get(calls, "scipy.linprog")
    out["bodies.lp.solves"] = lp
    out["bodies.lp.per_op"] = lp / n_ops
    out["bodies.lp.ms"] = get(total_by, "scipy.linprog") / n_ops / 1e6
    qhull = ("scipy.HalfspaceIntersection", "scipy.ConvexHull")
    out["bodies.qhull.builds"] = sum(get(calls, q) for q in qhull) / n_ops
    out["bodies.qhull.ms"] = sum(get(total_by, q) for q in qhull) / n_ops / 1e6
    verdicts = sum(tracer.exact)
    out["polarity.exact_share"] = tracer.exact[1] / verdicts if verdicts else 0.0
    analyses = get(calls, "cloud.cloud_analyze")
    calls_in_analyze = _polarity_calls_in_analyze(names, ids, parents)
    out["cloud.polarity_calls_per_analyze"] = calls_in_analyze / analyses if analyses else 0.0
    out["io.bytes_read"] = tracer.bytes_read / n_ops
    out["io.bytes_written"] = tracer.bytes_written / n_ops
    commands = get(calls, "cli.main")
    out["cli.command_ms"] = get(total_by, "cli.main") / commands / 1e6 if commands else 0.0
    # Blocking steps: with one client and no contention, a layer can save at
    # most its share of the operations' wall time.
    op_time = get(total_by, "bench.op")
    layer_of = np.array([_layer(n) for n in names], dtype=object)
    for layer in SHARE_LAYERS:
        mask = layer_of == layer
        out[f"share.{layer}"] = float(self_by[mask].sum()) / op_time if op_time else 0.0
    out["trace.spans_per_op"] = dur.size / n_ops
    return out


def _polarity_calls_in_analyze(names, ids, parents) -> int:
    """Polarity entries (a polarity span without a polarity ancestor) under cloud_analyze."""
    import numpy as np

    is_polarity = np.array([n.startswith("polarity.") for n in names])[ids]
    analyze = np.array([n == "cloud.cloud_analyze" for n in names])[ids]
    count = 0
    for idx in np.flatnonzero(is_polarity):
        node = parents[idx]
        while node >= 0 and not is_polarity[node] and not analyze[node]:
            node = parents[node]
        count += bool(node >= 0 and analyze[node])
    return count
