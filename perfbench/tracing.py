"""Span tracing of spinlab's layers from outside the package.

A `Tracer` wraps the public functions of each layer (module) in place: every
namespace that bound a traced function gets the wrapper, so calls made
through `spinlab.energy`, `spinlab.optimizers.hessian` or a module global
such as the `parisi_is` that `alg_is_numeric` looks up are all recorded.
`uninstall` puts every original back.

Spans are kept in memory and written out as JSON lines when the run ends.
`layer_metrics` turns a span file into the per-layer metrics listed in
BENCHMARK.json; self time is a span's duration minus its child spans'
durations.
"""

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "hamiltonian",
    "ensembles",
    "optimizers",
    "ogp",
    "ultrametric",
    "parisi.pde",
    "runner",
    "rng",
)


def _tensor_bytes(kind):
    """Computed bytes of raw disorder tensor read by one derivative call:
    passes x n^p x 8 per mixture term, the passes being those the call makes
    over the tensor (energy 1, gradient p, Hessian p(p-1)/2, Hessian-vector
    p(p-1))."""
    passes = {
        "energy": lambda p: 1,
        "gradient": lambda p: p,
        "hessian": lambda p: p * (p - 1) // 2,
        "hessian_apply": lambda p: p * (p - 1),
    }[kind]

    def attrs(args, kwargs, result):
        h = args[0]
        total = sum(
            passes(p) * h.n**p * 8 for p, g in h.mixture.gammas.items() if g != 0.0
        )
        return {"tensor_bytes": total}

    return attrs


def _sample_entries(args, kwargs, result):
    return {"entries": sum(t.size for t in result.tensors.values())}


def _save_snapshot_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _load_snapshot_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _leaf_bytes(args, kwargs, result):
    return {"bytes": sum(t.nbytes for t in result.tensors.values())}


def _iterates(offset):
    def attrs(args, kwargs, result):
        return {"steps": len(result.iterates) - offset}

    return attrs


def _extend_points(args, kwargs, result):
    return {"steps": len(result.points)}


def _solve_meta(args, kwargs, result):
    # the self-check repeats every GH step at twice the nodes
    checked = "self_check_delta" in result.meta
    out = {"gh_steps": result.meta["gh_steps"] * (2 if checked else 1)}
    if checked:
        out["self_check_delta_max"] = result.meta["self_check_delta"]
    return out


def _artifact_bytes(args, kwargs, result):
    return {"artifact_bytes": sum(os.path.getsize(p) for p in result.artifacts)}


# (span name, module, attribute path, attrs(args, kwargs, result) or None)
TARGETS = (
    ("hamiltonian.energy", "spinlab.hamiltonian", "energy", _tensor_bytes("energy")),
    ("hamiltonian.gradient", "spinlab.hamiltonian", "gradient", _tensor_bytes("gradient")),
    ("hamiltonian.hessian", "spinlab.hamiltonian", "hessian", _tensor_bytes("hessian")),
    ("hamiltonian.hessian_apply", "spinlab.hamiltonian", "hessian_apply", _tensor_bytes("hessian_apply")),
    ("hamiltonian.eig", "spinlab.hamiltonian", "projected_top_eigvec", None),
    ("hamiltonian.eig", "spinlab.hamiltonian", "restricted_top_eigvec", None),
    ("hamiltonian.sample", "spinlab.hamiltonian", "sample_hamiltonian", _sample_entries),
    ("hamiltonian.snapshot", "spinlab.hamiltonian", "save_snapshot", _save_snapshot_bytes),
    ("hamiltonian.snapshot", "spinlab.hamiltonian", "load_snapshot", _load_snapshot_bytes),
    ("ensembles.sample", "spinlab.ensembles", "sample_ensemble", None),
    ("ensembles.manifest", "spinlab.ensembles", "save_manifest", None),
    ("ensembles.manifest", "spinlab.ensembles", "load_manifest", None),
    ("ensembles.leaf_hamiltonian", "spinlab.ensembles", "CorrelatedEnsemble.leaf_hamiltonian", _leaf_bytes),
    ("optimizers.subag", "spinlab.optimizers", "subag_ascent", _iterates(0)),
    ("optimizers.gradient_ascent", "spinlab.optimizers", "gradient_ascent", _iterates(1)),
    ("optimizers.extend", "spinlab.optimizers", "extend_to_sphere", _extend_points),
    ("ogp.branching", "spinlab.ogp", "run_branching_experiment", None),
    ("ultrametric.embed", "spinlab.ultrametric", "embed_energy_greedy", None),
    ("parisi.pde.minimize", "spinlab.parisi.pde", "alg_is_numeric", None),
    ("parisi.pde.objective", "spinlab.parisi.pde", "parisi_is", None),
    ("parisi.pde.solve", "spinlab.parisi.pde", "solve_parisi_pde", _solve_meta),
    ("parisi.pde.shift_check", "spinlab.parisi.pde", "shift_identity_check", None),
    ("runner.run", "spinlab.runner", "run", _artifact_bytes),
    ("rng.stream", "spinlab.rng", "stream", None),
)


def layer_of(name):
    return name.rsplit(".", 1)[0]


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(fn):
    """Every (spinlab module, attribute) that holds the function object."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "spinlab" or modname.startswith("spinlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


class Tracer:
    """In-memory span recorder. Not thread-safe: the benchmark drives spinlab
    from one thread (runner configs use workers=1)."""

    def __init__(self):
        self.spans = []
        self.replica = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._paused = False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every target module first, so none binds a wrapper by import
        resolved = [(name, *_resolve(module, path), attrs) for name, module, path, attrs in TARGETS]
        for name, owner, attr, attrs in resolved:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, attrs)
            places = [(owner, attr)] if isinstance(owner, type) else list(_bindings(original))
            for place, place_attr in places:
                self._patches.append((place, place_attr, original))
                setattr(place, place_attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "replica": self.replica,
                "error": False,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """Span id -> duration minus the durations of its child spans. The tracer
    is single-threaded and stack-based, so children are disjoint and lie
    inside their parent."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


_SPAN_KEYS = {"id", "parent", "name", "replica", "start", "end", "error"}


def summarize(spans):
    """Span name and layer -> {"calls", "self_s", "errors", recorded
    attributes}; span names also get "busy_s", their summed duration.
    Attributes ending in "_max" keep their maximum, the others their sum.
    No traced function calls another of the same span name, so busy time
    is never counted twice."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        for key in (s["name"], layer_of(s["name"])):
            agg = out.setdefault(key, {"calls": 0, "self_s": 0.0, "errors": 0})
            agg["calls"] += 1
            agg["self_s"] += selfs[s["id"]]
            agg["errors"] += int(s["error"])
            for attr, value in s.items():
                if attr in _SPAN_KEYS:
                    continue
                if attr.endswith("_max"):
                    agg[attr] = max(agg.get(attr, value), value)
                else:
                    agg[attr] = agg.get(attr, 0) + value
        named = out[s["name"]]
        named["busy_s"] = named.get("busy_s", 0.0) + (s["end"] - s["start"])
    return out


def _matvecs_per_call(spans):
    by_id = {s["id"]: s for s in spans}

    def under_eig(s):
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == "hamiltonian.eig":
                return True
            parent = by_id[parent]["parent"]
        return False

    eigs = sum(1 for s in spans if s["name"] == "hamiltonian.eig")
    inner = sum(1 for s in spans if s["name"] == "hamiltonian.hessian_apply" and under_eig(s))
    return inner / eigs if eigs else 0.0


# Per-layer metrics reported by a traced run, as (name, unit). A name
# "<span name or layer>.<field>" reads that field from `summarize`; the
# others are computed in `layer_metrics`.
METRICS = (
    *(
        (f"hamiltonian.{op}.{field}", unit)
        for op in ("energy", "gradient", "hessian", "hessian_apply")
        for field, unit in (("calls", "count"), ("busy_s", "s"))
    ),
    ("hamiltonian.eig.calls", "count"),
    ("hamiltonian.eig.busy_s", "s"),
    ("hamiltonian.eig.matvecs_per_call", "count"),
    ("hamiltonian.tensor_bytes", "bytes"),
    ("hamiltonian.sample.calls", "count"),
    ("hamiltonian.sample.busy_s", "s"),
    ("hamiltonian.sample.entries", "count"),
    ("hamiltonian.snapshot.bytes", "bytes"),
    ("hamiltonian.snapshot.busy_s", "s"),
    ("ensembles.sample.calls", "count"),
    ("ensembles.sample.busy_s", "s"),
    ("ensembles.manifest.busy_s", "s"),
    ("ensembles.leaf_hamiltonian.calls", "count"),
    ("ensembles.leaf_hamiltonian.busy_s", "s"),
    ("ensembles.leaf_hamiltonian.bytes", "bytes"),
    *(
        (f"optimizers.{op}.{field}", unit)
        for op in ("subag", "gradient_ascent", "extend")
        for field, unit in (("calls", "count"), ("self_s", "s"), ("steps", "count"))
    ),
    ("ogp.branching.self_s", "s"),
    ("ultrametric.embed.self_s", "s"),
    ("parisi.pde.minimize.calls", "count"),
    ("parisi.pde.minimize.busy_s", "s"),
    ("parisi.pde.objective.calls", "count"),
    ("parisi.pde.solve.calls", "count"),
    ("parisi.pde.solve.busy_s", "s"),
    ("parisi.pde.solve.self_s", "s"),
    ("parisi.pde.gh_steps", "count"),
    ("parisi.pde.self_check_delta_max", "1"),
    ("runner.run.self_s", "s"),
    ("runner.artifact_bytes", "bytes"),
    ("rng.stream.calls", "count"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("tracing.self_s_total", "s"),
    ("tracing.spans", "count"),
    ("tracing.overhead_s", "s"),
)


def layer_metrics(spans, overhead_s):
    """Per-layer metric name -> value for one traced run; a layer or span the
    workload never reached reads 0."""
    table = summarize(spans)
    special = {
        "hamiltonian.eig.matvecs_per_call": _matvecs_per_call(spans),
        "tracing.self_s_total": sum(self_times(spans).values()),
        "tracing.spans": len(spans),
        "tracing.overhead_s": overhead_s,
    }
    out = {}
    for name, _unit in METRICS:
        if name in special:
            out[name] = special[name]
        else:
            source, field = name.rsplit(".", 1)
            out[name] = table.get(source, {}).get(field, 0)
    return out
