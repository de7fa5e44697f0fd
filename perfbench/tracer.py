"""Spans and counts recorded around the package's public names, from outside the package.

Installing a Tracer replaces the names that callers look up at call time (module
globals, `samplers.BACKENDS` entries, `LinearSystem` methods) with wrappers that
record one span per call: name, start, end and the enclosing span. Spans stay in
memory until the run ends. A name a later version of the package no longer has
is listed as absent and left alone.
"""

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (owner, attribute, span name); an owner "module:Class" names a class attribute
TARGETS = (
    ("qubogs.cli", "load_config", "cli.load_config"),
    ("qubogs.cli", "assemble_system", "heatgrid.assemble_system"),
    ("qubogs.cli", "direct_solve", "reference.direct_solve"),
    ("qubogs.cli", "condition_number", "reference.condition_number"),
    ("qubogs.cli", "iterate", "blocksolve.iterate"),
    ("qubogs.blocksolve", "gs_sweep", "blocksolve.gs_sweep"),
    ("qubogs.blocksolve", "residual", "blocksolve.residual"),
    ("qubogs.blocksolve", "solve_dense", "reference.solve_dense"),
    ("qubogs.blocksolve", "encode", "encoding.encode"),
    ("qubogs.blocksolve", "decode", "encoding.decode"),
    ("qubogs.linear:LinearSystem", "matvec", "linear.matvec"),
    ("qubogs.linear:LinearSystem", "to_dense", "linear.to_dense"),
)
COMMAND_SPAN = "cli.main"


def _owner(path: str):
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(*args, result)
            return result

        return traced

    def _count_sampler(self, kind: str, problem, params, result) -> None:
        if kind == "sa":
            self.counts["spin_updates"] += params.num_reads * params.sweeps * problem.size
        elif kind == "exhaustive":
            self.counts["states_scanned"] += 2**problem.size
        self.counts["reads"] += result.total_reads
        self.counts["best_reads"] += result.best_sample.occurrences

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        saved = []
        try:
            for path, attr, name in TARGETS:
                owner = _owner(path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.add(name)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            backends = getattr(_owner("qubogs.samplers"), "BACKENDS", None)
            if backends is None:
                self.absent.add("samplers.BACKENDS")
            else:
                for kind, original in list(backends.items()):
                    saved.append((backends, kind, original))
                    count = functools.partial(self._count_sampler, kind)
                    backends[kind] = self._wrap(f"samplers.{kind}", original, count)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: inclusive seconds, self seconds (children subtracted), calls."""
        inclusive: dict[str, float] = defaultdict(float)
        children: list[float] = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, children):
            own[name] += end - start - child
        return inclusive, own, calls

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(tracer: Tracer, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced command; times are self times except iterate's."""
    inclusive, own, calls = tracer.totals()
    per = 1.0 / commands
    sampler_s = sum(v for k, v in own.items() if k.startswith("samplers."))
    sampler_calls = sum(v for k, v in calls.items() if k.startswith("samplers."))
    c = tracer.counts

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    return {
        "cli.load_config_s": (own["cli.load_config"] * per, "s"),
        "cli.self_s": (own[COMMAND_SPAN] * per, "s"),
        "heatgrid.assemble_system_s": (own["heatgrid.assemble_system"] * per, "s"),
        "reference.direct_solve_s": (own["reference.direct_solve"] * per, "s"),
        "reference.condition_number_s": (own["reference.condition_number"] * per, "s"),
        "reference.solve_dense_s": (own["reference.solve_dense"] * per, "s"),
        "reference.solve_dense_calls": (calls["reference.solve_dense"] * per, "count"),
        "blocksolve.iterate_s": (inclusive["blocksolve.iterate"] * per, "s"),
        "blocksolve.gs_sweep_self_s": (own["blocksolve.gs_sweep"] * per, "s"),
        "blocksolve.residual_s": (own["blocksolve.residual"] * per, "s"),
        "linear.matvec_s": (own["linear.matvec"] * per, "s"),
        "linear.to_dense_s": (own["linear.to_dense"] * per, "s"),
        "linear.to_dense_calls": (calls["linear.to_dense"] * per, "count"),
        "encoding.encode_s": (own["encoding.encode"] * per, "s"),
        "encoding.encode_calls": (calls["encoding.encode"] * per, "count"),
        "encoding.decode_s": (own["encoding.decode"] * per, "s"),
        "samplers.sample_s": (sampler_s * per, "s"),
        "samplers.sample_calls": (sampler_calls * per, "count"),
        "samplers.spin_updates_per_s": (rate(c["spin_updates"], own["samplers.sa"]), "1/s"),
        "samplers.states_scanned_per_s": (rate(c["states_scanned"], own["samplers.exhaustive"]), "1/s"),
        "samplers.best_read_share": (c["best_reads"] / c["reads"] if c["reads"] else 0.0, "ratio"),
    }
