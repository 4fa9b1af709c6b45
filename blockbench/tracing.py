"""Outside-in layer spans for the traced benchmark run.

``Tracer.installed()`` replaces public qkdpost functions, under the module
attribute their caller looks them up by, with wrappers that record a span
(name, start, end, parent span, block id) and counts read from the return
value.  Nothing in ``src/`` changes, and the originals are put back when the
context exits.  Spans stay in memory until ``write``.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because one thread runs one block at a time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time

# (module, attribute, span name, counts read from (result, args))
SPAN_TARGETS = (
    ("qkdpost.simulate", "simulate_exchange", "simulate.simulate_exchange",
     lambda r, a: {"signals": a[0].n_signals}),
    ("qkdpost.simulate", "estimate_rates_bb84", "tomography.estimate_rates_bb84",
     lambda r, a: {"projected": r.projected}),
    ("qkdpost.simulate", "estimate_rates_sixstate", "tomography.estimate_rates_sixstate",
     lambda r, a: {"projected": r.projected}),
    ("qkdpost.tomography", "linear_inversion", "tomography.linear_inversion", None),
    ("qkdpost.tomography", "nearest_choi", "tomography.nearest_choi", None),
    ("qkdpost.tomography", "project_omega_bb84", "tomography.project_omega_bb84", None),
    ("qkdpost.tomography", "feasible_interval", "worstcase.feasible_interval", None),
    ("qkdpost.worstcase", "feasible_interval", "worstcase.feasible_interval", None),
    ("qkdpost.tomography", "worst_case_ambiguity", "worstcase.worst_case_ambiguity", None),
    ("qkdpost.tomography", "keyrate", "keyrate.keyrate", None),
    ("qkdpost.tomography", "keyrate_conventional_bb84", "keyrate.keyrate_conventional_bb84", None),
    ("qkdpost.tomography", "keyrate_conventional_sixstate",
     "keyrate.keyrate_conventional_sixstate", None),
    ("qkdpost.simulate", "gen_parity_check", "reconciliation.gen_parity_check",
     lambda r, a: {"n": r.n, "m": r.m, "edges": r.num_edges, "rows_fixed": r.rows_fixed}),
    ("qkdpost.simulate", "syndrome", "reconciliation.syndrome", None),
    ("qkdpost.simulate", "sp_decode", "reconciliation.sp_decode",
     lambda r, a: {"edges": a[0].num_edges, "iterations": r.iterations,
                   "converged": r.converged}),
    ("qkdpost.simulate", "sample_hash", "hashing.sample_hash",
     lambda r, a: {"ell": r.output_len}),
    ("qkdpost.simulate", "apply_hash", "hashing.apply_hash",
     lambda r, a: {"bits": int(r.shape[0])}),
)

# Call counters without spans: each worst-case evaluation builds one Choi
# matrix and takes its spectrum, and a span per call would cost more than
# the call.
COUNT_TARGETS = (("qkdpost.worstcase", "choi_from_affine", "worstcase.eig_evals"),)

BLOCK = "block"
ESTIMATES = ("tomography.estimate_rates_bb84", "tomography.estimate_rates_sixstate")

# per-layer metric -> spans whose self time it sums, per block
SELF_TIME = {
    "simulate.exchange_s": ("simulate.simulate_exchange",),
    "tomography.linear_inversion_s": ("tomography.linear_inversion",),
    "tomography.nearest_choi_s": ("tomography.nearest_choi",),
    "tomography.project_omega_bb84_s": ("tomography.project_omega_bb84",),
    "worstcase.feasible_interval_s": ("worstcase.feasible_interval",),
    "worstcase.worst_case_ambiguity_s": ("worstcase.worst_case_ambiguity",),
    "keyrate.keyrate_s": (
        "keyrate.keyrate",
        "keyrate.keyrate_conventional_bb84",
        "keyrate.keyrate_conventional_sixstate",
    ),
    "reconciliation.construct_s": ("reconciliation.gen_parity_check",),
    "reconciliation.syndrome_s": ("reconciliation.syndrome",),
    "reconciliation.decode_s": ("reconciliation.sp_decode",),
    "hashing.sample_s": ("hashing.sample_hash",),
    "hashing.apply_s": ("hashing.apply_hash",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "block", "counts", "child_time")

    def __init__(self, name, start, parent, block):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.block = block
        self.counts = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._block = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self._block)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextlib.contextmanager
    def block(self, block_id: int):
        """Root span of one block; every span opened inside carries its id."""
        self._block = block_id
        span = self._open(BLOCK)
        try:
            yield
        finally:
            self._close(span)
            self._block = -1

    def _span_wrapper(self, fn, name, counts):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        self.counters[name] = 0

        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the context."""
        saved = []
        try:
            for mod_name, attr, name, counts in SPAN_TARGETS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._span_wrapper(getattr(mod, attr), name, counts))
            for mod_name, attr, name in COUNT_TARGETS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._count_wrapper(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- derived figures ---------------------------------------------------

    def _named(self, *names):
        return [s for s in self.spans if s.name in names]

    def _counted(self, *names):
        """Spans of these names whose call returned, so counts were read."""
        return [s for s in self._named(*names) if s.counts is not None]

    def total_self_time(self) -> float:
        return sum(s.self_time for s in self.spans)

    def _projected_share(self) -> float:
        estimates = self._counted(*ESTIMATES)
        return _ratio(sum(bool(s.counts["projected"]) for s in estimates), len(estimates))

    def layer_metrics(self, blocks: int) -> dict[str, float]:
        """Per-layer metrics; ``_s`` figures are seconds per attempted block."""
        out = {
            metric: sum(s.self_time for s in self._named(*names)) / blocks
            for metric, names in SELF_TIME.items()
        }
        out["tomography.estimate_s"] = sum(s.duration for s in self._named(*ESTIMATES)) / blocks
        out["tomography.projected_share"] = self._projected_share()
        out["tomography.project_omega_bb84_calls"] = len(
            self._named("tomography.project_omega_bb84")
        )
        out["tomography.nearest_choi_calls"] = len(self._named("tomography.nearest_choi"))
        out["worstcase.eig_evals"] = _ratio(
            self.counters.get("worstcase.eig_evals", 0),
            len(self._named("tomography.estimate_rates_bb84")),
        )

        codes = self._counted("reconciliation.gen_parity_check")
        construct = sum(s.self_time for s in codes)
        out["reconciliation.construct_ns_per_edge"] = _ratio(
            construct * 1e9, sum(s.counts["edges"] for s in codes)
        )
        out["reconciliation.rows_fixed"] = sum(s.counts["rows_fixed"] for s in codes)
        decodes = self._counted("reconciliation.sp_decode")
        decode = sum(s.self_time for s in decodes)
        out["reconciliation.decode_iters"] = _ratio(
            sum(s.counts["iterations"] for s in decodes), len(decodes)
        )
        out["reconciliation.decode_ns_per_edge_update"] = _ratio(
            decode * 1e9, sum(s.counts["edges"] * s.counts["iterations"] for s in decodes)
        )
        out["reconciliation.decode_failures"] = sum(not s.counts["converged"] for s in decodes)

        out["hashing.apply_calls"] = len(self._named("hashing.apply_hash"))
        out["hashing.key_bits"] = (
            sum(s.counts["ell"] for s in self._counted("hashing.sample_hash")) / blocks
        )
        exchanges = self._counted("simulate.simulate_exchange")
        out["simulate.exchange_ns_per_signal"] = _ratio(
            sum(s.self_time for s in exchanges) * 1e9,
            sum(s.counts["signals"] for s in exchanges),
        )
        return out

    def input_properties(self) -> dict:
        """Input properties a layer-specific change can quote its share of."""
        codes = self._counted("reconciliation.gen_parity_check")
        iters = sorted(s.counts["iterations"] for s in self._counted("reconciliation.sp_decode"))
        return {
            "projected_share": self._projected_share(),
            "estimates": len(self._named(*ESTIMATES)),
            "mean_syndrome_rate": (
                statistics.fmean(s.counts["m"] / s.counts["n"] for s in codes) if codes else 0.0
            ),
            "decode_iterations_min_median_max": (
                [iters[0], statistics.median(iters), iters[-1]] if iters else []
            ),
            "decodes": len(iters),
            "sum_key_bits": sum(s.counts["ell"] for s in self._counted("hashing.sample_hash")),
        }

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line; times in seconds."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header, "counters": self.counters}) + "\n")
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "block": s.block,
                            "self": s.self_time,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )
