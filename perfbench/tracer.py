"""Span tracing of the zetaumm layers from outside the package, and the
in-process runner of the traced run.

`install` wraps every public function, method and classmethod of the eight
modules where it is defined, and also where another module imported it by
name (`cli` from `padics`/`wavelets`, `resolvent` imports `padic_norm`,
`ensemble` imports `ungapped_density`, ...).  Each wrapped call records a
span (name, layer, start, end, parent span, job id) in memory; a layer's
self time is its spans' time minus the time covered by child spans of
other layers.  Nothing under src/ is changed.

Run as a script (with the package on PYTHONPATH) it executes a job list
twice through `zetaumm.cli.main`: once untraced, once traced, and writes
the per-pass timings, the spans and the per-layer summary as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import traceback
from collections import defaultdict
from typing import NamedTuple, Optional

LAYERS = ("cli", "output", "zeta", "resolvent", "traceform", "ensemble", "padics", "wavelets")


class Span(NamedTuple):
    name: str  # qualified within its layer, e.g. "PrimeTable.build"
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    job: int
    extra: Optional[dict] = None


def _ingest_extra(bound, result):
    return {"zeros": len(result.ts) + len(result.excluded)}


def _cue_extra(bound, result):
    return {"N": bound["N"], "samples": bound["samples"]}


def _mc_extra(bound, result):
    return {"N": bound["N"], "chains": bound["chains"], "sweeps": bound["sweeps"],
            "burn_in": bound["burn_in"], "acceptance": result.acceptance_rate}


# work counts read off the arguments and results of a few calls
_EXTRA = {
    ("zeta", "ingest_zeros"): _ingest_extra,
    ("ensemble", "sample_cue"): _cue_extra,
    ("ensemble", "plaquette_mc"): _mc_extra,
}


class Tracer:
    """In-memory span recorder; `job` tags the spans of the current job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, fn, layer: str, name: str):
        extra_of = _EXTRA.get((layer, name))
        sig = inspect.signature(fn) if extra_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            self.spans.append(None)  # reserve the slot so children see their parent
            self.stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                extra = None
                if extra_of is not None and result is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = extra_of(bound.arguments, result)
                self.spans[idx] = Span(name, layer, start, end, parent, self.job, extra)

        return wrapper


def install(tracer: Tracer) -> int:
    """Wrap the public callables of every layer; returns how many."""
    modules = {layer: importlib.import_module(f"zetaumm.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = tracer.wrap(obj, layer, attr)
                replaced[id(obj)] = wrapper
                setattr(mod, attr, wrapper)
            elif inspect.isclass(obj):
                _wrap_class(tracer, obj, layer)
    # rebind names that other modules imported with `from .x import name`
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("zetaumm"):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])
    return len(replaced)


def _wrap_class(tracer: Tracer, cls, layer: str) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{cls.__name__}.{attr}"
        if isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(member.__func__, layer, name)))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(member.__func__, layer, name)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(member, layer, name))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: time in its spans not covered by a child span of another
    layer.  Each instant is charged to the innermost open span, so nested
    spans of one layer are not counted twice."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - child[i]
    return out


def outermost(spans: list[Span], names: set[tuple[str, str]]) -> list[Span]:
    """Spans in `names` that have no ancestor in `names` (no double count)."""
    hit = [(s.layer, s.name) in names for s in spans]
    out = []
    for i, s in enumerate(spans):
        if not hit[i]:
            continue
        p = s.parent
        while p >= 0 and not hit[p]:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _busy(spans, layer, *names) -> float:
    return sum(s.end - s.start for s in outermost(spans, {(layer, n) for n in names}))


_CONTOUR = ("beta_contour", "beta_symmetric", "beta_gamma", "beta_renormalized_shifted",
            "beta_renormalized_xi_decomposition", "xi_log_coefficients",
            "gamma_log_coefficients", "zeta_log_coefficients")
_EM = ("zeta", "zeta_em", "zeta_unit", "zeta_and_derivative")
_LI = ("li_coefficients", "li_coefficients_cauchy", "li_coefficients_zero_sum", "cross_validate_li")
_DENSITY = ("density_profile", "local_potential_derivative", "ungapped_density")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of the benchmark that spans determine."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    for s in spans:
        calls[s.layer] += 1
    xi = [s for s in spans if (s.layer, s.name) == ("zeta", "xi")]
    # the output layer is all writing, so its self time is output.write_s
    m = {f"{layer}.self_s": selfs[layer] for layer in LAYERS if layer != "output"}
    m.update({
        "output.write_s": _busy(spans, "output", "write_csv", "write_json"),
        "zeta.ingest_s": _busy(spans, "zeta", "ingest_zeros"),
        "zeta.zeros_ingested": sum(s.extra["zeros"] for s in spans
                                   if s.extra and s.name == "ingest_zeros"),
        "zeta.xi_calls": len(xi),
        "zeta.xi_us_per_call": 1e6 * sum(s.end - s.start for s in xi) / len(xi) if xi else 0.0,
        "zeta.prime_table_s": _busy(spans, "zeta", "PrimeTable.build"),
        "zeta.zeta_calls": len(outermost(spans, {("zeta", n) for n in _EM})),
        "zeta.li_s": _busy(spans, "zeta", *_LI),
        "resolvent.contour_s": _busy(spans, "resolvent", *_CONTOUR),
        "resolvent.prime_sum_s": _busy(spans, "resolvent", "beta_renormalized_prime_sum"),
        "resolvent.density_s": _busy(spans, "resolvent", *_DENSITY),
        "traceform.trace_check_s": _busy(spans, "traceform", "trace_formula_check"),
        "traceform.comb_s": _busy(spans, "traceform", "wigner_marginal_comb"),
        "ensemble.pair_corr_s": _busy(spans, "ensemble", "pair_correlation"),
        "padics.calls": calls["padics"],
        "wavelets.calls": calls["wavelets"],
    })
    for N in (40, 80):
        cue = [s for s in spans if s.name == "sample_cue" and s.extra and s.extra["N"] == N]
        n_mat = sum(s.extra["samples"] for s in cue)
        m[f"ensemble.cue_us_per_matrix.n{N}"] = (
            1e6 * sum(s.end - s.start for s in cue) / n_mat if n_mat else 0.0)
    mc = [s for s in spans if s.name == "plaquette_mc" and s.extra]
    for chains in (4, 1):
        sel = [s for s in mc if s.extra["chains"] == chains]
        updates = sum(e["N"] * (e["sweeps"] + e["burn_in"]) * e["chains"]
                      for e in (s.extra for s in sel))
        m[f"ensemble.mc_us_per_site_update.chains{chains}"] = (
            1e6 * sum(s.end - s.start for s in sel) / updates if updates else 0.0)
    proposed = sum(s.extra["N"] * s.extra["sweeps"] * s.extra["chains"] for s in mc)
    m["ensemble.mc_acceptance"] = (
        sum(s.extra["acceptance"] * s.extra["N"] * s.extra["sweeps"] * s.extra["chains"]
            for s in mc) / proposed if proposed else 0.0)
    return m


# ---------------------------------------------------------------------------
# in-process runner
# ---------------------------------------------------------------------------


def run_pass(main, jobs: list[dict], tracer: Optional[Tracer] = None) -> dict:
    """Run each job through cli.main(argv), one after another."""
    out = []
    t_pass = time.perf_counter()
    for i, job in enumerate(jobs):
        argv = job["argv"] if tracer is None else job["argv_traced"]
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # keep going: the failure is recorded and counted
            traceback.print_exc()
            rc = -1
        out.append({"rc": rc, "wall": time.perf_counter() - t0})
    return {"wall": time.perf_counter() - t_pass, "jobs": out}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = importlib.import_module("zetaumm.cli")
    untraced = run_pass(cli.main, spec["jobs"])
    tracer = Tracer()
    wrapped = install(tracer)
    traced = run_pass(importlib.import_module("zetaumm.cli").main, spec["jobs"], tracer)
    spans = tracer.spans
    with open(spec["spans_out"], "w", encoding="utf-8") as fh:
        json.dump([list(s) for s in spans], fh)
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump({"untraced": untraced, "traced": traced, "wrapped": wrapped,
                   "spans": len(spans), "self_times": self_times(spans),
                   "metrics": layer_metrics(spans)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
