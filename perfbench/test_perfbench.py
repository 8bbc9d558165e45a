"""Self-tests of the benchmark: every correctness check fails on a
perturbed artifact and on a nonzero exit, the self-time arithmetic is
right on a synthetic nested trace, and the traced runner works end to end.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import Job, _job  # noqa: E402

from zetaumm.cli import main as cli_main  # noqa: E402
from zetaumm.resolvent import beta_renormalized_prime_sum  # noqa: E402
from zetaumm.zeta import bundled_zeros_path, li_coefficients_zero_sum  # noqa: E402

ZEROS = bundled_zeros_path()


def _scale_csv(column, row, factor=1.0, add=0.0):
    def perturb(path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        start = next(i for i, l in enumerate(lines) if not l.startswith("# "))
        names = lines[start].split(",")
        j = names.index(column)
        cells = lines[start + 1 + row].split(",")
        cells[j] = repr(float(cells[j]) * factor + add)
        lines[start + 1 + row] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return perturb


def _shift_column(column, fn):
    """Add fn(x) to every entry of a column, x being the first column."""
    def perturb(path):
        cols, meta = checks.read_csv(path)
        names = list(cols)
        x = checks.col(cols, names[0])
        cols[column] = [repr(float(v)) for v in checks.col(cols, column) + fn(x)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"# {k}={v}\n" for k, v in meta.items())
            fh.write(",".join(names) + "\n")
            for i in range(len(x)):
                fh.write(",".join(cols[n][i] for n in names) + "\n")
    return perturb


def _edit_json(fn):
    def perturb(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        fn(doc)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return perturb


def _set(doc, *keys, value):
    for k in keys[:-1]:
        doc = doc[k]
    doc[keys[-1]] = value(doc[keys[-1]])


# one small job per check, with a perturbation a real defect could produce
CASES = {
    "betas-local": (_job("t", "betas-local", ["betas", "--model", "local", "--prime", 3],
                         p=3, M=20), _scale_csv("value", 9, 1 + 1e-7), "beta_local value"),
    "betas-shifted": (_job("t", "betas-shifted", ["betas", "--model", "shifted", "--s0", 2.25],
                           s0=2.25, M=20), _scale_csv("value", 0, 1 + 1e-7), "beta_shifted value"),
    "betas-xi": (_job("t", "betas-xi", ["betas", "--model", "xi"], M=20),
                 _scale_csv("value", 4, 1 + 1e-6), "beta_xi value"),
    "beta-ren-prime": (_job("t", "beta-ren-prime", ["beta-ren", "--method", "prime_sum",
                                                    "--mu", 1.7, "--pmax", 10**6], mu=1.7, M=10,
                            pmax=10**6),
                       _scale_csv("value", 2, add=1e-4), "beta_ren value"),
    "beta-ren-shifted": (_job("t", "beta-ren-shifted", ["beta-ren", "--method",
                                                        "shifted_contour", "--mu", 1.7],
                              s0=1.7, M=10), _scale_csv("value", 7, 1 + 1e-7),
                         "beta_shifted value"),
    "density": (_job("t", "density", ["density", "--prime", 5], p=5, spikes=5),
                _scale_csv("value", 20, 1 + 1e-5), "vprime"),
    "li": (_job("t", "li", ["li", "--zeros", "{zeros}", "--nzeros", 2000], nmax=10, nzeros=2000),
           _scale_csv("cauchy", 3, add=1e-6), "li cauchy"),
    "trace-check": (_job("t", "trace-check", ["trace-check", "--zeros", "{zeros}",
                                              "--width", 1.1], "json",
                         width=1.1, nzeros=100, primes_max=10**4),
                    _edit_json(lambda d: _set(d, "rhs", "prime_sum", value=lambda v: v * (1 + 1e-9))),
                    "trace prime_sum"),
    "explicit-psi": (_job("t", "explicit-psi", ["explicit-formula", "--kind", "psi", "--x", 17.3,
                                                "--zeros", "{zeros}"], x=17.3, nzeros=100),
                     _scale_csv("direct", 0, add=math.log(2.0)), "psi direct"),
    "explicit-J": (_job("t", "explicit-J", ["explicit-formula", "--kind", "J", "--x", 20.5,
                                            "--zeros", "{zeros}", "--nzeros", 2000],
                        x=20.5, nzeros=2000), _scale_csv("explicit", 0, add=1e-6), "J explicit"),
    "comb": (_job("t", "comb", ["comb", "--prime", "all", "--mu", 0.4, "--qmax", 4],
                  mu=0.4, qmax=4.0), _scale_csv("weight", 5, 1 + 1e-9), "comb weight"),
    "padic-check": (_job("t", "padic-check", ["padic-check", "--samples", 20],
                         primes=(2, 3, 5, 7)), _scale_csv("deviation", 4, add=1e-13),
                    "character(p=3)"),
    "wavelet-check": (_job("t", "wavelet-check", ["wavelet-check"], "json", prime=2, alpha=1.0),
                      _edit_json(lambda d: _set(d, "kernel", "value",
                                                value=lambda v: [v[0], v[1] * 1.001, v[2]])),
                      "vladimirov eigenvalue"),
    "cue": (_job("t", "cue", ["cue-sample", "--n", 20, "--samples", 500, "--seed", 5],
                 N=20, samples=500, bins=50, rmax=5.0),
            _shift_column("r2", lambda r: 0.1 + 0.0 * r), "cue scaled L2"),
    "plaquette": (_job("t", "plaquette", ["plaquette-mc", "--n", 8, "--betas", 0.2, "--sweeps",
                                          400, "--burn-in", 100, "--chains", 2, "--seed", 3],
                       N=8, betas=(0.2,), sweeps=400, burn_in=100, chains=2, bins=64),
                  # the density of the opposite sign convention
                  _shift_column("density", lambda th: 0.8 * np.cos(th) / (2 * math.pi)),
                  "mc chi^2"),
}


def test_every_check_kind_has_a_case():
    assert set(CASES) == set(checks.CHECKS)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_check_passes_then_fails_when_perturbed(kind, tmp_path):
    job, perturb, expect = CASES[kind]
    out = str(tmp_path / f"a.{job.ext}")
    ctx = {"zeros": ZEROS, "seed": 1}
    rc = cli_main(job.resolve(ZEROS, out))
    assert checks.check_job(job, rc, out, ctx) == []
    assert checks.check_job(job, 2, out, ctx) == ["exit code 2"]
    perturb(out)
    msgs = checks.check_job(job, 0, out, ctx)
    assert any(expect in m for m in msgs), msgs
    os.remove(out)
    assert checks.check_job(job, 0, out, ctx) == ["artifact missing"]


def test_unreadable_artifact_fails(tmp_path):
    job = CASES["comb"][0]
    out = tmp_path / "a.csv"
    out.write_text("location,weight\n1.0\n")
    assert checks.check_job(job, 0, str(out), {"zeros": ZEROS, "seed": 1})[0].startswith("unreadable")


def test_shifted_zero_table_fails_although_it_ingests(tmp_path):
    """ingest_zeros accepts ordinates shifted by 0.3 above t ~ 30; the
    mpmath spot check of the table catches them."""
    ts = checks.zero_ordinates(ZEROS, 2000).copy()
    ts[20:] += 0.3
    table = tmp_path / "shifted.txt"
    table.write_text("".join(f"{float(t)!r}\n" for t in ts))
    job, _, _ = CASES["explicit-J"]
    out = str(tmp_path / "J.csv")
    assert cli_main(job.resolve(str(table), out)) == 0
    msgs = checks.check_job(job, 0, out, {"zeros": str(table), "seed": 1})
    assert any("mpmath.zetazero" in m for m in msgs), msgs


def _replace_column(path, column, values):
    cols, _ = checks.read_csv(path)
    _shift_column(column, lambda x: np.asarray(values) - checks.col(cols, column))(path)


@pytest.mark.parametrize("kind", ["li", "beta-ren-prime"])
def test_fewer_terms_completed_by_their_tail_fail(kind, tmp_path):
    """A zero sum over 1800 of 2000 zeros, or a prime sum to pmax/2, each
    completed by the smooth tail from where it stopped, lands close to the
    oracle but not on the benchmark's own sum over the requested terms."""
    job = CASES[kind][0]
    out = str(tmp_path / "a.csv")
    assert cli_main(job.resolve(ZEROS, out)) == 0
    if kind == "li":
        fewer = li_coefficients_zero_sum(10, checks.zero_ordinates(ZEROS, 2000)[:1800]).values
        column, expect = "zero_sum", "li zero_sum vs own sum"
    else:
        fewer = beta_renormalized_prime_sum(10, 1.7, P_max=10**6 // 2).coefficients.real
        column, expect = "value", "beta_ren value vs own sum"
    _replace_column(out, column, fewer)
    msgs = checks.check_job(job, 0, out, {"zeros": ZEROS, "seed": 1})
    assert any(expect in m for m in msgs), msgs


def test_oracles_match_known_values():
    # Keiper-Li lambda_1 = 1 + gamma/2 - ln(4 pi)/2; local betas of p = 2 start 1, -2 ln 2 + ...
    lam1 = 1 + 0.5 * 0.57721566490153286 - 0.5 * math.log(4 * math.pi)
    assert abs(checks.li_lambdas(1)[0] - lam1) < 1e-15
    assert checks.psi_exact(10.5) == pytest.approx(math.log(2520))
    assert checks.j_exact(10.5) == pytest.approx(4 + 1 / 2 + 1 / 3 + 1 / 2)


def _span(name, layer, start, end, parent, extra=None):
    return tracer.Span(name, layer, start, end, parent, 0, extra)


def test_self_time_arithmetic_on_nested_spans():
    spans = [
        _span("main", "cli", 0.0, 10.0, -1),
        _span("ingest_zeros", "zeta", 1.0, 6.0, 0, {"zeros": 7}),
        _span("xi", "zeta", 2.0, 3.0, 1),  # same layer: stays zeta time
        _span("padic_norm", "padics", 3.5, 4.0, 1),  # other layer: taken out
        _span("beta_contour", "resolvent", 7.0, 9.0, 0),
        _span("zeta", "zeta", 7.5, 8.5, 4),
        _span("write_csv", "output", 9.5, 9.75, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs["cli"] == pytest.approx(10 - 5 - 2 - 0.25)
    assert selfs["zeta"] == pytest.approx((5 - 1 - 0.5) + 1 + 1)
    assert selfs["padics"] == pytest.approx(0.5)
    assert selfs["resolvent"] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)  # every instant charged once
    m = tracer.layer_metrics(spans)
    assert m["zeta.ingest_s"] == pytest.approx(5.0)
    assert m["zeta.xi_calls"] == 1 and m["zeta.xi_us_per_call"] == pytest.approx(1e6)
    assert m["zeta.zeros_ingested"] == 7
    assert m["zeta.zeta_calls"] == 1
    assert m["resolvent.contour_s"] == pytest.approx(2.0)
    assert m["output.write_s"] == pytest.approx(0.25)
    assert m["padics.calls"] == 1


def test_outermost_skips_nested_members_of_a_group():
    spans = [_span("li_coefficients", "zeta", 0, 4, -1),
             _span("li_coefficients_cauchy", "zeta", 1, 2, 0),
             _span("li_coefficients_zero_sum", "zeta", 5, 6, -1)]
    got = tracer.outermost(spans, {("zeta", n) for n in tracer._LI})
    assert [s.start for s in got] == [0, 5]


def test_parse_importtime_takes_outermost_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:        10 |         10 |     scipy.special._ufuncs",
        "import time:        20 |         30 |   scipy.special",
        "import time:       400 |        600 | zetaumm",
        "import time:        30 |         30 | zetaumm.cli",
        "import time:        70 |         70 | site",
    ])
    total, scipy = bench.parse_importtime(text)
    assert total == pytest.approx(630e-6)
    assert scipy == pytest.approx(180e-6)


def test_traced_runner_records_spans(tmp_path):
    out = str(tmp_path / "comb.csv")
    jobs = [{"argv": ["comb", "--prime", "all", "--qmax", "3", "--out", out],
             "argv_traced": ["comb", "--prime", "all", "--qmax", "3", "--out", out]}]
    spec = {"jobs": jobs, "spans_out": str(tmp_path / "spans.json"),
            "result_out": str(tmp_path / "result.json")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), str(spec_path)],
                   env=env, check=True, timeout=120)
    res = json.loads((tmp_path / "result.json").read_text())
    spans = [tracer.Span(*s) for s in json.loads((tmp_path / "spans.json").read_text())]
    names = {(s.layer, s.name) for s in spans}
    assert {("cli", "main"), ("traceform", "wigner_marginal_comb"), ("zeta", "PrimeTable.build"),
            ("output", "write_csv")} <= names
    top = [s for s in spans if s.parent == -1]
    assert [(s.layer, s.name) for s in top] == [("cli", "main")]
    assert res["untraced"]["jobs"][0]["rc"] == 0 and res["traced"]["jobs"][0]["rc"] == 0
    assert sum(res["self_times"].values()) == pytest.approx(top[0].end - top[0].start)
    assert set(res["metrics"]) | {"cli.import_s", "cli.import_scipy_s", "cli.cpu_s",
                                  "cli.processes", "output.bytes", "trace.untraced_pass_s",
                                  "trace.traced_pass_s", "trace.overhead_s",
                                  "trace.spans"} == set(bench.PER_LAYER)


def test_job_argv_placeholders():
    job = Job("x", "comb", ("li", "--zeros", "{zeros}", "--out", "{out}"))
    assert job.resolve("Z", "O") == ["li", "--zeros", "Z", "--out", "O"]


def test_benchmark_json_declares_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.workloads.WORKLOADS)
