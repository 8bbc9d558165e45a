"""zetaumm benchmark: fresh-process time to a verified artifact set.

    python3 perfbench/run.py --workload cli-light --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each workload is a fixed list of
`python -m zetaumm.cli ...` commands (perfbench/workloads.py) run as fresh
processes in a closed loop: one client, the next command starts after the
previous one exits.  Every artifact is verified (perfbench/checks.py).

--trace 0 reports the end-to-end metrics: wall_s (median time of a pass
over the job list), setup_s (median of several set-ups: fresh source copy,
input generation and one warm-up CLI process that compiles the bytecode)
and peak_rss_mb (largest max-RSS of any child, from its own rusage).
--trace 1 reports the per-layer metrics: an import probe, one pass of
fresh processes for their CPU time, and an in-process pass through
zetaumm.cli.main with and without span tracing (perfbench/tracer.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Optional

# BLAS/OpenMP pools of every child and of this process: fixed, identical on
# every commit, <= nproc
THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# A pass over any job list, with its calibrations, takes roughly this long on
# a 2-vCPU x86 box.  A run of --seconds S makes round(S / PASS_S) passes (at
# least one), so both sides of a comparison measure the same work.
PASS_S = 15.0
IMPORT_PROBES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.self_s": "s", "cli.cpu_s": "s",
    "cli.processes": "count",
    "output.write_s": "s", "output.bytes": "bytes",
    "zeta.ingest_s": "s", "zeta.zeros_ingested": "count", "zeta.xi_calls": "count",
    "zeta.xi_us_per_call": "us", "zeta.prime_table_s": "s", "zeta.zeta_calls": "count",
    "zeta.li_s": "s", "zeta.self_s": "s",
    "resolvent.contour_s": "s", "resolvent.prime_sum_s": "s", "resolvent.density_s": "s",
    "resolvent.self_s": "s",
    "traceform.trace_check_s": "s", "traceform.comb_s": "s", "traceform.self_s": "s",
    "ensemble.cue_us_per_matrix.n40": "us", "ensemble.cue_us_per_matrix.n80": "us",
    "ensemble.pair_corr_s": "s", "ensemble.mc_us_per_site_update.chains4": "us",
    "ensemble.mc_us_per_site_update.chains1": "us", "ensemble.mc_acceptance": "ratio",
    "ensemble.self_s": "s",
    "padics.self_s": "s", "padics.calls": "count", "wavelets.self_s": "s",
    "wavelets.calls": "count",
    "trace.untraced_pass_s": "s", "trace.traced_pass_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def child_env(src: Optional[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREADS, PYTHONHASHSEED="0")
    if src:
        env["PYTHONPATH"] = src
    return env


def environment(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "zetaumm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "child_threads": THREADS,
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def spawn(argv: list[str], env: dict, stderr_path: str) -> dict:
    """Run one child to completion; wall time and its own rusage."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "maxrss_kb": ru.ru_maxrss,
            "cpu": ru.ru_utime + ru.ru_stime}


# The machine's speed drifts by tens of percent over minutes on shared
# virtual machines, for every process alike.  Timed items are therefore
# bracketed by runs of this fixed child process, which imports numpy only
# (never the program) and does interpreter and dense linear-algebra work;
# the reported times are scaled to a machine on which it takes CAL_REF_S.
_CALIBRATION = """
import numpy as np
acc = 0
for k in range(150_000):
    acc += k * k
a = np.random.default_rng(0).standard_normal((48, 48))
for _ in range(8):
    np.linalg.eigvals(a)
"""
CAL_REF_S = 0.2
CAL_RUNS = 2  # calibration processes per bracket point, averaged
CAL_EVERY_S = 2.0


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "zetaumm.cli"] + args


class Run:
    """One benchmark run inside a private work directory of the checkout."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.seed = seed
        self.jobs = workloads.jobs(workload, seed)
        self.work = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = self.zeros = None
        self.failures: list[str] = []
        self.record: dict = {}  # raw timings, kept in the report file

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def calibrate(self) -> float:
        """Mean wall time of CAL_RUNS calibration processes."""
        err = os.path.join(self.work, "calibration.err")
        total = 0.0
        for _ in range(CAL_RUNS):
            res = spawn([sys.executable, "-c", _CALIBRATION], child_env(None), err)
            if res["rc"] != 0:
                raise Fatal(f"calibration process exited {res['rc']}: {_tail(err)}")
            total += res["wall"]
        return total / CAL_RUNS

    def bracketed(self, items, measure) -> tuple[list[float], list[float]]:
        """measure(item) for each item, with a calibration before the first
        item and after every CAL_EVERY_S of measured time and after the last.
        Returns the raw times and the times scaled by CAL_REF_S over the
        mean of the two calibrations around each item's stretch."""
        items = list(items)
        cal = [self.calibrate()]
        raw, stretch = [], []
        since = 0.0
        for i, item in enumerate(items):
            raw.append(measure(item))
            stretch.append(len(cal) - 1)
            since += raw[-1]
            if since >= CAL_EVERY_S or i == len(items) - 1:
                cal.append(self.calibrate())
                since = 0.0
        self.record.setdefault("calibration", []).append(cal)
        scaled = [t * CAL_REF_S / (0.5 * (cal[k] + cal[k + 1])) for t, k in zip(raw, stretch)]
        return raw, scaled

    def setup(self, k: int) -> float:
        """Fresh source copy (so bytecode is compiled again), job argv, and
        one untimed warm-up CLI process; returns its wall time."""
        t0 = time.perf_counter()
        src = os.path.join(self.work, f"src{k}")
        shutil.copytree(os.path.join(self.root, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info"))
        self.env = child_env(src)
        self.zeros = os.path.join(src, "zetaumm", "data", "zeros10k.txt")
        out = os.path.join(self.work, f"warmup{k}.csv")
        warm = spawn(cli_argv(workloads.WARMUP.resolve(self.zeros, out)), self.env,
                     out + ".err")
        if warm["rc"] != 0:
            raise Fatal(f"warm-up process exited {warm['rc']}: {_tail(out + '.err')}")
        return time.perf_counter() - t0

    def outdir(self, label: str) -> str:
        d = os.path.join(self.work, label)
        os.makedirs(d, exist_ok=True)
        return d

    def artifact(self, d: str, job) -> str:
        return os.path.join(d, f"{job.name}.{job.ext}")

    def verify(self, d: str, rcs: list[int]) -> int:
        """Check every artifact of a pass; returns the number of failed jobs."""
        failed = 0
        for job, rc in zip(self.jobs, rcs):
            msgs = checks.check_job(job, rc, self.artifact(d, job),
                                    {"zeros": self.zeros, "seed": self.seed})
            if msgs:
                failed += 1
                err = self.artifact(d, job) + ".err"
                detail = f" | stderr: {_tail(err)}" if rc != 0 and os.path.exists(err) else ""
                self.failures.append(f"{job.name}: {'; '.join(msgs)}{detail}")
        return failed

    def subprocess_pass(self, label: str) -> tuple[list[dict], list[float], str]:
        """Run the job list once as fresh processes; per-job results and
        scaled wall times, and the artifact directory."""
        d = self.outdir(label)
        results = []

        def run_job(job):
            out = self.artifact(d, job)
            results.append(spawn(cli_argv(job.resolve(self.zeros, out)), self.env, out + ".err"))
            return results[-1]["wall"]

        _, scaled = self.bracketed(self.jobs, run_job)
        return results, scaled, d


def _tail(path: str, n: int = 300) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-n:].strip().replace("\n", " | ")
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# import probe
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(text: str) -> tuple[float, float]:
    """(zetaumm.cli import, scipy share of it) in seconds from -X importtime.

    Entries are printed children first; nesting is two spaces per level.
    The scipy share sums the cumulative time of the scipy modules that have
    no scipy ancestor."""
    entries = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    total = sum(cum for level, name, cum in entries if level == 0 and name.startswith("zetaumm"))
    scipy = 0
    ancestors: list[tuple[int, str]] = []  # walk parents-first
    for level, name, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] == "scipy" or a[1].startswith("scipy.") for a in ancestors):
            scipy += cum
        ancestors.append((level, name))
    return total / 1e6, scipy / 1e6


def import_probe(run: Run) -> tuple[float, float, float]:
    """Medians over fresh `python -X importtime -c "import zetaumm.cli"`
    processes: import time, its scipy share, and the process wall time."""
    totals, scipys, walls = [], [], []
    for k in range(IMPORT_PROBES):
        err = os.path.join(run.work, f"importtime{k}.txt")
        res = spawn([sys.executable, "-X", "importtime", "-c", "import zetaumm.cli"],
                    run.env, err)
        with open(err, encoding="utf-8") as fh:
            total, scipy = parse_importtime(fh.read())
        if res["rc"] != 0 or total <= 0:
            raise Fatal(f"import probe failed: {_tail(err)}")
        totals.append(total)
        scipys.append(scipy)
        walls.append(res["wall"])
    return statistics.median(totals), statistics.median(scipys), statistics.median(walls)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(run: Run, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup_raw, setup_scaled = run.bracketed(range(SETUP_REPEATS), run.setup)
    passes = [run.subprocess_pass(f"pass{k}") for k in range(max(1, round(seconds / PASS_S)))]
    attempted = failed = 0
    for results, _, d in passes:
        attempted += len(results)
        failed += run.verify(d, [j["rc"] for j in results])
    # per job, the median over passes; their sum is a typical pass
    per_job = [statistics.median(p[1][i] for p in passes) for i in range(len(run.jobs))]
    raw_walls = [sum(j["wall"] for j in p[0]) for p in passes]
    rss = max(j["maxrss_kb"] for p in passes for j in p[0]) / 1024.0
    metrics = {"wall_s": sum(per_job), "setup_s": statistics.median(setup_scaled),
               "peak_rss_mb": rss}
    run.record.update(setups=setup_raw, passes=[[j["wall"] for j in p[0]] for p in passes])
    cal = [c for cs in run.record["calibration"] for c in cs]
    lines = [
        f"calibration process: median {statistics.median(cal):.3f} s over {len(cal)} runs "
        f"(times below are scaled to {CAL_REF_S} s)",
        f"setup, raw s: {' '.join(f'{s:.3f}' for s in setup_raw)}",
        f"passes: {len(passes)}, raw wall s: {' '.join(f'{w:.3f}' for w in raw_walls)}",
        f"error_rate: {failed}/{attempted} = {failed / attempted:.3g}",
        "per job (scaled wall s, median over passes; raw wall s, cpu s, max RSS MB of pass 0):",
    ]
    lines += [f"  {job.name:20s} {t:7.3f} {j['wall']:7.3f} {j['cpu']:7.3f} "
              f"{j['maxrss_kb'] / 1024:8.1f}"
              for job, t, j in zip(run.jobs, per_job, passes[0][0])]
    return metrics, attempted, failed, lines


def traced(run: Run) -> tuple[dict, int, int, list[str]]:
    run.setup(0)
    import_s, import_scipy_s, probe_wall = import_probe(run)
    dirs = {"fresh": run.outdir("fresh"), "untraced": run.outdir("inproc"),
            "traced": run.outdir("traced")}
    # user+sys of the CLI child processes, one fresh process per job
    fresh = [spawn(cli_argv(job.resolve(run.zeros, run.artifact(dirs["fresh"], job))), run.env,
                   run.artifact(dirs["fresh"], job) + ".err") for job in run.jobs]
    spec = {
        "jobs": [{"argv": job.resolve(run.zeros, run.artifact(dirs["untraced"], job)),
                  "argv_traced": job.resolve(run.zeros, run.artifact(dirs["traced"], job))}
                 for job in run.jobs],
        "spans_out": os.path.join(run.work, "spans.json"),
        "result_out": os.path.join(run.work, "trace_result.json"),
    }
    spec_path = os.path.join(run.work, "trace_spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    err = os.path.join(run.work, "trace_child.err")
    child = spawn([sys.executable, os.path.join(HERE, "tracer.py"), spec_path], run.env, err)
    if child["rc"] != 0:
        raise Fatal(f"traced run exited {child['rc']}: {_tail(err)}")
    with open(spec["result_out"], encoding="utf-8") as fh:
        res = json.load(fh)
    rcs = {"fresh": [c["rc"] for c in fresh], "untraced": [j["rc"] for j in res["untraced"]["jobs"]],
           "traced": [j["rc"] for j in res["traced"]["jobs"]]}
    attempted = failed = 0
    for label, d in dirs.items():
        attempted += len(run.jobs)
        failed += run.verify(d, rcs[label])
    sizes = [os.path.getsize(run.artifact(dirs["untraced"], job)) for job in run.jobs
             if os.path.exists(run.artifact(dirs["untraced"], job))]
    m = dict(res["metrics"])
    untraced_s, traced_s = res["untraced"]["wall"], res["traced"]["wall"]
    m.update({
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        "cli.cpu_s": sum(c["cpu"] for c in fresh),
        "cli.processes": len(run.jobs),
        "output.bytes": sum(sizes),
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": res["spans"],
    })
    n, fresh_s = len(run.jobs), sum(c["wall"] for c in fresh)
    lines = [
        f"import probe: zetaumm.cli {import_s:.3f} s (scipy {import_scipy_s:.3f} s), "
        f"fresh interpreter + import {probe_wall:.3f} s",
        f"in-process pass: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
        f"tracing overhead {traced_s - untraced_s:+.3f} s over {res['spans']} spans "
        f"({res['wrapped']} functions wrapped)",
        f"fresh-process pass: {fresh_s:.3f} s wall, {m['cli.cpu_s']:.3f} s cpu over {n} processes; "
        f"start-up ({n} x {probe_wall:.3f} s) is {n * probe_wall / fresh_s:.0%} of the wall",
        "self time by layer (share of the traced pass):",
    ]
    lines += [f"  {layer:10s} {t:8.3f} s  {t / traced_s:6.1%}" for layer, t in res["self_times"].items()]
    return m, attempted, failed, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zetaumm", "cli.py")):
        print("perfbench: run from the root of a zetaumm checkout (src/zetaumm is missing)",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    try:
        env = environment(root)
        if args.trace:
            metrics, attempted, failed, lines = traced(run)
        else:
            metrics, attempted, failed, lines = end_to_end(run, args.seconds)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()
    report = os.path.join(root, ".perfbench_work",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(dict(run.record, environment=env, metrics=metrics, failures=run.failures,
                       attempted=attempted, failed=failed), fh, indent=1)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines + [f"FAIL {f}" for f in run.failures]:
        print(line)
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
