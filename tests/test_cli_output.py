import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import zetaumm
from zetaumm import cli, ensemble, output, padics, traceform, wavelets, zeta
from zetaumm.cli import COMMANDS, build_parser, main
from zetaumm.padics import ShellSum
from zetaumm.resolvent import beta_pole_free, density_profile, local_potential_derivative
from zetaumm.zeta import (PrimeTable, bundled_zeros_path, ingest_zeros, li_coefficients_cauchy,
                          li_coefficients_zero_sum, local_count_direct, local_count_explicit)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _read(path, mode="r", **kwargs):
    with open(path, mode, **kwargs) as fh:
        return fh.read()


def read_csv(path: str):
    """Round-trip reader for files produced by output.write_csv: returns
    (columns dict of float arrays where possible, metadata dict)."""
    metadata: dict[str, str] = {}
    rows: list[list[str]] = []
    header: list[str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                metadata[key] = val
                continue
            if header is None:
                header = line.split(",")
                continue
            if line:
                rows.append(line.split(","))
    columns: dict[str, object] = {}
    for j, name in enumerate(header or []):
        vals = [r[j] for r in rows]
        try:
            columns[name] = np.array([float(v) for v in vals])
        except ValueError:
            columns[name] = vals
    return columns, metadata


class TestOutput:
    def test_csv_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "t.csv")
        vals = np.array([1.0 / 3.0, math.pi, 1e-300, 7.0])
        output.write_csv(path, {"x": vals}, {"alpha": 0.1, "name": "run"})
        cols, md = read_csv(path)
        assert np.array_equal(cols["x"], vals)  # 17 digits round-trip float64
        assert md["name"] == "run"

    def test_csv_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            output.write_csv(str(tmp_path / "t.csv"), {"a": [1], "b": [1, 2]}, {})

    def test_json_structure(self, tmp_path):
        path = str(tmp_path / "t.json")
        output.write_json(path, {"arr": np.array([1.5, 2.5])}, {"k": 3})
        doc = json.loads(_read(path))
        assert doc["metadata"]["k"] == 3
        assert doc["arr"] == [1.5, 2.5]

    def test_json_numpy_values_written_as_their_python_twins(self, tmp_path):
        # np.float64 is a float; arrays, integers and booleans go through the hook
        def doc(f, i, b, arr):
            return {"f": f(1.0 / 3.0), "i": i(-7), "b": b(True),
                    "nested": {"arr": arr([[0.1, 2.0], [1e-300, -4.5]]), "list": [f(math.pi), i(2)]}}
        np_path, py_path = str(tmp_path / "np.json"), str(tmp_path / "py.json")
        output.write_json(np_path, doc(np.float64, np.int64, np.bool_, np.array),
                          {"x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(False)})
        output.write_json(py_path, doc(float, int, bool, lambda rows: rows),
                          {"x": 0.1, "n": 3, "ok": False})
        assert _read(np_path) == _read(py_path)

    def test_json_refuses_other_objects(self, tmp_path):
        with pytest.raises(TypeError, match="complex"):
            output.write_json(str(tmp_path / "t.json"), {"z": 1j}, {})


class TestCLI:
    @pytest.mark.parametrize("argv", [
        ["cue-sample", "--n", "12", "--samples", "150", "--seed", "7"],
        ["betas", "--model", "xi"],
        ["beta-ren", "--method", "shifted_contour", "--mu", "1.5"],
    ], ids=["cue-sample", "betas-xi", "beta-ren-shifted_contour"])
    def test_output_reproducible_bit_for_bit(self, tmp_path, argv):
        out = str(tmp_path / "pc.csv")
        assert main(argv + ["--out", out]) == 0
        first = _read(out, "rb")
        assert main(argv + ["--out", out]) == 0
        assert _read(out, "rb") == first

    def test_csv_and_json_carry_same_numbers(self, tmp_path):
        csv_path = str(tmp_path / "b.csv")
        json_path = str(tmp_path / "b.json")
        base = ["betas", "--model", "local", "--prime", "3", "--mmax", "6"]
        assert main(base + ["--out", csv_path]) == 0
        assert main(base + ["--out", json_path, "--format", "json"]) == 0
        cols, _ = read_csv(csv_path)
        doc = json.loads(_read(json_path))
        assert np.array_equal(np.asarray(doc["series"]["value"]), cols["value"])

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["betas", "--model", "local", "--prime", "2", "--zzz", "1", "--out", "x"]) == 1
        assert main(["no-such-command"]) == 1

    def test_missing_precondition_exits_one(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["betas", "--model", "local", "--out", out]) == 1  # no prime
        assert main(["li", "--zeros", str(tmp_path / "none.txt"), "--out", out]) == 1
        zeros = ["--zeros", bundled_zeros_path()]
        assert main(["explicit-formula", "--x", "0.5", "--out", out] + zeros) == 1
        assert main(["explicit-formula", "--kind", "psi", "--x", "10.5", "--out", out]) == 1
        assert main(["beta-ren", "--method", "xi_decomposition", "--mu", "0.7", "--out", out]) == 1
        assert main(["beta-ren", "--method", "shifted_contour", "--mu", "0.5", "--out", out]) == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, message", [
        (["li", "--zeros", bundled_zeros_path(), "--nmax", "0"], "M must be >= 1"),
        (["betas", "--model", "gamma", "--mmax", "0"], "M must be >= 1"),
        (["cue-sample", "--n", "4", "--samples", "-5"], "samples must be >= 1"),
        (["cue-sample", "--n", "4", "--samples", "0"], "samples must be >= 1"),
        (["plaquette-mc", "--sweeps", "0"], "chains, sweeps and bins must be >= 1"),
        (["plaquette-mc", "--chains", "0"], "chains, sweeps and bins must be >= 1"),
        (["plaquette-mc", "--n", "0"], "N, chains, sweeps and bins must be >= 1"),
        (["plaquette-mc", "--burn-in", "-5"], "burn_in >= 0"),
        (["density", "--prime", "2", "--spikes", "-3"], "n_spikes must be >= 0"),
        (["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--pmax", "1"], "P_max must be >= 2"),
        (["betas", "--model", "local", "--prime", "2", "--mmax", "64", "--nodes", "64"],
         "M = 64 needs more than Q = 64 nodes"),
        (["li", "--zeros", bundled_zeros_path(), "--nmax", "512"],
         "M = 512 needs more than Q = 512 nodes"),
        (["beta-ren", "--method", "shifted_contour", "--mu", "1.5", "--mmax", "1024"],
         "M = 1024 needs more than Q = 1024 nodes"),
        (["trace-check", "--zeros", bundled_zeros_path(), "--primes-max", "0"], "prime limit 0"),
        (["padic-check", "--samples", "0"], "--samples >= 1"),
        (["betas", "--model", "shifted", "--s0", "nan"], "'nan' is not a finite number"),
        (["betas", "--model", "shifted", "--s0", "inf"], "'inf' is not a finite number"),
        (["beta-ren", "--method", "shifted_contour", "--mu", "nan"], "'nan' is not a finite number"),
        (["beta-ren", "--method", "prime_sum", "--mu", "inf"], "'inf' is not a finite number"),
        (["comb", "--mu", "nan"], "'nan' is not a finite number"),
        (["explicit-formula", "--kind", "j_local", "--x", "nan"], "'nan' is not a finite number"),
        (["explicit-formula", "--kind", "psi", "--zeros", bundled_zeros_path(), "--x", "inf"],
         "'inf' is not a finite number"),
        (["plaquette-mc", "--sweeps", "1", "--betas", "0.1,,0.05"], "invalid float value: ''"),
        (["plaquette-mc", "--sweeps", "1", "--betas", "0.1,"], "invalid float value: ''"),
        (["plaquette-mc", "--sweeps", "1", "--betas", "nan"], "'nan' is not a finite number"),
        (["plaquette-mc", "--sweeps", "1", "--betas", "0.75"], "leaves the no-gap phase"),
        (["plaquette-mc", "--sweeps", "1", "--betas", "0.75,0"], "leaves the no-gap phase"),
        (["plaquette-mc", "--sweeps", "1", "--betas", "0.75,0,0"], "leaves the no-gap phase"),
        (["plaquette-mc", "--sweeps", "1", "--betas=-0.75,-0"], "leaves the no-gap phase"),
        (["betas", "--s0", "5", "--model", "local", "--prime", "2"], "s0 is read by the shifted model only"),
        (["betas", "--s0", "5", "--model", "gamma"], "s0 is read by the shifted model only"),
        (["betas", "--s0", "5", "--model", "xi"], "s0 is read by the shifted model only"),
        (["betas", "--prime", "5", "--model", "gamma"], "p is read by the local model only"),
        (["betas", "--prime", "5", "--s0", "1.5", "--model", "shifted"], "p is read by the local model only"),
        (["betas", "--prime", "5", "--model", "xi"], "p is read by the local model only"),
        (["comb", "--qmax", "1000"], "math range error"),
        (["betas", "--model", "local", "--prime", "2", "--radius", "1e-300"],
         "Numerical result out of range"),
        # sizes beyond the 2^47-byte address space, so that nothing is touched
        (["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--pmax", "100000000000000000"],
         "Unable to allocate"),
        (["trace-check", "--zeros", bundled_zeros_path(), "--primes-max", "100000000000000000"],
         "Unable to allocate"),
        (["cue-sample", "--n", "4", "--samples", "300"], "r_max = 5 exceeds N = 4"),
    ], ids=lambda v: " ".join(v[:1] + v[-2:]) if isinstance(v, list) else None)
    def test_size_option_exits_one(self, tmp_path, capsys, argv, message):
        out = str(tmp_path / "x.csv")
        assert main(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_metadata_echo(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert main(["comb", "--prime", "3", "--qmax", "4.0", "--out", out]) == 0
        _, md = read_csv(out)
        assert md["command"] == "comb"
        assert md["qmax"] == "4"
        assert "version" in md
        assert abs(float(md["position-period"]) - 2 * math.pi / math.log(3)) < 1e-12

    @pytest.mark.parametrize("argv", [
        ["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--mmax", "3", "--pmax", "10000"],
        ["beta-ren", "--method", "shifted_contour", "--mu", "1.5", "--mmax", "3"],
    ], ids=["prime_sum", "shifted_contour"])
    def test_beta_ren_metadata_is_its_options(self, tmp_path, argv):
        # the echoed --method and --mu say which series the file holds
        out = str(tmp_path / "b.csv")
        assert main(argv + ["--out", out]) == 0
        _, md = read_csv(out)
        assert md["method"] == argv[2] and md["mu"] == "1.5"
        assert "model" not in md

    def test_beta_ren_contours_are_the_library_routes(self, tmp_path):
        # beta-ren's contour is |z| = 0.5 with 1024 nodes: its shifted route
        # writes the value bytes of betas there, with betas' radius_error
        # plus doubling_error as every row's error at mu = 1.5 (q = 0, so
        # the pole part adds no rounding), and its mu = 1/2 route writes
        # G_m = beta°_m / m
        def text_columns(path):
            rows = [line.split(",") for line in _read(path).splitlines() if not line.startswith("# ")]
            return {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}

        ren, ref, xi = (str(tmp_path / name) for name in ("ren.csv", "betas.csv", "xi.csv"))
        assert main(["beta-ren", "--method", "shifted_contour", "--mu", "1.5", "--mmax", "10",
                     "--out", ren]) == 0
        assert main(["betas", "--model", "shifted", "--s0", "1.5", "--mmax", "10", "--nodes", "1024",
                     "--out", ref]) == 0
        got, want = text_columns(ren), text_columns(ref)
        assert got["value"] == want["value"]
        md = read_csv(ref)[1]
        assert np.array_equal(read_csv(ren)[0]["error"],
                              np.full(10, float(md["radius_error"]) + float(md["doubling_error"])))
        assert main(["beta-ren", "--method", "xi_decomposition", "--mu", "0.5", "--mmax", "10",
                     "--out", xi]) == 0
        values = read_csv(xi)[0]["value"]
        G = beta_pole_free(0.5, 10, 0.5, 1024).coefficients / np.arange(1, 11)
        assert np.array_equal(values, G.real)

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mmax=7\nradius=0.45\n")
        out = str(tmp_path / "b.csv")
        assert main(["betas", "--model", "local", "--prime", "2", f"@{cfg}", "--out", out]) == 0
        cols, md = read_csv(out)
        assert cols["index"].size == 7
        assert float(md["radius"]) == 0.45
        # an explicit flag wins over the file, before it or after it
        for argv in (["--mmax", "4", f"@{cfg}"], [f"@{cfg}", "--mmax", "4"]):
            assert main(["betas", "--model", "local", "--prime", "2", *argv, "--out", out]) == 0
            cols, md = read_csv(out)
            assert cols["index"].size == 4 and float(md["radius"]) == 0.45

    def test_config_supplies_required_options(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model=local\nprime=2\nmmax=5\nout={out}\n")
        assert main(["betas", f"@{cfg}"]) == 0
        cols, md = read_csv(str(out))
        assert cols["index"].size == 5
        assert md["model"] == "local" and md["prime"] == "2"
        # explicit flags still win over the file, required ones included
        other = tmp_path / "explicit.csv"
        assert main(["betas", f"@{cfg}", "--mmax", "3", "--out", str(other)]) == 0
        cols, md = read_csv(str(other))
        assert cols["index"].size == 3
        assert md["model"] == "local" and md["out"] == str(other)
        # the file's prime reaches a model that does not read it, as the flag would
        other.unlink()
        assert main(["betas", f"@{cfg}", "--model", "gamma", "--out", str(other)]) == 1
        assert not other.exists()
        cfg.write_text(f"model=local\nprime=2\nout={out}\nbogus=1\n")
        assert main(["betas", f"@{cfg}"]) == 1

    @pytest.mark.parametrize("argv, key, message", [
        (["--model", "xi"], "prime = 3", "p is read by the local model only, not by 'xi'"),
        (["--model", "local", "--prime", "2"], "s0 = 1.5",
         "s0 is read by the shifted model only, not by 'local'"),
    ], ids=["xi-prime", "local-s0"])
    def test_options_file_keys_a_model_does_not_read_exit_one(self, tmp_path, capsys, argv, key,
                                                              message):
        # the file's key is refused as the same flag is: no per-model dropping
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}\nmmax = 3\n")
        out = tmp_path / "b.csv"
        flag, value = key.split(" = ")
        for extra in ([f"@{cfg}"], [f"--{flag}", value]):
            assert main(["betas", *argv, *extra, "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv, cfg, key, value", [
        (["plaquette-mc", "--n", "6", "--sweeps", "20", "--chains", "1"], "burn-in=7", "burn-in", "7"),
        (["plaquette-mc", "--n", "6", "--sweeps", "20", "--chains", "1"],
         "# a comment\n\n  burn_in =  7  ", "burn-in", "7"),
        (["trace-check", "--zeros", bundled_zeros_path()], "primes-max = 1000",
         "primes-max", "1000"),
    ], ids=["burn-in", "burn_in", "primes-max"])
    def test_config_sets_a_hyphenated_option(self, tmp_path, argv, cfg, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(cfg + "\n")
        out = str(tmp_path / "x.csv")
        assert main(argv + [f"@{path}", "--out", out]) == 0
        _, md = read_csv(out)
        assert md[key] == value

    @pytest.mark.parametrize("argv, cfg, message", [
        (["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--mmax", "3", "--powers", "60"], None,
         "unrecognized arguments: --powers 60"),
        (["wavelet-check", "--kernel-b", "12"], None,
         "unrecognized arguments: --kernel-b 12"),
        (["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--mmax", "3"], "powers=60",
         "unrecognized arguments: --powers=60"),
        (["li", "--zeros", bundled_zeros_path(), "--nmax", "1", "--tolerance", "0.001"], None,
         "unrecognized arguments: --tolerance 0.001"),
        (["li", "--zeros", bundled_zeros_path(), "--nmax", "1"], "tolerance=0.001",
         "unrecognized arguments: --tolerance=0.001"),
        (["beta-ren", "--method", "shifted_contour", "--mu", "1.5", "--mmax", "3", "--radius", "0.5"],
         None, "unrecognized arguments: --radius 0.5"),
        (["beta-ren", "--method", "shifted_contour", "--mu", "1.5", "--mmax", "3", "--nodes", "1024"],
         None, "unrecognized arguments: --nodes 1024"),
        (["li", "--zeros", bundled_zeros_path(), "--nmax", "1", "--nodes", "512"], None,
         "unrecognized arguments: --nodes 512"),
        (["beta-ren", "--method", "shifted_contour", "--mu", "1.5", "--mmax", "3"], "nodes = 1024",
         "unrecognized arguments: --nodes=1024"),
        (["padic-check", "--samples", "5", "--primes", "3"], None, "unrecognized arguments: --primes 3"),
        (["wavelet-check", "--prime", "3"], None, "unrecognized arguments: --prime 3"),
        (["wavelet-check", "--nmax", "3"], None, "unrecognized arguments: --nmax 3"),
        (["wavelet-check", "--alpha", "2"], None, "unrecognized arguments: --alpha 2"),
        (["density", "--prime", "2", "--grid-start", "1"], None, "unrecognized arguments: --grid-start 1"),
        (["density", "--prime", "2", "--grid-stop", "5"], None, "unrecognized arguments: --grid-stop 5"),
        (["density", "--prime", "2", "--grid-points", "9"], None,
         "unrecognized arguments: --grid-points 9"),
        (["density", "--prime", "2"], "grid_points = 9", "unrecognized arguments: --grid-points=9"),
        (["li", "--zeros", bundled_zeros_path(), "--nmax", "1", "--radius", "0.02"], None,
         "unrecognized arguments: --radius 0.02"),
        (["explicit-formula", "--kind", "j_local", "--x", "10", "--terms", "500"], None,
         "unrecognized arguments: --terms 500"),
        (["cue-sample", "--n", "12", "--samples", "100", "--bins", "1"], None,
         "unrecognized arguments: --bins 1"),
        (["cue-sample", "--n", "12", "--samples", "100", "--rmax", "4"], None,
         "unrecognized arguments: --rmax 4"),
        (["plaquette-mc", "--n", "6", "--sweeps", "20", "--bins", "32"], None,
         "unrecognized arguments: --bins 32"),
        (["li", "--zeros", bundled_zeros_path(), "--nm", "2"], None, "unrecognized arguments: --nm 2"),
        (["trace-check", "--zeros", bundled_zeros_path(), "--primes", "1000"], None,
         "unrecognized arguments: --primes 1000"),
    ], ids=["powers", "kernel-b", "config-powers", "tolerance", "config-tolerance",
            "beta-ren-radius", "beta-ren-nodes", "li-nodes", "config-beta-ren-nodes",
            "padic-primes", "wavelet-prime", "wavelet-nmax", "wavelet-alpha", "grid-start",
            "grid-stop", "grid-points", "config-grid-points", "li-radius", "terms", "cue-bins",
            "cue-rmax", "plaquette-bins", "li-nm-abbreviation", "trace-primes-abbreviation"])
    def test_retired_truncation_options_exit_one(self, tmp_path, capsys, argv, cfg, message):
        # the prime-power loop and the Vladimirov kernel's domain cutoff are
        # fixed where they move no result, li's bar is the two routes' own
        # error estimates, and the contours of beta-ren (|z| = 0.5, 1024
        # nodes) and of li (|z| = 0.45, 512 nodes) take Taylor coefficients
        # of functions analytic on the unit disk, whose exact values no
        # radius or node count changes.  The checks' sizes (padic-check at
        # p = 2, 3, 5, 7; wavelet-check's 12 x 12 Gram matrix at p = 2 and
        # alpha = 1), density's theta grid, j_local's 1000 terms and the
        # histogram bins of cue-sample (50 up to r = 5) and plaquette-mc
        # (64) are fixed too: none of them is an option
        if cfg is not None:
            path = tmp_path / "run.cfg"
            path.write_text(cfg + "\n")
            argv = argv + [f"@{path}"]
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_density_writes_the_profile_grid(self, tmp_path):
        # density writes the grid density_profile samples, 64 points from 0.5 to 5.78
        out = str(tmp_path / "d.json")
        assert main(["density", "--prime", "3", "--format", "json", "--out", out]) == 0
        doc = json.loads(_read(out))
        theta = np.linspace(0.5, 5.78, 64)
        assert np.array_equal(doc["theta"], theta) and np.array_equal(density_profile(3, 5).theta, theta)
        assert np.array_equal(doc["vprime"], local_potential_derivative(3, theta))

    def test_density_prime_with_a_spike_on_the_grid_exits_one(self, tmp_path, capsys):
        # spike -6 of this prime lies 3.6e-11 from grid point 58
        out = tmp_path / "d.csv"
        assert main(["density", "--prime", "136308191", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "zetaumm: grid point 5.360952380952382 sits on a density spike\n"
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        out = tmp_path / "b.csv"
        assert main(["betas", "--model", "local", "--prime", "2", f"@{cfg}", "--out", str(out)]) == 1
        assert "--bogus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (None, "No such file or directory"),
        ("mmax = 3\nradius 0.45\n", "options file line 'radius 0.45': expected key = value"),
    ], ids=["missing", "no-equals"])
    def test_unreadable_options_file_exits_one(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "b.csv"
        assert main(["betas", "--model", "local", "--prime", "2", f"@{cfg}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_options_file_artifact_is_the_flags_artifact(self, tmp_path):
        cfg = tmp_path / "xi.cfg"
        cfg.write_text("# the xi model's order\nmmax = 12\n")
        out = tmp_path / "b.csv"
        assert main(["betas", "--model", "xi", "--mmax", "12", "--out", str(out)]) == 0
        flags = out.read_bytes()
        out.unlink()
        assert main(["betas", "--model", "xi", f"@{cfg}", "--out", str(out)]) == 0
        assert out.read_bytes() == flags
        assert "config" not in read_csv(str(out))[1]

    def test_trace_check_exit_zero_iff_within_bound(self, tmp_path):
        out = str(tmp_path / "tr.json")
        rc = main(["trace-check", "--zeros", bundled_zeros_path(), "--nzeros", "100",
                   "--primes-max", "10000", "--width", "1.0",
                   "--out", out, "--format", "json"])
        assert rc == 0
        doc = json.loads(_read(out))
        assert abs(doc["residual"]) <= doc["bounds"]["total"]

    def test_trace_check_artifacts_carry_the_report_terms(self, tmp_path):
        argv = ["trace-check", "--zeros", bundled_zeros_path(), "--nzeros", "100"]
        csv_out, json_out = str(tmp_path / "tr.csv"), str(tmp_path / "tr.json")
        assert main(argv + ["--out", csv_out]) == 0
        assert main(argv + ["--out", json_out, "--format", "json"]) == 0
        rep = traceform.trace_formula_check(1.0, ingest_zeros(bundled_zeros_path(), 100), 100,
                                            PrimeTable.build(10**4))
        cols, _ = read_csv(csv_out)
        assert cols["term"] == [*rep.lhs_terms, *rep.rhs_terms, "residual", "bound"]
        doc = json.loads(_read(json_out))
        assert list(doc) == ["metadata", "lhs", "rhs", "residual", "bounds"]
        assert list(doc["lhs"]) == list(rep.lhs_terms) and list(doc["rhs"]) == list(rep.rhs_terms)
        assert list(doc["bounds"]) == [*rep.bounds, "total"]
        assert doc["residual"] == rep.residual and doc["bounds"]["total"] == rep.total_bound

    def test_li_disagreement_exits_two(self, tmp_path, zeros_2000, capsys):
        # a zero table with the first ordinate dropped still validates, but
        # the two Li routes then disagree beyond the combined tolerance
        crooked = tmp_path / "crooked.txt"
        crooked.write_text("\n".join(str(t) for t in zeros_2000.ts[1:300]) + "\n")
        out = str(tmp_path / "li.csv")
        rc = main(["li", "--zeros", str(crooked), "--nmax", "4", "--nzeros", "299", "--out", out])
        assert rc == 2
        cols, _ = read_csv(out)  # the artifact is written before the exit
        assert cols["index"].size == 4
        err = capsys.readouterr().err
        assert re.search(r"lambda_1: cauchy \S+ vs zero_sum \S+ differ by \S+ \(> bar \S+\)", err)

    def test_li_missing_sixth_zero_exits_two(self, tmp_path, capsys):
        # the first 2000 bundled ordinates less t = 37.586: lambda_1 moves by
        # 7.1e-4, within a slack of 1e-3 but 32 times the two routes' bar
        lines = [ln for ln in _read(bundled_zeros_path()).splitlines() if not ln.startswith("#")]
        crooked = tmp_path / "drop6.txt"
        crooked.write_text("\n".join(lines[:5] + lines[6:2000]) + "\n")
        out = str(tmp_path / "li.csv")
        rc = main(["li", "--zeros", str(crooked), "--nmax", "1", "--nzeros", "1999", "--out", out])
        assert rc == 2
        cols, _ = read_csv(out)  # the artifact is written before the exit
        assert cols["index"].tolist() == [1]
        assert re.search(r"lambda_1: .* \(> bar 2\.21e-05\)", capsys.readouterr().err)

    def test_trace_check_exit_two_names_its_reason(self, tmp_path, monkeypatch, capsys):
        report = traceform.TraceReport(
            lhs_terms={"pole": 1.0, "zero_sum": 0.0, "digamma": 0.0},
            rhs_terms={"log_pi": 0.0, "prime_sum": 0.5},
            bounds={"prime_tail": 2e-2, "digamma_tail": 0.0, "quadrature": 1e-9})
        monkeypatch.setattr(traceform, "trace_formula_check", lambda *args: report)
        out = str(tmp_path / "tr.json")
        rc = main(["trace-check", "--zeros", bundled_zeros_path(), "--nzeros", "50",
                   "--primes-max", "100", "--out", out, "--format", "json"])
        assert rc == 2
        assert json.loads(_read(out))["residual"] == 0.5
        err = capsys.readouterr().err
        assert "residual" in err and "total_bound" in err and "prime_tail 0.02" in err
        assert "differ by 0.5" in err

    def test_wavelet_check_exit_two_names_its_reason(self, tmp_path, monkeypatch, capsys):
        # an eigenvalue 1e-5 off makes the scale-0 relative residual 1e-5/2
        monkeypatch.setattr(wavelets, "vladimirov_eigenvalue",
                            lambda p, alpha, scale: complex(p) ** (alpha * (1 - scale)) + 1e-5)
        out = tmp_path / "w.json"
        assert main(["wavelet-check", "--out", str(out), "--format", "json"]) == 2
        assert json.loads(out.read_text())["pass"] is False  # written before the exit
        err = capsys.readouterr().err
        assert "kernel(scale=0): residual 5e-06 is not below 1e-06" in err

    @pytest.mark.parametrize("alpha", [1e-10, 1e-11, 1e-12])
    def test_wavelet_check_passes_at_small_alpha(self, alpha):
        # wavelet-check's kernel residuals at alpha -> 0: 1 - p^(+-alpha) by
        # expm1, where the plain difference lost ~|log10 alpha| digits and
        # failed the 1e-6 limit
        for scale in (0, 1):
            res = wavelets.vladimirov_apply(wavelets.WaveletIndex(2, scale), alpha)
            assert res.residual / abs(res.eigenvalue) < 1e-15

    def test_padic_check_exit_two_names_its_reason(self, tmp_path, monkeypatch, capsys):
        shell = ShellSum(value=1.0, tail_bound=1e-9, closed_form=1.5)
        monkeypatch.setattr(padics, "haar_integrate_norm_power", lambda p, s, K: shell)
        out = str(tmp_path / "p.csv")
        assert main(["padic-check", "--samples", "5", "--out", out]) == 2
        cols, _ = read_csv(out)
        assert cols["deviation"][-1] == 0.5
        err = capsys.readouterr().err
        assert "haar_shell(p=2): deviation 0.5 exceeds bound 1e-09" in err

    def test_padic_check_ultrametric_can_fail(self, tmp_path, monkeypatch, capsys):
        # the archimedean norm |x| breaks |a + b| <= max(|a|, |b|) whenever a, b share a sign
        monkeypatch.setattr(padics, "padic_norm", lambda x, p: abs(Fraction(x)))
        out = tmp_path / "p.json"
        assert main(["padic-check", "--samples", "5", "--out", str(out), "--format", "json"]) == 2
        assert json.loads(out.read_text())["pass"] is False  # written before the exit
        err = capsys.readouterr().err
        assert "ultrametric(p=2): deviation" in err and "exceeds bound 0" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_artifact_exits_two_after_writing(self, tmp_path, capsys, fmt):
        # at s0 = 1e17 the Euler-Maclaurin rising factorial overflows: every coefficient is NaN
        out = tmp_path / f"betas.{fmt}"
        with np.errstate(all="ignore"):
            code = main(["betas", "--model", "shifted", "--s0", "1e17", "--out", str(out), "--format", fmt])
        assert code == 2
        assert "nan" in out.read_text().lower()  # written before the exit (JSON spells it NaN)
        err = capsys.readouterr().err
        assert err.endswith("zetaumm: numeric consistency failure: column 'value' holds nan at row 1\n")

    def test_non_finite_names_the_first_row_and_each_metadata_key(self):
        columns = {"check": ["a", "b", "c"], "n": np.arange(3), "x": np.array([1.0, -np.inf, np.nan])}
        metadata = {"out": "x.csv", "mu": 0.5, "width": math.nan, "bar": math.inf}
        assert cli._non_finite(columns, metadata) == [
            "column 'x' holds -inf at row 2", "metadata 'bar' holds inf", "metadata 'width' holds nan"]
        assert cli._non_finite({"x": [1.0, 2.0]}, {"mu": 0.5}) == []

    def test_own_checks_exit_two_only_through_emit(self):
        # handlers pass their failure messages to _emit, which writes the
        # artifact before it raises; the two-route builder only reports
        def raises(tree):
            return [n for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc is not None
                    and "NumericConsistencyError" in ast.unparse(n.exc)]

        def function(module, name):
            tree = ast.parse(_read(module.__file__))
            return tree, next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)

        tree, emit = function(cli, "_emit")
        assert len(raises(tree)) == len(raises(emit)) == 1
        _, builder = function(zeta, "check_agreement")
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(builder))

    def test_shifted_model_at_or_below_half_exits_one(self, tmp_path, capsys):
        # at s0 = 1/2 zeta's pole reaches z = 0 and its closed-form part
        # (-(3 - 2 s0)/(2 s0 - 1))^m has no value; below, the pole leaves the
        # disk on the other side
        out = str(tmp_path / "b.csv")
        for s0 in ("0.5", "0.3"):
            assert main(["betas", "--model", "shifted", "--s0", s0, "--out", out]) == 1
            assert "s0 > 1/2" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_prime_option_checked(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        for argv in (["density", "--prime", "1"], ["betas", "--model", "local", "--prime", "4"],
                     ["explicit-formula", "--kind", "j_local", "--prime", "4", "--x", "10"],
                     ["comb", "--prime", "4"], ["density", "--prime", "9"]):
            assert main(argv + ["--out", out]) == 1
            err = capsys.readouterr().err
            assert "is not a prime" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_excluded_ordinates_reported_on_stderr(self, tmp_path, capsys):
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("14.134725141734694\n17.25\n21.022039638771555\n25.3\n")
        out = str(tmp_path / "ef.csv")
        argv = ["explicit-formula", "--kind", "psi", "--x", "10.5", "--zeros", str(zeros), "--out", out]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err == f"zetaumm: 2 of 4 ordinates of {zeros} failed validation (first t = 17.25)\n"
        assert "17.25" not in _read(out)
        zeros.write_text("17.25\n")  # nothing left to expand over
        for argv in (argv, ["li", "--zeros", str(zeros), "--out", out],
                     ["trace-check", "--zeros", str(zeros), "--out", out]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "no ordinate of" in err and "Traceback" not in err

    def test_explicit_formula_j_local(self, tmp_path):
        out = str(tmp_path / "ef.csv")
        rc = main(["explicit-formula", "--kind", "j_local", "--prime", "3", "--x", "10", "--out", out])
        assert rc == 0
        cols, _ = read_csv(out)
        assert cols["direct"][0] == local_count_direct(3, 10.0) == 2.0
        # the pole expansion runs to 1000 terms, with the 1/(pi K) tail
        assert cols["explicit"][0] == local_count_explicit(3, 10.0)
        assert cols["tail_estimate"][0] == 1.0 / (math.pi * 1000)

    @pytest.mark.parametrize("kind, unread", [("psi", {"prime"}), ("J", {"prime"}),
                                              ("j_local", {"zeros", "nzeros"})])
    def test_explicit_formula_echoes_only_what_its_kind_reads(self, tmp_path, kind, unread):
        out = str(tmp_path / "ef.csv")
        argv = ["explicit-formula", "--kind", kind, "--x", "10.5", "--prime", "3", "--nzeros", "50",
                "--zeros", bundled_zeros_path(), "--out", out]
        assert main(argv) == 0
        md = read_csv(out)[1]
        assert not unread & set(md)
        assert {"kind", "x"} <= set(md)

    def test_readme_commands_parse(self):
        text = _read(README, encoding="utf-8")
        block = re.search(r"## CLI\n.*?```\n(.*?)```", text, re.S).group(1)
        lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("zetaumm ")]
        parser = build_parser()
        commands = [parser.parse_args(shlex.split(line)[1:]).command for line in lines]
        assert sorted(commands) == sorted(COMMANDS)  # one line per command

    def test_li_refuses_a_short_table(self, tmp_path, capsys):
        out = tmp_path / "li.csv"
        rc = main(["li", "--zeros", bundled_zeros_path(), "--nmax", "3", "--nzeros", "20000",
                   "--out", str(out)])
        assert rc == 1
        assert "holds 10000 < n_zeros = 20000" in capsys.readouterr().err
        assert not out.exists()

    def test_li_twenty_coefficients_agree(self, tmp_path, li_oracle_20, zeros_2000):
        out = str(tmp_path / "li20.csv")
        rc = main(["li", "--zeros", bundled_zeros_path(), "--nmax", "20", "--nzeros", "2000",
                   "--out", out])
        assert rc == 0
        cols, _ = read_csv(out)
        assert np.abs(cols["cauchy"] - li_oracle_20).max() < 1e-7
        # the bar is the two routes' own error estimates, with no slack added
        bar = (li_coefficients_cauchy(20).error_estimate
               + li_coefficients_zero_sum(20, zeros_2000.ts, 2000).error_estimate)
        assert np.array_equal(cols["combined_tolerance"], bar)

    def test_cue_sample_one_bin(self):
        rep = ensemble.pair_correlation(ensemble.sample_cue(12, 100, 0), bins=1)
        assert rep.bin_centers.tolist() == [2.5]
        # the one bin spans [0, r_max]
        gap = abs(rep.r2[0] - rep.reference[0])
        assert rep.l2_distance == pytest.approx(gap * math.sqrt(5.0), rel=1e-12)

    def test_explicit_formula_psi(self, tmp_path):
        out = str(tmp_path / "ef.csv")
        rc = main(["explicit-formula", "--kind", "psi", "--x", "10.5",
                   "--zeros", bundled_zeros_path(), "--nzeros", "100", "--out", out])
        assert rc == 0
        cols, _ = read_csv(out)
        assert abs(cols["direct"][0] - 7.832015) < 1e-5
        assert cols["difference"][0] < 0.1

    def test_plaquette_metadata_flags(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        rc = main(["plaquette-mc", "--n", "12", "--betas", "0.2", "--sweeps", "80",
                   "--burn-in", "40", "--chains", "2", "--out", out])
        assert rc == 0
        _, md = read_csv(out)
        assert md["acceptance-in-band"] == "True"
        assert 0.0 < float(md["acceptance-rate"]) < 1.0

    def test_leading_negative_coupling_in_equals_form(self, tmp_path):
        # argparse reads "--betas -0.25,0.1" as a flag; the = form passes it
        out = str(tmp_path / "mc.csv")
        rc = main(["plaquette-mc", "--n", "6", "--betas=-0.25,0.1", "--sweeps", "20",
                   "--burn-in", "5", "--chains", "1", "--out", out])
        assert rc == 0
        assert "# betas=-0.25,0.1\n" in _read(out)


def _fresh_python(code, *args, cwd=None):
    """Run `code` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zetaumm.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _entry_code(entry):
    """Python code that runs the command line of sys.argv as `python -m
    zetaumm.cli` does ("module"), as the console script that pyproject.toml
    declares does ("script"), or through an in-process main() ("main")."""
    if entry == "module":
        return "import runpy; runpy.run_module('zetaumm.cli', run_name='__main__', alter_sys=True)"
    if entry == "main":
        return "import sys; from zetaumm.cli import main; main(sys.argv[1:])"
    script = re.search(r'^zetaumm = "(.+)"$', _read(os.path.join(os.path.dirname(README),
                                                                 "pyproject.toml")), re.M)
    mod, _, fn = script.group(1).partition(":")
    return f"from {mod} import {fn}; {fn}()"


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestImportPath:
    """The package needs numpy alone: no import and no command loads scipy,
    and every command writes the same bytes with scipy blocked as with it
    importable."""

    def test_cli_import_loads_no_scipy(self):
        proc = _fresh_python("import sys, zetaumm, zetaumm.cli; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_import_loads_no_submodule(self):
        proc = _fresh_python(
            "import sys, zetaumm; loaded = lambda: sorted(m for m in sys.modules if "
            "m.startswith('zetaumm.')); print(loaded()); from zetaumm import ensemble; "
            "print(ensemble.__name__, loaded())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "zetaumm.ensemble ['zetaumm.ensemble']"]
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            zetaumm.nope

    @pytest.mark.parametrize("argv, loaded, numpy", [
        (["padic-check", "--samples", "5"], ["padics"], False),
        (["wavelet-check"], ["padics", "wavelets"], False),
        (["comb"], ["traceform", "zeta"], True),
        (["cue-sample", "--n", "12", "--samples", "150"], ["ensemble"], True),
        (["plaquette-mc", "--n", "6", "--sweeps", "20", "--burn-in", "5", "--chains", "1"],
         ["ensemble"], True),
    ], ids=["padic-check", "wavelet-check", "comb", "cue-sample", "plaquette-mc"])
    def test_command_loads_only_the_modules_it_runs(self, tmp_path, argv, loaded, numpy):
        # main() leaves the heap unfrozen: only the process entry freezes it
        proc = _fresh_python("import gc, sys; from zetaumm.cli import main; rc = main(sys.argv[1:]); "
                             "print(rc, gc.get_freeze_count(), 'numpy' in sys.modules, sorted("
                             "m.split('.')[1] for m in sys.modules if m.startswith('zetaumm.')))",
                             *argv, "--out", "out.csv", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        eager = ["cli", "output"]
        assert proc.stdout.strip() == f"0 0 {numpy} {sorted(eager + loaded)}"

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_process_entry_writes_what_main_writes(self, tmp_path, monkeypatch, entry):
        # numpy's import alone leaves ~8,500 objects the collector tracks at
        # exit; comb imports it after the entry's first freeze, so only a
        # second freeze after the command keeps the exit from sweeping them
        code = ("import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0, "
                "len(gc.get_objects()))); " + _entry_code(entry))
        argv = ["comb", "--prime", "all", "--mu", "0.5", "--qmax", "5", "--out", "comb.csv"]
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        proc = _fresh_python(code, *argv, cwd=fresh)
        assert (proc.returncode, proc.stderr) == (0, "")
        frozen, tracked = proc.stdout.split()
        assert frozen == "True" and int(tracked) < 2000  # the entry froze the heap, twice
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert (fresh / "comb.csv").read_bytes() == (tmp_path / "comb.csv").read_bytes()
        proc = _fresh_python(code, "cue-sample", "--samples", "0", "--out", "pc.csv", cwd=fresh)
        assert proc.returncode == 1
        assert proc.stderr == "zetaumm: samples must be >= 1\n"

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_process_entry_exits_2_on_a_consistency_failure(self, tmp_path, entry):
        # at radius 0.99 the contour nodes under-resolve the phase of xi
        proc = _fresh_python(_entry_code(entry), "betas", "--model", "xi", "--radius", "0.99",
                             "--out", "betas.csv", cwd=tmp_path)
        assert proc.returncode == 2
        assert re.fullmatch(r"zetaumm: numeric consistency failure: .* winds .*\n", proc.stderr)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "explicit"])
    @pytest.mark.parametrize("entry", ["module", "script", "main"])
    def test_process_entry_sets_one_blas_thread_before_numpy(self, tmp_path, entry, preset):
        # the thread variables as numpy finds them when it starts to load
        code = (
            f"import os, sys\nfor name in {_BLAS_THREADS!r}:\n    os.environ.pop(name, None)\n"
            f"if {preset!r}:\n    os.environ['OPENBLAS_NUM_THREADS'] = {preset!r}\n"
            "seen = []\n"
            "class Probe:\n"
            "    @staticmethod\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            f"            seen.append([os.environ.get(v) for v in {_BLAS_THREADS!r}])\n"
            "sys.meta_path.insert(0, Probe)\n"
            "import atexit\n"
            "atexit.register(lambda: print(seen))\n"
            + _entry_code(entry))
        proc = _fresh_python(code, "comb", "--prime", "2", "--qmax", "2", "--out", "comb.csv",
                             cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        default = None if entry == "main" else "1"
        want = [preset or default, default, default]
        assert proc.stdout.splitlines()[-1] == repr([want])

    @pytest.mark.parametrize("argv", [
        ["betas", "--model", "local", "--prime", "2"],
        ["betas", "--model", "shifted", "--s0", "2"],
        ["density", "--prime", "2"],
        ["comb"],
        ["padic-check"],
        ["wavelet-check"],
        ["beta-ren", "--method", "shifted_contour", "--mu", "1.5"],
        ["explicit-formula", "--kind", "psi", "--x", "10.5", "--zeros", bundled_zeros_path()],
        ["cue-sample", "--n", "12", "--samples", "150", "--seed", "7"],
        ["plaquette-mc", "--n", "8", "--betas", "0.25", "--sweeps", "40", "--burn-in", "10",
         "--chains", "2"],
        ["li", "--nmax", "5", "--nzeros", "200", "--zeros", bundled_zeros_path()],
        ["trace-check", "--nzeros", "100", "--zeros", bundled_zeros_path()],
        ["betas", "--model", "xi"],
        ["betas", "--model", "gamma"],
        ["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--pmax", "10000"],
        ["explicit-formula", "--kind", "J", "--x", "10.5", "--zeros", bundled_zeros_path()],
    ], ids=lambda v: " ".join(v[:3]))
    def test_command_runs_with_scipy_blocked(self, tmp_path, monkeypatch, argv):
        blocked, free = tmp_path / "blocked", tmp_path / "free"
        blocked.mkdir()
        free.mkdir()
        proc = _fresh_python("import sys; sys.modules['scipy'] = None; "
                             "from zetaumm.cli import main; sys.exit(main(sys.argv[1:]))",
                             *argv, "--out", "out.csv", cwd=blocked)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.chdir(free)
        assert main(argv + ["--out", "out.csv"]) == 0
        assert (blocked / "out.csv").read_bytes() == (free / "out.csv").read_bytes()
