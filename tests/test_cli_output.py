import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import zetaumm
from zetaumm import cli, output, traceform
from zetaumm.cli import COMMANDS, build_parser, main
from zetaumm.padics import ShellSum
from zetaumm.zeta import bundled_zeros_path, local_count_direct, local_count_explicit

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


class TestOutput:
    def test_csv_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "t.csv")
        vals = np.array([1.0 / 3.0, math.pi, 1e-300, 7.0])
        output.write_csv(path, {"x": vals}, {"alpha": 0.1, "name": "run"})
        cols, md = output.read_csv(path)
        assert np.array_equal(cols["x"], vals)  # 17 digits round-trip float64
        assert md["name"] == "run"

    def test_csv_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            output.write_csv(str(tmp_path / "t.csv"), {"a": [1], "b": [1, 2]}, {})

    def test_json_structure(self, tmp_path):
        path = str(tmp_path / "t.json")
        output.write_json(path, {"arr": np.array([1.5, 2.5]), "z": 1 + 2j}, {"k": 3})
        doc = json.loads(open(path).read())
        assert doc["metadata"]["k"] == 3
        assert doc["arr"] == [1.5, 2.5]
        assert doc["z"] == {"real": 1.0, "imag": 2.0}


class TestCLI:
    @pytest.mark.parametrize("argv", [
        ["cue-sample", "--n", "12", "--samples", "150", "--seed", "7"],
        ["betas", "--model", "xi"],
        ["beta-ren", "--method", "shifted_contour", "--mu", "1.5"],
    ], ids=["cue-sample", "betas-xi", "beta-ren-shifted_contour"])
    def test_output_reproducible_bit_for_bit(self, tmp_path, argv):
        out = str(tmp_path / "pc.csv")
        assert main(argv + ["--out", out]) == 0
        first = open(out, "rb").read()
        assert main(argv + ["--out", out]) == 0
        assert open(out, "rb").read() == first

    def test_csv_and_json_carry_same_numbers(self, tmp_path):
        csv_path = str(tmp_path / "b.csv")
        json_path = str(tmp_path / "b.json")
        base = ["betas", "--model", "local", "--prime", "3", "--mmax", "6"]
        assert main(base + ["--out", csv_path]) == 0
        assert main(base + ["--out", json_path, "--format", "json"]) == 0
        cols, _ = output.read_csv(csv_path)
        doc = json.loads(open(json_path).read())
        assert np.array_equal(np.asarray(doc["series"]["value"]), cols["value"])

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["betas", "--model", "local", "--prime", "2", "--zzz", "1", "--out", "x"]) == 1

    def test_missing_precondition_exits_one(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["betas", "--model", "local", "--out", out]) == 1  # no prime
        assert main(["li", "--zeros", str(tmp_path / "none.txt"), "--out", out]) == 1
        zeros = ["--zeros", bundled_zeros_path()]
        assert main(["explicit-formula", "--x", "0.5", "--out", out] + zeros) == 1
        assert main(["explicit-formula", "--kind", "psi", "--x", "10.5", "--out", out]) == 1
        assert main(["beta-ren", "--method", "xi_decomposition", "--mu", "0.7", "--out", out]) == 1
        assert main(["beta-ren", "--method", "shifted_contour", "--mu", "0.9", "--out", out]) == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, message", [
        (["li", "--zeros", bundled_zeros_path(), "--nmax", "0"], "M must be >= 1"),
        (["betas", "--model", "gamma", "--mmax", "0"], "M must be >= 1"),
        (["cue-sample", "--n", "4", "--samples", "10", "--bins", "0"], "bins must be >= 1"),
        (["cue-sample", "--n", "4", "--samples", "10", "--rmax", "0"], "r_max must be positive"),
        (["plaquette-mc", "--bins", "0"], "chains, sweeps and bins must be >= 1"),
        (["plaquette-mc", "--sweeps", "0"], "chains, sweeps and bins must be >= 1"),
        (["plaquette-mc", "--chains", "0"], "chains, sweeps and bins must be >= 1"),
        (["plaquette-mc", "--n", "0"], "N, chains, sweeps and bins must be >= 1"),
        (["plaquette-mc", "--burn-in", "-5"], "burn_in >= 0"),
        (["density", "--prime", "2", "--spikes", "-3"], "n_spikes must be >= 0"),
        (["density", "--prime", "2", "--grid-points", "0"], "theta grid must be non-empty"),
        (["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--pmax", "1"], "P_max must be >= 2"),
        (["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--mmax", "3", "--powers", "0"],
         "N_max must be >= 1"),
        (["beta-ren", "--method", "prime_sum", "--mu", "1.5", "--mmax", "3", "--powers", "-5"],
         "N_max must be >= 1"),
        (["betas", "--model", "local", "--prime", "2", "--mmax", "64", "--nodes", "64"],
         "M = 64 needs more than Q = 64 nodes"),
        (["li", "--zeros", bundled_zeros_path(), "--nmax", "64", "--nodes", "64"],
         "M = 64 needs more than Q = 64 nodes"),
        (["wavelet-check", "--nmax", "0"], "n_max must be >= 1"),
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
        (["li", "--zeros", bundled_zeros_path(), "--tolerance", "-1"], "li needs --tolerance >= 0"),
        (["betas", "--s0", "5", "--model", "local", "--prime", "2"], "s0 is read by the shifted model only"),
        (["betas", "--s0", "5", "--model", "gamma"], "s0 is read by the shifted model only"),
        (["betas", "--s0", "5", "--model", "xi"], "s0 is read by the shifted model only"),
        (["betas", "--prime", "5", "--model", "gamma"], "p is read by the local model only"),
        (["betas", "--prime", "5", "--s0", "1.5", "--model", "shifted"], "p is read by the local model only"),
        (["betas", "--prime", "5", "--model", "xi"], "p is read by the local model only"),
        (["padic-check", "--primes", "2,,3"], "'' is not a prime"),
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
        _, md = output.read_csv(out)
        assert md["command"] == "comb"
        assert md["qmax"] == "4"
        assert "version" in md
        assert abs(float(md["position-period"]) - 2 * math.pi / math.log(3)) < 1e-12

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mmax=7\nradius=0.45\n")
        out = str(tmp_path / "b.csv")
        assert main(["betas", "--model", "local", "--prime", "2",
                     "--config", str(cfg), "--out", out]) == 0
        cols, md = output.read_csv(out)
        assert cols["index"].size == 7
        assert float(md["radius"]) == 0.45
        # explicit flag wins over the config default
        assert main(["betas", "--model", "local", "--prime", "2", "--mmax", "4",
                     "--config", str(cfg), "--out", out]) == 0
        cols, _ = output.read_csv(out)
        assert cols["index"].size == 4

    def test_config_supplies_required_options(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model=local\nprime=2\nmmax=5\nout={out}\n")
        assert main(["betas", "--config", str(cfg)]) == 0
        cols, md = output.read_csv(str(out))
        assert cols["index"].size == 5
        assert md["model"] == "LocalZeta(2)"
        # explicit flags still win over the file, required ones included
        other = str(tmp_path / "explicit.csv")
        assert main(["betas", "--config", str(cfg), "--model", "gamma", "--mmax", "3",
                     "--out", other]) == 0
        cols, md = output.read_csv(other)
        assert cols["index"].size == 3
        assert md["model"] == "GammaPlace"
        cfg.write_text(f"model=local\nprime=2\nout={out}\nbogus=1\n")
        assert main(["betas", "--config", str(cfg)]) == 1

    def test_config_defaults_a_model_does_not_read_are_dropped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prime=2\ns0=1.5\nmmax=3\n")
        out = str(tmp_path / "b.csv")
        for model, kept, dropped in (("gamma", [], ["prime", "s0"]), ("shifted", ["s0"], ["prime"]),
                                     ("local", ["prime"], ["s0"])):
            assert main(["betas", "--model", model, "--config", str(cfg), "--out", out]) == 0
            _, md = output.read_csv(out)
            assert all(k in md for k in kept) and not any(k in md for k in dropped)
        # the same option given as a flag, or as a prefix of one, is refused
        for flag in ("--prime", "--pri"):
            assert main(["betas", "--model", "gamma", flag, "2", "--config", str(cfg), "--out", out]) == 1

    @pytest.mark.parametrize("argv, cfg, key, value", [
        (["plaquette-mc", "--n", "6", "--sweeps", "20", "--chains", "1"], "burn-in=7", "burn-in", "7"),
        (["wavelet-check", "--nmax", "3"], "kernel-b = 9", "kernel-b", "9"),
    ], ids=["burn-in", "kernel-b"])
    def test_config_sets_a_hyphenated_option(self, tmp_path, argv, cfg, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(cfg + "\n")
        out = str(tmp_path / "x.csv")
        assert main(argv + ["--config", str(path), "--out", out]) == 0
        _, md = output.read_csv(out)
        assert md[key] == value

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        out = str(tmp_path / "b.csv")
        assert main(["betas", "--model", "local", "--prime", "2",
                     "--config", str(cfg), "--out", out]) == 1

    def test_trace_check_exit_zero_iff_within_bound(self, tmp_path):
        out = str(tmp_path / "tr.json")
        rc = main(["trace-check", "--zeros", bundled_zeros_path(), "--nzeros", "100",
                   "--primes-max", "10000", "--width", "1.0",
                   "--out", out, "--format", "json"])
        assert rc == 0
        doc = json.loads(open(out).read())
        assert abs(doc["residual"]) <= doc["bounds"]["total"]

    def test_li_disagreement_exits_two(self, tmp_path, zeros_2000, capsys):
        # a zero table with the first ordinate dropped still validates, but
        # the two Li routes then disagree beyond the combined tolerance
        crooked = tmp_path / "crooked.txt"
        crooked.write_text("\n".join(str(t) for t in zeros_2000.ts[1:300]) + "\n")
        out = str(tmp_path / "li.csv")
        rc = main(["li", "--zeros", str(crooked), "--nmax", "4", "--nzeros", "299",
                   "--tolerance", "1e-4", "--out", out])
        assert rc == 2
        cols, _ = output.read_csv(out)  # the artifact is written before the exit
        assert cols["index"].size == 4
        err = capsys.readouterr().err
        assert re.search(r"lambda_1: cauchy \S+ vs zero_sum \S+ differ by \S+ \(> bar \S+\)", err)

    def test_trace_check_exit_two_names_its_reason(self, tmp_path, monkeypatch, capsys):
        report = traceform.TraceReport(
            lhs_pole=1.0, lhs_zero_sum=0.0, lhs_digamma=0.0, rhs_log_pi=0.0, rhs_prime_sum=0.5,
            residual=0.5, zero_tail_bound=1e-3, prime_tail_bound=2e-2, digamma_tail_bound=0.0,
            quadrature_error=1e-9)
        monkeypatch.setattr(traceform, "trace_formula_check", lambda *args: report)
        out = str(tmp_path / "tr.json")
        rc = main(["trace-check", "--zeros", bundled_zeros_path(), "--nzeros", "50",
                   "--primes-max", "100", "--out", out, "--format", "json"])
        assert rc == 2
        assert json.loads(open(out).read())["residual"] == 0.5
        err = capsys.readouterr().err
        assert "residual" in err and "total_bound" in err and "prime_tail 0.02" in err
        assert "differ by 0.5" in err

    def test_wavelet_check_exit_two_names_its_reason(self, tmp_path, capsys):
        # at alpha = 1e-10 the scale-0 kernel residual is 1.6e-6, over its 1e-6 limit
        out = tmp_path / "w.json"
        assert main(["wavelet-check", "--alpha", "1e-10", "--out", str(out), "--format", "json"]) == 2
        assert json.loads(out.read_text())["pass"] is False  # written before the exit
        err = capsys.readouterr().err
        assert "kernel(scale=0): residual 1.6e-06 is not below 1e-06" in err

    def test_padic_check_exit_two_names_its_reason(self, tmp_path, monkeypatch, capsys):
        shell = ShellSum(value=1.0, tail_bound=1e-9, closed_form=1.5)
        monkeypatch.setattr(cli, "haar_integrate_norm_power", lambda p, s, K: shell)
        out = str(tmp_path / "p.csv")
        assert main(["padic-check", "--primes", "3", "--samples", "5", "--out", out]) == 2
        cols, _ = output.read_csv(out)
        assert cols["deviation"][-1] == 0.5
        err = capsys.readouterr().err
        assert "haar_shell(p=3): deviation 0.5 exceeds bound 1e-09" in err

    def test_shifted_model_below_one_exits_one(self, tmp_path, capsys):
        # s0 = 0.8 puts the zeta pole at z = -3/7, inside both extraction circles
        out = str(tmp_path / "b.csv")
        for s0 in ("0.8", "1"):
            assert main(["betas", "--model", "shifted", "--s0", s0, "--out", out]) == 1
            assert "s0 > 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_prime_option_checked(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        for argv in (["density", "--prime", "1"], ["betas", "--model", "local", "--prime", "4"],
                     ["explicit-formula", "--kind", "j_local", "--prime", "4", "--x", "10"],
                     ["comb", "--prime", "4"], ["wavelet-check", "--prime", "x"]):
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
        assert "17.25" not in open(out).read()
        zeros.write_text("17.25\n")  # nothing left to expand over
        for argv in (argv, ["li", "--zeros", str(zeros), "--out", out],
                     ["trace-check", "--zeros", str(zeros), "--out", out]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "no ordinate of" in err and "Traceback" not in err

    def test_explicit_formula_j_local(self, tmp_path):
        out = str(tmp_path / "ef.csv")
        rc = main(["explicit-formula", "--kind", "j_local", "--prime", "3", "--x", "10",
                   "--terms", "500", "--out", out])
        assert rc == 0
        cols, _ = output.read_csv(out)
        assert cols["direct"][0] == local_count_direct(3, 10.0) == 2.0
        assert cols["explicit"][0] == local_count_explicit(3, 10.0, 500)

    def test_readme_commands_parse(self):
        text = open(README, encoding="utf-8").read()
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

    def test_li_twenty_coefficients_agree(self, tmp_path, li_oracle_20):
        out = str(tmp_path / "li20.csv")
        rc = main(["li", "--zeros", bundled_zeros_path(), "--nmax", "20", "--nzeros", "2000",
                   "--out", out])
        assert rc == 0
        cols, _ = output.read_csv(out)
        assert np.abs(cols["cauchy"] - li_oracle_20).max() < 1e-7

    def test_li_radius_where_ln_xi_winds_exits_two(self, tmp_path, capsys):
        out = tmp_path / "li.csv"
        rc = main(["li", "--zeros", bundled_zeros_path(), "--radius", "0.99", "--out", str(out)])
        assert rc == 2
        assert "winds" in capsys.readouterr().err
        assert not out.exists()

    def test_cue_sample_one_bin(self, tmp_path):
        out = str(tmp_path / "pc1.csv")
        assert main(["cue-sample", "--n", "12", "--samples", "100", "--bins", "1", "--out", out]) == 0
        cols, md = output.read_csv(out)
        assert cols["r"].tolist() == [2.5]
        # the one bin spans [0, r_max]
        gap = abs(cols["r2"][0] - cols["sine_kernel"][0])
        assert float(md["l2-distance"]) == pytest.approx(gap * math.sqrt(5.0), rel=1e-12)

    def test_explicit_formula_psi(self, tmp_path):
        out = str(tmp_path / "ef.csv")
        rc = main(["explicit-formula", "--kind", "psi", "--x", "10.5",
                   "--zeros", bundled_zeros_path(), "--nzeros", "100", "--out", out])
        assert rc == 0
        cols, _ = output.read_csv(out)
        assert abs(cols["direct"][0] - 7.832015) < 1e-5
        assert cols["difference"][0] < 0.1

    def test_plaquette_metadata_flags(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        rc = main(["plaquette-mc", "--n", "12", "--betas", "0.2", "--sweeps", "80",
                   "--burn-in", "40", "--chains", "2", "--out", out])
        assert rc == 0
        _, md = output.read_csv(out)
        assert md["acceptance-in-band"] == "True"
        assert 0.0 < float(md["acceptance-rate"]) < 1.0


def _fresh_python(code, *args, cwd=None):
    """Run `code` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zetaumm.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestImportPath:
    """The package needs numpy alone: no import and no command loads scipy,
    and every command writes the same bytes with scipy blocked as with it
    importable."""

    def test_cli_import_loads_no_scipy(self):
        proc = _fresh_python("import sys, zetaumm, zetaumm.cli; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
