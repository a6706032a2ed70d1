import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l2mbqc
from l2mbqc import boolean, cli, mbqc, qsp


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_mod3_anf_listing(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--fn", "mod3:0", "--n", "3")
        assert code == 0
        # all six degree <= 2 nonconstant monomials, no constant term
        assert "100 010 110 001 101 011" in out
        assert "anf_degree     2" in out

    def test_constant_bound(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--fn", "const0", "--n", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["nchvm_bound"] == 1.0

    def test_pairwise_and_fmax(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--fn", "c2", "--n", "4",
                               "--format", "json")
        assert json.loads(out)["f_max"] == 0.25


class TestPfd:
    def test_or2_check_paper(self, capsys):
        code, out, _ = run_cli(capsys, "pfd", "--fn", "or", "--n", "2",
                               "--check-paper", "--format", "json")
        assert code == 0
        assert json.loads(out)["reference_verified"] is True

    def test_or3_published_formula_fails(self, capsys):
        code, out, _ = run_cli(capsys, "pfd", "--fn", "or", "--n", "3",
                               "--check-paper", "--format", "json")
        assert code == 1
        assert json.loads(out)["reference_verified"] is False

    def test_const0_empty_support(self, capsys):
        code, out, _ = run_cli(capsys, "pfd", "--fn", "const0", "--n", "3",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["support_size"] == 0

    def test_and3_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "pfd", "--fn", "and", "--n", "3",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["non_integer_angles"] == 7
        assert payload["all_odd_certificate"] is True

    def test_arity_cap(self, capsys):
        code, _, err = run_cli(capsys, "pfd", "--fn", "or", "--n", "7")
        assert code == 1 and "error" in err


class TestQsp:
    def test_reference_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "qsp", "--p", "3", "--j", "0",
                               "--table2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["functionally_equivalent"] is True
        assert float(payload["worst_failure"]) < 1e-9
        assert payload["stats"]["grid_zeros"] == 6
        assert payload["stats"]["quotient_degree"] == 4
        assert payload["stats"]["root_seed_dev"] < 1e-8

    def test_phase_report_identity(self, capsys):
        code, out, _ = run_cli(capsys, "qsp", "--p", "3", "--phi", "0",
                               "--format", "json")
        assert code == 0
        assert float(json.loads(out)["pr_output_0"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    def test_non_finite_phase_exits_1(self, capsys, phi):
        code, out, err = run_cli(capsys, "qsp", "--p", "3", f"--phi={phi}")
        assert code == 1 and out == ""
        assert err == f"error: --phi {float(phi)}: must be a finite phase\n"

    @pytest.mark.parametrize("extra", [("--phi", "1"), ("--table2",)])
    def test_unpublished_reference_modulus_exits_1(self, capsys, extra):
        code, out, err = run_cli(capsys, "qsp", "--p", "11", *extra)
        assert code == 1 and out == ""
        assert err == ("error: no reference angles for p=11; published "
                       "tables cover p = 3, 5, 7, 9\n")

    @pytest.mark.parametrize("extra", [(), ("--table2",)])
    def test_negative_sweep_exits_1(self, capsys, extra):
        code, out, err = run_cli(capsys, "qsp", "--p", "3", "--sweep", "-1",
                                 *extra)
        assert code == 1 and out == ""
        assert err == "error: --sweep -1: n must be >= 0, got -1\n"

    def test_profile_synthesis(self, capsys):
        code, out, _ = run_cli(capsys, "qsp", "--profile", "0010",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["L"] == 13

    @pytest.mark.parametrize("argv, flag, mode", [
        (("--p", "5", "--j", "2", "--phi", "0"), "--j", "--phi"),
        (("--phi", "0", "--j", "0"), "--j", "--phi"),
        (("--phi", "0", "--sweep", "5"), "--sweep", "--phi"),
        (("--phi", "0", "--table2"), "--table2", "--phi"),
        (("--profile", "01", "--phi", "1"), "--phi", "--profile"),
        (("--profile", "01", "--phi", "0"), "--phi", "--profile"),
        (("--profile", "01", "--p", "3"), "--p", "--profile"),
        (("--profile", "01", "--table2"), "--table2", "--profile"),
    ])
    def test_unused_option_exits_1(self, argv, flag, mode):
        # an option the mode would not read is refused, not dropped
        code, out, err = run_main("qsp", *argv)
        assert_one_error_line(code, out, err, flag)
        assert err == f"error: {flag} is not used with {mode}\n"

    def test_p67_synthesizes(self, capsys):
        # the first prime at which the mpmath root finder gave up
        code, out, _ = run_cli(capsys, "qsp", "--p", "67", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["worst_failure"]) < qsp.FAILURE_TOL_OWN
        assert payload["stats"]["quotient_degree"] == 132

    def test_unconverged_polish_is_one_error_line(self, monkeypatch):
        # the polish failure is a SynthesisError, the only kind synthesis
        # raises, so cli.main reports it in one line
        monkeypatch.setattr(qsp, "_POLISH_STEPS", 1)
        with pytest.raises(qsp.SynthesisError) as info:
            qsp.synthesize_mod_p(5, 0)
        assert type(info.value) is qsp.SynthesisError
        code, out, err = run_main("qsp", "--p", "5")
        assert_one_error_line(code, out, err, "root polish did not converge")

    def test_phase_report_reads_p(self, capsys):
        code, out, _ = run_cli(capsys, "qsp", "--p", "5", "--phi", "0.4",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        U = qsp.reconstruct_unitary(qsp.reference_angles(5), 0.4)
        assert payload["p"] == 5
        assert payload["pr_output_1"] == f"{abs(U[1, 0]) ** 2:.12f}"


class TestCompileSimulate:
    def test_mod3_pipe(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        code, out, _ = run_cli(capsys, "compile", "--protocol", "mod3",
                               "--n", "2", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "simulate", "--schedule", str(path),
                               "--all", "--shots", "50", "--format", "json")
        assert code == 0

    def test_simulate_single_input(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        run_cli(capsys, "compile", "--protocol", "mod3", "--n", "2",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "simulate", "--schedule", str(path),
                               "--x", "11", "--format", "json")
        assert code == 0
        assert json.loads(out)["y"] == 1  # weight 2 is not 0 mod 3

    def test_wrong_target_fails_verification(self, capsys, tmp_path):
        # the two-bit weight-mod-3 test rejects only the zero string, so AND
        # genuinely disagrees with it
        path = tmp_path / "sched.json"
        run_cli(capsys, "compile", "--protocol", "mod3", "--n", "2",
                "--out", str(path))
        code, _, _ = run_cli(capsys, "simulate", "--schedule", str(path),
                             "--all", "--shots", "20", "--fn", "and")
        assert code == 1

    @pytest.mark.parametrize("shots", ["0", "100"])
    def test_forged_compiled_flag_exits_1(self, capsys, tmp_path, shots):
        # the stored flag claims an effective circuit the adaptation lacks
        obj = json.loads(mbqc.mod3_protocol(2).to_json())
        for q in obj["qubits"]:
            q["a_ids"] = []
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "simulate", "--schedule", str(path),
                                 "--all", "--shots", shots)
        assert code == 1 and re.search(r"min_analytic\s+None\n", out)
        assert err.startswith("error: not deterministic: min_exact 0.44")
        assert err.count("\n") == 1

    def test_negative_shots_exits_1(self, capsys, tmp_path):
        path = tmp_path / "mod3.json"
        run_cli(capsys, "compile", "--protocol", "mod3", "--n", "2",
                "--out", str(path))
        code, out, err = run_cli(capsys, "simulate", "--schedule", str(path),
                                 "--all", "--shots", "-1")
        assert code == 1 and out == ""
        assert err == "error: shots_per_input must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv, flag, mode", [
        (("--exact",), "--exact", "without --all"),
        (("--fn", "or"), "--fn", "without --all"),
        (("--shots", "0"), "--shots", "without --all"),
        (("--exact", "--fn", "or", "--shots", "0"), "--exact",
         "without --all"),
        (("--all", "--x", "1"), "--x", "with --all"),
    ])
    def test_unused_option_exits_1(self, tmp_path, argv, flag, mode):
        # an option the mode would not read is refused, not dropped
        path = tmp_path / "mod3.json"
        path.write_text(mbqc.mod3_protocol(1).to_json())
        code, out, err = run_main("simulate", "--schedule", str(path), *argv)
        assert_one_error_line(code, out, err, flag)
        assert err == f"error: {flag} is not used {mode}\n"

    def test_input_bits_at_arity_zero_exit_1(self, tmp_path):
        # an arity-0 schedule reads no input, so a one-bit --x is refused
        s = mbqc.MeasurementSchedule(mbqc.cluster1d(0), 0, (), frozenset(), 1)
        path = tmp_path / "empty.json"
        path.write_text(s.to_json())
        assert run_main("simulate", "--schedule", str(path))[0] == 0
        assert_one_error_line(*run_main("simulate", "--schedule", str(path),
                                        "--x", "1"), "is not 0 bits")

    def test_schedule_file_is_closed(self, tmp_path):
        path = tmp_path / "mod3.json"
        path.write_text(mbqc.mod3_protocol(1).to_json())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, _, _ = run_main("simulate", "--schedule", str(path))
        assert code == 0
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_stats_line(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        run_cli(capsys, "compile", "--protocol", "mod3", "--n", "2",
                "--out", str(path))
        argv = ["simulate", "--schedule", str(path), "--all", "--shots", "20"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        # the stats line comes last, after the fields pipe parses
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "function", "inputs", "min_analytic", "min_exact",
            "empirical_rate", "resources", "all_correct", "stats"]
        stats = json.loads(lines[-1].split(None, 1)[1])
        assert stats["exact_peak_states"] == 4
        assert 0 <= stats["exact_marginal_dev"] < 1e-12
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(json.loads(out)["stats"]) == stats

    def test_no_certificate_exits_1(self, capsys, tmp_path):
        # 57 qubits: no analytic path, no exact run by default, no shots
        path = tmp_path / "or6.json"
        run_cli(capsys, "compile", "--protocol", "or", "--n", "6",
                "--out", str(path))
        code, _, err = run_cli(capsys, "simulate", "--schedule", str(path),
                               "--all", "--shots", "0")
        assert code == 1
        assert err == ("error: no certificate: no analytic or exact result "
                       "and no shots\n")

    def test_exact_flag_certifies_or_pipe(self):
        # or_protocol has no analytic path; --exact runs the DP at 57 qubits
        src = pathlib.Path(l2mbqc.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        run = [sys.executable, "-m", "l2mbqc.cli"]
        schedule = subprocess.run(
            run + ["compile", "--protocol", "or", "--n", "6"],
            capture_output=True, text=True, env=env, timeout=60, check=True)
        proc = subprocess.run(
            run + ["simulate", "--all", "--shots", "0", "--exact",
                   "--format", "json"],
            input=schedule.stdout, capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["min_exact"] > 1 - 1e-9
        assert out["min_analytic"] is None and out["empirical_rate"] is None

    @pytest.mark.parametrize("edit", [
        lambda o: o.update(c=5),
        lambda o: o["qubits"][0]["basis"].update(theta="NaN"),
        lambda o: o["qubits"][0]["basis"].update(theta=float("nan")),
        lambda o: o.pop("qubits"),
        lambda o: o["qubits"][1].update(p_mask=4),
    ])
    def test_malformed_schedule_exits_1(self, capsys, tmp_path, edit):
        obj = json.loads(mbqc.mod3_protocol(1).to_json())
        edit(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "simulate", "--schedule", str(path),
                               "--all")
        assert code == 1
        assert err.startswith("error: schedule field")

    @pytest.mark.parametrize("meta", [
        {"builder": "modp_protocol", "p": [1], "j": 0},
        {"builder": "modp_protocol", "p": 5},
    ])
    def test_malformed_meta_exits_1(self, capsys, tmp_path, meta):
        obj = json.loads(mbqc.mod3_protocol(1).to_json())
        obj["meta"] = meta
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "simulate", "--schedule", str(path),
                               "--all")
        assert code == 1 and "integer p and j" in err

    def test_symmetric_pipe_infers_the_target(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "compile", "--protocol", "symmetric",
                               "--fn", "mod3", "--n", "3")
        assert code == 0 and json.loads(out)["meta"]["profile"] == "0110"
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, err = run_cli(capsys, "simulate", "--all", "--shots", "10",
                                 "--format", "json")
        assert code == 0, err
        assert json.loads(out)["min_analytic"] > 1 - 1e-9

    @pytest.mark.parametrize("profile", [
        None, "011", "01100", "01a0", " 0110", 110, [0, 1, 1, 0]])
    def test_malformed_profile_meta_exits_1(self, capsys, tmp_path, profile):
        obj = json.loads(mbqc.mod3_protocol(3).to_json())
        obj["meta"] = {"builder": "qsp_symmetric_protocol", "n": 3}
        if profile is not None:
            obj["meta"]["profile"] = profile
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert_one_error_line(*run_main("simulate", "--schedule", str(path),
                                         "--all"), "meta.profile")

    def test_oversized_arity_exits_1(self, capsys, tmp_path):
        # inputs are packed into int64, so a 70-bit input cannot be run
        obj = json.loads(mbqc.mod3_protocol(1).to_json())
        obj["arity"] = 70
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "simulate", "--schedule", str(path),
                               "--x", "1" * 70)
        assert code == 1
        assert err == "error: schedule field 'arity' must be at most 63, got 70\n"

    def test_missing_schedule_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--schedule",
                               str(tmp_path / "absent.json"))
        assert code == 1 and err.startswith("error: ")

    def test_malformed_stdin_exits_1_without_traceback(self):
        src = pathlib.Path(l2mbqc.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "l2mbqc.cli", "simulate", "--all"],
            input="[]", capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == "error: schedule JSON must be an object, got []\n"

    def test_schedule_commands_never_load_mpmath(self):
        # only angle synthesis needs mpmath; importing the CLI and a
        # compile | simulate round on a fixed-angle protocol must not load it
        src = pathlib.Path(l2mbqc.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        script = "\n".join([
            "import contextlib, io, sys",
            "import l2mbqc.cli as cli",
            "assert 'mpmath' not in sys.modules, 'loaded by import'",
            "out = io.StringIO()",
            "with contextlib.redirect_stdout(out):",
            "    assert cli.main(['compile', '--protocol', 'mod3',",
            "                     '--n', '3']) == 0",
            "sys.stdin = io.StringIO(out.getvalue())",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['simulate', '--all']) == 0",
            "assert 'mpmath' not in sys.modules, 'loaded by the round'",
        ])
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_library_equivalence(self, capsys, tmp_path):
        # the CLI is a thin shell: emitted JSON equals the library's output
        path = tmp_path / "sched.json"
        run_cli(capsys, "compile", "--protocol", "mod3", "--n", "3",
                "--out", str(path))
        assert path.read_text() == mbqc.mod3_protocol(3).to_json() + "\n"


def run_main(*argv):
    """cli.main without pytest capture fixtures, usable under hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, out, err, flag):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


VALID_SPEC = re.compile(r"and|or|parity|c2|const[01]|mod[0-9]+(:[0-9]+)?")


# edge sizes of the weight protocols: an input size below one, the residue
# past (p+1)/2, and the constant profiles
EDGE_COMPILES = (
    [("modp", "--p", str(p), "--j", str(j), "--n", str(n))
     for p in (3, 5) for j in (0, (p + 1) // 2) for n in (-1, 0, 1, 2)]
    + [("symmetric", "--fn", fn, "--n", str(n))
       for fn in ("const0", "const1") for n in (-1, 0, 1, 2)])


@pytest.mark.parametrize("args", EDGE_COMPILES, ids=" ".join)
def test_weight_protocol_edge_sizes_exit_cleanly(args):
    code, out, err = run_main("compile", "--protocol", *args)
    assert "Traceback" not in err
    if code == 1:
        assert_one_error_line(code, out, err, "")
    else:
        assert code == 0 and json.loads(out)["l_c"] is not None


class TestInputHardening:
    @pytest.mark.parametrize("spec", ["foo", "mod:1", "modx", "mod3:x",
                                      "mod4", "mod3:3", "mod", ""])
    def test_bad_fn_exits_1(self, spec):
        with pytest.raises(ValueError, match="--fn"):
            cli.parse_function_spec(spec, 2)
        assert_one_error_line(*run_main("analyze", f"--fn={spec}", "--n", "2"),
                              "--fn")

    @pytest.mark.parametrize("profile", ["0201", "", "1", "10", "0 1", "01x"])
    def test_bad_profile_exits_1(self, profile):
        with pytest.raises(ValueError, match="--profile"):
            cli.parse_profile(profile)
        assert_one_error_line(*run_main("qsp", f"--profile={profile}"),
                              "--profile")

    def test_spec_case_and_whitespace(self):
        assert cli.parse_function_spec(" MOD5:2 ", 3) == boolean.mod_p(5, 2, 3)
        assert cli.parse_profile("0110") == [0, 1, 1, 0]

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(max_size=12),
                     st.text(max_size=6).map("mod".__add__),
                     st.from_regex(r"\s?MOD[0-9]{0,2}:?[0-9x]{0,2}",
                                   fullmatch=True)))
    def test_fn_fuzz(self, spec):
        # exit 0 only on a well-formed spec, else one error line naming --fn
        code, out, err = run_main("analyze", f"--fn={spec}", "--n", "2")
        if VALID_SPEC.fullmatch(spec.strip().lower()) and code == 0:
            assert err == ""
        else:
            assert_one_error_line(code, out, err, "--fn")

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(max_size=8),
                     st.from_regex(r"[0-2 ]{0,6}", fullmatch=True)))
    def test_profile_fuzz(self, profile):
        # a malformed profile fails in parsing, before any synthesis
        if re.fullmatch(r"0[01]*", profile):
            assert cli.parse_profile(profile) == [int(c) for c in profile]
            return
        assert_one_error_line(*run_main("qsp", f"--profile={profile}"),
                              "--profile")


class TestCsv:
    @pytest.mark.parametrize("argv", [
        ("qsp", "--p", "3"),
        ("pfd", "--fn", "mod3", "--n", "3"),
        ("analyze", "--fn", "mod3", "--n", "3", "--spectrum"),
    ])
    def test_rows_parse_and_nested_fields_round_trip(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        header, row = list(csv.reader(io.StringIO(out)))
        assert len(row) == len(header)
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert header == list(payload)
        nested = [k for k, v in payload.items() if isinstance(v, (list, dict))]
        assert nested or argv[0] == "analyze"
        for key, field in zip(header, row):
            if key in nested:
                assert json.loads(field) == payload[key]
            else:
                assert field == str(payload[key])


class TestTableFormat:
    @pytest.mark.parametrize("argv", [
        ("qsp", "--p", "3"),
        ("pfd", "--fn", "and", "--n", "2"),
    ])
    def test_nested_fields_are_json(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "table")
        assert code == 0
        fields = dict(line.split(None, 1) for line in out.splitlines())
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert list(fields) == list(payload)
        nested = [k for k, v in payload.items() if isinstance(v, (list, dict))]
        assert nested
        for key in nested:
            assert json.loads(fields[key]) == payload[key]


class TestTables:
    def test_seed_default_ignores_environment(self, monkeypatch):
        # the seed comes from --seed alone; a stray variable cannot crash
        # the parser before main's error handling
        monkeypatch.setenv("L2MBQC_SEED", "abc")
        assert cli.build_parser().parse_args(["table2"]).seed == 2024
        assert cli.build_parser().parse_args(
            ["table2", "--seed", "7"]).seed == 7

    def test_table1_runs(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--n", "2", "--p", "3")
        assert code == 0
        assert "mod3-cluster" in out and "volume" in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--n", "3"])  # missing --fn
        assert exc.value.code == 2

    def test_unknown_command_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
