"""Command-line interface: sources, subcommands, exit codes, artifacts."""

import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nilflow.algebra import bracket_from_dict, bracket_to_dict
from nilflow.cli import _GENERATORS, build_parser, main
from nilflow.exceptions import NotNilpotentError, NumericalFailure
from nilflow.flow import trace_from_csv

from conftest import dixmier_lister, rotated_dixmier_lister

SO3 = json.dumps(
    {
        "n": 3,
        "entries": [
            {"i": 1, "j": 2, "k": 3, "value": 1.0},
            {"i": 2, "j": 3, "k": 1, "value": 1.0},
            {"i": 1, "j": 3, "k": 2, "value": -1.0},
        ],
    }
)


# ---------------------------------------------------------------------------
# bracket sources and validation


def test_validate_generator_spec(capsys):
    assert main(["validate", "heisenberg:c=1"]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "invalid" not in out


def test_validate_rejects_non_nilpotent(capsys):
    assert main(["validate", SO3]) == 1
    assert "nilpotent:        NO" in capsys.readouterr().out


def test_validate_inline_json(capsys, heis):
    from nilflow.algebra import bracket_to_dict

    src = json.dumps(bracket_to_dict(heis))
    assert main(["validate", src]) == 0


def test_validate_flags_bad_documents(capsys):
    # well-formed JSON that is not a bracket document is a validation verdict
    assert main(["validate", '{"n": 3, "entries": "nope"}']) == 1
    assert "invalid" in capsys.readouterr().out


def test_bracket_value_that_is_not_a_number(capsys):
    # float("abc") ended in a traceback; test_algebra covers the other values
    src = '{"n": 3, "entries": [{"i": 1, "j": 2, "k": 3, "value": "abc"}]}'
    assert main(["validate", src]) == 1
    assert capsys.readouterr().out.startswith("invalid: entry 0: value must be a finite number")
    assert main(["curvature", src]) == 2


@pytest.mark.parametrize("source", ["inline", "file"])
def test_unparseable_json_is_a_usage_error(source, tmp_path, capsys):
    def arg(text):
        if source == "inline":
            return text
        path = tmp_path / "doc.json"
        path.write_text(text)
        return str(path)

    assert main(["validate", arg('{"n": 3,')]) == 2
    assert "is not valid JSON" in capsys.readouterr().err
    # a parseable document that is not a bracket is a verdict in validate ...
    assert main(["validate", arg('{"n": 3, "entries": "nope"}')]) == 1
    # ... while outside validate a bad document is a usage error too
    assert main(["curvature", arg('{"n": 3, "entries": "nope"}')]) == 2


@pytest.mark.parametrize(
    "text", [b'\x80{"n": 3, "entries": []}', b'{"n": ' + b"[" * 100_000], ids=["not_utf8", "nested_too_deep"]
)
def test_json_the_decoder_cannot_read_is_a_usage_error(text, tmp_path, capsys):
    # these ended in a traceback, UnicodeDecodeError and RecursionError
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    assert main(["validate", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_unknown_generator_name(capsys):
    assert main(["validate", "heisenburg:c=1"]) == 2
    err = capsys.readouterr().err
    assert "heisenberg" in err  # the error names the available generators


def test_unknown_generator_key(capsys):
    assert main(["validate", "heisenberg:q=2"]) == 2


@pytest.mark.parametrize("level", ["verbose", "10"])
def test_an_unknown_log_level_is_a_usage_error(level, monkeypatch, capsys):
    monkeypatch.setenv("NILFLOW_LOG", level)
    assert main(["validate", "heisenberg:c=1"]) == 2
    assert "NILFLOW_LOG must be DEBUG, INFO, WARNING, ERROR or CRITICAL" in capsys.readouterr().err


# a value of each option type that every family accepts (n = 5 fits them all)
_SAMPLE = {int: "5", float: "1.5"}


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_generator_row(name, capsys):
    _, options = _GENERATORS[name]
    required = {key: _SAMPLE[cast] for key, (cast, default, *_) in options.items() if default is None}

    def spec(values):
        return f"{name}:" + ",".join(f"{key}={value}" for key, value in values.items())

    assert main(["validate", spec(required)]) == 0
    capsys.readouterr()
    assert main(["validate", spec({**required, "bogus": "1"})]) == 2
    assert f"unknown option(s) ['bogus'] for generator {name!r}" in capsys.readouterr().err
    for key, (cast, *_) in options.items():
        assert main(["validate", spec({**required, key: "x"})]) == 2
        assert f"{key}='x' is not a valid {cast.__name__}" in capsys.readouterr().err
    for key in required:
        assert main(["validate", spec({k: v for k, v in required.items() if k != key})]) == 2
        assert f"generator spec needs {key}=<" in capsys.readouterr().err


def test_missing_bracket_file(capsys, tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_validate_report_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "filiform:n=5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["nilpotent"] is True
    assert doc["degree"] == 4


def test_validate_document_keys(capsys):
    # the document is the ValidationReport's fields plus n and mu_norm
    # with "-", stdout holds the document alone and the summary goes to stderr
    assert main(["validate", "filiform:n=5", "--out", "-"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert sorted(doc) == [
        "degree", "jacobi_residual", "messages", "mu_norm", "n", "nilpotent", "series_dims",
    ]
    assert doc["series_dims"] == [5, 3, 2, 1, 0]
    assert "series dims [5, 3, 2, 1, 0]" in err


@pytest.mark.parametrize(
    "argv",
    [["curvature", "zero:n=100000"], ["validate", '{"n": 100000, "entries": []}']],
    ids=["curvature", "validate"],
)
def test_bracket_too_large_to_allocate_exits_2(argv, capsys):
    # n = 100000 asks numpy for 7.11 PiB, which it refuses before allocating
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# curvature


def test_curvature_stdout(capsys):
    assert main(["curvature", "heisenberg:c=1"]) == 0
    out = capsys.readouterr().out
    assert "scal" in out and "-0.5" in out


def test_curvature_of_the_zero_bracket_is_plus_zero(tmp_path, capsys):
    # scal = -||mu||^2 / 4 used to print as -0 and write -0.0
    out = tmp_path / "curv.json"
    assert main(["curvature", "zero:n=3", "--out", str(out)]) == 0
    assert "scal = 0 " in capsys.readouterr().out
    assert math.copysign(1.0, json.loads(out.read_text())["scal"]) == 1.0
    summary = tmp_path / "summary.json"
    assert main(["flow", "zero:n=3", "--t-max", "1", "--summary-out", str(summary)]) == 0
    assert math.copysign(1.0, json.loads(summary.read_text())["scal_final"]) == 1.0


@pytest.mark.parametrize("c", ["1e80", "1e100"])
def test_curvature_of_a_bracket_whose_energy_overflows_exits_2(c, capsys):
    # ||mu||^2 is finite, but the quartic tr Ric^2 is not; inf used to print
    assert main(["curvature", f"heisenberg:c={c}"]) == 2
    assert "overflows" in capsys.readouterr().err
    assert main(["curvature", f"heisenberg:c={c}", "--rescale", "2"]) == 0


def test_curvature_json(tmp_path):
    out = tmp_path / "curv.json"
    assert main(["curvature", "heisenberg:c=1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["scal"] == pytest.approx(-0.5)


@pytest.mark.parametrize("c", ["1e-160", "1e-150"])
def test_curvature_of_a_bracket_whose_ricci_underflows_exits_2(c, capsys):
    # Ric is quadratic and tr Ric^2 quartic in mu: neither may print as 0
    assert main(["curvature", f"heisenberg:c={c}"]) == 2
    assert "underflows" in capsys.readouterr().err
    assert main(["curvature", f"heisenberg:c={c}", "--rescale", "2"]) == 0
    assert main(["flow", f"heisenberg:c={c}", "--rescale", "2", "--t-max", "1"]) == 0


# ---------------------------------------------------------------------------
# flow


def test_flow_with_checks_and_artifacts(tmp_path, capsys):
    trace_csv = tmp_path / "trace.csv"
    snaps = tmp_path / "snaps.json"
    summary = tmp_path / "summary.json"
    rc = main(
        [
            "flow",
            "heisenberg:c=1",
            "--t-max",
            "1",
            "--max-step",
            "0.02",
            "--check",
            "identities",
            "--check",
            "type3",
            "--trace-out",
            str(trace_csv),
            "--brackets-out",
            str(snaps),
            "--summary-out",
            str(summary),
        ]
    )
    assert rc == 0
    cols = trace_from_csv(trace_csv)
    assert cols["t"][0] == 0.0 and cols["t"][-1] == pytest.approx(1.0)
    assert np.all(np.diff(cols["mu_norm"]) < 0.0)
    assert len(json.loads(snaps.read_text())["snapshots"]) == len(cols["t"])
    doc = json.loads(summary.read_text())
    assert doc["identities"]["ok"] is True
    assert doc["type3"]["norm_bound_ok"] is True and doc["type3"]["ricci_bound_ok"] is True
    assert doc["type3"]["predicted_norm_constant"] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_flow_check_failure_exits_nonzero(capsys):
    rc = main(["flow", "heisenberg:c=1", "--t-max", "1", "--check", "identities", "--check-tol", "1e-14"])
    assert rc == 1


def test_flow_normalized_needs_rescale(capsys):
    assert main(["flow", "heisenberg:c=1", "--rate", "scalar"]) == 2
    assert "--rescale" in capsys.readouterr().err


def test_flow_normalized_with_rescale(capsys):
    rc = main(["flow", "heisenberg:c=1", "--rate", "scalar", "--rescale", "2", "--t-max", "1"])
    assert rc == 0


@pytest.mark.parametrize("check", ["identities", "type3"])
def test_flow_check_for_another_kind_exits_2(check, capsys):
    # both checks need r = 0; on a normalized trace they are usage errors
    argv = ["flow", "heisenberg:c=1", "--rescale", "2", "--rate", "scalar", "--t-max", "0.5"]
    assert main(argv + ["--check", check]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--atol", "0"], "finite and > 0"),  # would loop forever
        (["--t-max", "0", "--check", "identities"], "at least 3 samples"),  # TooFewSamples
        (["--t-max", "inf"], "finite time"),  # would loop forever
        (["--t-max", "nan"], "finite time"),  # was a one-sample trace at t = 0
        (["--t-max", "-1"], "finite time"),
        (["--max-step", "nan"], "max_step"),  # was ignored
    ],
    ids=["zero_atol", "too_few_samples", "t_max_inf", "t_max_nan", "t_max_negative", "max_step_nan"],
)
def test_flow_library_errors_exit_2(extra, message, capsys):
    assert main(["flow", "heisenberg:c=1"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "zero:n=0"], "n >= 1"),
        (["validate", "zero:n=-1"], "n >= 1"),
        (["validate", "random2step:n=5,seed=-1"], "nonnegative"),
        (["validate", "filiform:n"], "is not key=value"),
        (["validate", "filiform:c=2"], "needs n=<int>"),
        (["validate", "filiform:n=4.5"], "n='4.5' is not a valid int"),
        (["validate", "heisenberg:c=big"], "c='big' is not a valid float"),
        (["validate", "random2step:n=5,scale=x"], "scale='x' is not a valid float"),
        (["sweep", "--n", "3", "--seed", "-1"], "nonnegative"),
        (["equivalence", "heisenberg:c=1", "--checkpoints", "0"], "at least 2"),
        (["equivalence", "heisenberg:c=1", "--checkpoints", "-1"], "at least 2"),
        (["equivalence", "heisenberg:c=1", "--checkpoints", "1"], "at least 2"),
        (["equivalence", "heisenberg:c=1", "--t-max", "inf"], "finite time >= 0, got inf"),
        (["equivalence", "heisenberg:c=1", "--t-max", "nan"], "finite time >= 0, got nan"),
        (["equivalence", "heisenberg:c=1", "--t-max", "-1"], "finite time >= 0, got -1.0"),
        (["equivalence", "heisenberg:c=1", "--rate", "scalar"], "--rescale 2"),
        (["curvature", "heisenberg:c=1", "--rescale", "0"], "finite and > 0"),
        (["curvature", "heisenberg:c=1", "--rescale", "-2"], "finite and > 0"),
        (["curvature", "heisenberg:c=1", "--rescale", "nan"], "finite and > 0"),
        (["curvature", "heisenberg:c=1", "--rescale", "-1e6"], "finite and > 0"),
        (["validate", "heisenberg:c=1", "--tol", "-1"], "--tol must be finite and > 0"),
        (["validate", "heisenberg:c=1", "--tol", "nan"], "--tol must be finite and > 0"),
        (["validate", "heisenberg:c=1", "--tol", "0"], "--tol must be finite and > 0"),
        (["soliton", "heisenberg:c=1", "--rescale", "2", "--tol", "nan"], "--tol must be finite and > 0"),
        (["soliton", "heisenberg:c=1", "--rescale", "2", "--tol", "-1"], "--tol must be finite and > 0"),
        (["equivalence", "heisenberg:c=1", "--tol", "nan"], "--tol must be finite and > 0"),
        (["equivalence", "heisenberg:c=1", "--tol", "-1"], "--tol must be finite and > 0"),
        (["flow", "heisenberg:c=1", "--check-tol", "nan"], "--check-tol must be finite and > 0"),
        (["flow", "heisenberg:c=1", "--check-tol", "-1"], "--check-tol must be finite and > 0"),
    ],
    ids=["zero_n0", "zero_negative_n", "spec_negative_seed",
         "spec_not_key_value", "spec_missing_n", "spec_n_not_int", "spec_c_not_float", "spec_scale_not_float",
         "sweep_negative_seed",
         "zero_checkpoints", "negative_checkpoints", "one_checkpoint",
         "equivalence_t_max_inf", "equivalence_t_max_nan", "equivalence_t_max_negative",
         "equivalence_normalized_off_sphere",
         "rescale_zero", "rescale_negative", "rescale_nan", "rescale_negative_exponent",
         "validate_tol_negative", "validate_tol_nan", "validate_tol_zero",
         "soliton_tol_nan", "soliton_tol_negative", "equivalence_tol_nan", "equivalence_tol_negative",
         "flow_check_tol_nan", "flow_check_tol_negative"],
)
def test_input_errors_exit_2(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_float_options_read_negative_exponents():
    # argparse's own negative-number pattern has no exponent: "--rate -1e6"
    # ended in "expected one argument"
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    checked = 0
    for command, sub in commands.choices.items():
        source = ["--n", "3"] if command == "sweep" else ["heisenberg:c=1"]
        for action in sub._actions:
            if action.type is not float:
                continue
            for value in ("-1e6", "-2.5E-3", "-inf"):
                args = parser.parse_args([command] + source + [action.option_strings[0], value])
                assert getattr(args, action.dest) == float(value), (command, action.dest, value)
            checked += 1
    assert checked >= 20
    # --rate is not float-typed: it reads a number or "scalar"
    for command in ("flow", "equivalence"):
        for value in ("-1e6", "-2.5E-3", "-inf", "scalar"):
            args = parser.parse_args([command, "heisenberg:c=1", "--rate", value])
            assert args.rate == (value if value == "scalar" else float(value)), (command, value)


@pytest.mark.parametrize(
    "argv",
    [["flow", "heisenberg:c=1", "--rho", "0.5"], ["flow", "heisenberg:c=1", "--rate", "foo"],
     ["equivalence", "heisenberg:c=1", "--normalized"], ["flow", "heisenberg:c=1", "--kind", "normalized"]],
    ids=["rho", "rate_foo", "normalized", "kind"],
)
def test_removed_rate_options_and_a_bad_rate_exit_2(argv, capsys):
    # "--rho 0.5" without "--kind r-const" ran the unnormalized flow silently
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


def test_bracket_whose_norm_underflows_rescales(tmp_path):
    # ||mu||^2 = 2e-400 underflows; the bracket used to count as zero
    brackets = tmp_path / "b.json"
    argv = ["flow", "heisenberg:c=1e-200", "--rate", "scalar", "--rescale", "2"]
    assert main(argv + ["--brackets-out", str(brackets)]) == 0
    snapshots = json.loads(brackets.read_text())["snapshots"]
    for snap in (snapshots[0], snapshots[-1]):
        assert bracket_from_dict(snap["bracket"]).norm == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "heisenberg:c=1", "--rate", "nan"],
        ["flow", "heisenberg:c=1", "--rate", "inf"],
        ["equivalence", "heisenberg:c=1", "--rate", "nan"],
    ],
    ids=["flow_nan", "flow_inf", "equivalence_nan"],
)
def test_non_finite_rate_exits_2(argv):
    # a non-finite rate can make every step nan and rejected; a subprocess with
    # a timeout turns such a regression into a failure instead of a hung suite
    proc = subprocess.run(["nilflow"] + argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "finite" in proc.stderr


def test_negative_rate_exits_3_at_the_condition_bound():
    # cond(h) passed 1/sqrt(eps) at t = 9.09 while the frame carried the
    # decay of ||mu||; the normalized frame keeps cond(h) = 1, and the scale
    # leaves the float range only at log a = -708.4, t = 236: T = 50 ends on
    # ||mu||^2 = 2 / (1.5 e^{6t} - 0.5), and T = 300 exits 3; a timeout turns
    # a run that does not return into a failure
    argv = ["nilflow", "flow", "heisenberg:c=1", "--rate", "-3", "--t-max", "50"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0 and "r flow to t = 50: |mu| = 8.28509e-66" in proc.stdout
    proc = subprocess.run(argv[:-1] + ["300"], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: the scale of mu left the float range at t=")
    assert proc.stderr.count("\n") == 1


def test_a_large_constant_rate_finishes():
    # stiff at its equilibrium: Dormand-Prince steps alone were still running
    # after 60 s; once settled the run takes ROS2 steps, 112 steps in all
    argv = ["nilflow", "flow", "heisenberg:c=1", "--rate", "1e6", "--t-max", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0 and "r flow to t = 1: |mu| = 1154.7" in proc.stdout


@pytest.mark.parametrize("argv", [["curvature", "heisenberg:c=1e200"],
                                  ["flow", "heisenberg:c=1e200", "--rate", "scalar", "--rescale", "2"]],
                         ids=["curvature", "flow"])
def test_bracket_whose_norm_overflows_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err


def test_validate_bracket_whose_norm_overflows(capsys):
    assert main(["validate", "heisenberg:c=1e200"]) == 1
    assert capsys.readouterr().out.startswith("invalid: ")
    assert main(["validate", "heisenberg:c=1e153"]) == 0
    assert "degree 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["flow", "heisenberg:c=1", "--rate", "1e300"],
     ["equivalence", "heisenberg:c=1", "--rate", "1e300"]],
    ids=["flow", "equivalence"],
)
def test_rate_that_overflows_the_step_exits_3(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    assert "t=0 " in captured.err


@pytest.mark.parametrize("t_max", ["10", "20"])
def test_equivalence_at_a_positive_rate_holds_on_longer_horizons(t_max, capsys):
    # h = frames @ A degenerates like e^{-tD} at a positive rate: by T = 20
    # cond(h) passes 1e5, and an A whose small directions the step error
    # counted at atol read a pullback residual of 4.6e-4 (exit 1); its error
    # counts relative to A, and both horizons read about 1e-8
    argv = ["equivalence", "random2step:n=5,seed=3", "--rate", "0.5", "--t-max", t_max, "--out", "-"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["max_pullback_residual"] < 1e-7 and report["max_gram_residual"] < 1e-7


def test_flow_constant_rate_equilibrium(tmp_path):
    summary = tmp_path / "s.json"
    rc = main(
        [
            "flow",
            "heisenberg:c=1",
            "--rate",
            "1.5",
            "--t-max",
            "2",
            "--summary-out",
            str(summary),
        ]
    )
    assert rc == 0
    doc = json.loads(summary.read_text())
    assert doc["mu_norm_final"] == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_flow_summary_document_keys(tmp_path):
    # one key per value: the end time is stats["t_final"] only
    summary = tmp_path / "s.json"
    assert main(["flow", "heisenberg:c=1", "--t-max", "1", "--summary-out", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert sorted(doc) == [
        "grad_norm_final", "kind", "max_jacobi_residual", "mu_norm_final", "samples", "scal_final",
        "stats", "tr_ric2_final",
    ]
    assert sorted(doc["stats"]) == [
        "accepted", "cone_projections", "max_cond_h", "max_skew_defect", "nfev", "rejected",
        "renormalizations", "rosenbrock_steps", "t_final",
    ]
    assert doc["stats"]["t_final"] == 1.0


@pytest.mark.parametrize("flag", ["--trace-out", "--brackets-out"])
def test_file_outputs_refuse_a_dash(flag, tmp_path, monkeypatch, capsys):
    # every other "-" means stdout; these wrote a file named "-"
    monkeypatch.chdir(tmp_path)
    assert main(["flow", "heisenberg:c=1", "--t-max", "1", flag, "-"]) == 2
    assert capsys.readouterr().err == f"error: {flag} needs a file path, not '-'; only JSON documents go to stdout\n"
    assert not (tmp_path / "-").exists()


def test_flow_to_a_time_below_the_step_floor(capsys):
    # the one step, h = 1e-300, is below the floor 1e-14 and used to exit 3
    assert main(["flow", "heisenberg:c=1", "--t-max", "1e-300"]) == 0
    assert "to t = 1e-300" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# soliton search


def test_soliton_converges_and_reports(tmp_path, capsys):
    out = tmp_path / "soliton.json"
    rc = main(
        ["soliton", "random2step:n=3,seed=1", "--rescale", "2", "--t-max", "20", "--out", str(out)]
    )
    assert rc == 0
    assert "converged: True" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert "limit_bracket" in doc and "invariants" in doc
    assert np.allclose(doc["invariants"]["ricci_spectrum"], [-1.0, -1.0, 1.0], atol=1e-6)


def test_soliton_document_keys(tmp_path):
    # the Ricci spectrum is an orbit invariant, not part of the certificate
    out = tmp_path / "soliton.json"
    assert main(["soliton", "heisenberg:c=1", "--rescale", "2", "--t-max", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == [
        "certificate", "converged", "decay_rate", "invariants", "limit_bracket", "limit_in_orbit",
        "pre_einstein_residual", "predicted_r_limit", "r_limit", "rate_gap", "reason",
    ]
    assert sorted(doc["certificate"]) == ["D", "c", "is_soliton", "residual"]
    assert sorted(doc["invariants"]) == ["degree", "energy", "mu_norm", "ricci_spectrum", "series_dims"]


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, as RFC 8259 and JSON.parse do."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_a_soliton_orbit_writes_its_undefined_decay_rate_null(capsys):
    # H3's sphere is a soliton orbit, so the tail has no decay rate: nan in
    # the report, null in the document, which used to read NaN
    assert main(["soliton", "heisenberg:c=1", "--rescale", "2", "--t-max", "5", "--out", "-"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["decay_rate"] is None and doc["rate_gap"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "filiform:n=5", "--out", "-"],
        ["curvature", "filiform:n=4", "--out", "-"],
        ["flow", "heisenberg:c=1", "--t-max", "1", "--summary-out", "-"],
        ["soliton", "heisenberg:c=1", "--rescale", "2", "--t-max", "5", "--out", "-"],
        ["equivalence", "heisenberg:c=1", "--t-max", "1", "--out", "-"],
        ["sweep", "--n", "3", "--count", "2", "--t-max", "1", "--out", "-"],
        ["metric-field", "heisenberg:c=1", "--out", "-"],
    ],
    ids=["validate", "curvature", "flow", "soliton", "equivalence", "sweep", "metric_field"],
)
def test_stdout_holds_the_document_alone(argv, capsys):
    # the human-readable lines go to stderr, so a pipe reads one strict document
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert isinstance(_strict_json(out), dict)
    assert err


def test_soliton_prints_the_tail_rate(capsys):
    # filiform(4) on the sphere is a soliton whose linearization decays at -5/2
    assert main(["soliton", "filiform:n=4", "--rescale", "2", "--t-max", "60"]) == 0
    out = capsys.readouterr().out
    assert "tail decay rate -2.5 (gap " in out
    # and beside it the limit that the start's pre-Einstein derivation predicts
    assert "pre-Einstein r_limit = 1.5 (residual " in out and "limit in orbit: True" in out


def test_soliton_requires_the_sphere(capsys):
    assert main(["soliton", "heisenberg:c=1", "--t-max", "1"]) == 2


def test_soliton_not_converged_exits_1(capsys):
    rc = main(["soliton", "random2step:n=5,seed=1", "--rescale", "2", "--t-max", "0.2"])
    assert rc == 1
    assert "converged: False" in capsys.readouterr().out


def test_an_unconverged_run_leaves_the_orbit_undecided(tmp_path, capsys):
    # a limit_in_orbit verdict needs a certified limit: None, printed
    # "undecided" and written null, before
    out = tmp_path / "soliton.json"
    assert main(["soliton", "random2step:n=5,seed=1", "--rescale", "2", "--t-max", "0.2", "--out", str(out)]) == 1
    assert "limit in orbit: undecided" in capsys.readouterr().out
    assert json.loads(out.read_text())["limit_in_orbit"] is None
    sweep = tmp_path / "sweep.json"
    main(["sweep", "--kind", "normalized", "--n", "5", "--count", "2", "--t-max", "0.2", "--out", str(sweep)])
    records = json.loads(sweep.read_text())["cases"]
    assert [(rec["converged"], rec["limit_in_orbit"]) for rec in records] == [(False, None)] * 2


CONE_EXIT = "descending central series stabilizes at a nonzero subspace"


def _limit_left_the_cone(b):
    raise NotNilpotentError(CONE_EXIT)


@pytest.mark.parametrize("with_out", [True, False], ids=["with_out", "without_out"])
def test_soliton_non_nilpotent_limit_exits_3(with_out, tmp_path, capsys, monkeypatch):
    # a normalized flow whose limit drifted off the nilpotent cone; the limit
    # was checked only when --out asked for its invariants
    monkeypatch.setattr("nilflow.cli.orbit_invariants", _limit_left_the_cone)
    argv = ["soliton", "heisenberg:c=1", "--rescale", "2", "--t-max", "5"]
    out = tmp_path / "soliton.json"
    rc = main(argv + ["--out", str(out)] if with_out else argv)
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"numerical failure: {CONE_EXIT}\n"


def test_soliton_frame_degenerates_exits_3(capsys):
    # no nilsoliton in the Dixmier-Lister orbit: cond(h) grows until it fails
    src = json.dumps(bracket_to_dict(dixmier_lister()))
    assert main(["soliton", src, "--rescale", "2", "--t-max", "60"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_soliton_rounding_damage_exits_3(capsys):
    # a rotated Dixmier-Lister start used to end "not converged" (exit 1) on a
    # wrong limit; the skew defect of h.mu0 now ends it as a numerical failure
    src = json.dumps(bracket_to_dict(rotated_dixmier_lister(1)))
    assert main(["soliton", src, "--t-max", "20"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: skew defect")


# ---------------------------------------------------------------------------
# equivalence


def test_equivalence_ok(capsys):
    rc = main(
        [
            "equivalence",
            "heisenberg:c=1",
            "--rescale",
            "2",
            "--t-max",
            "1",
            "--max-step",
            "0.1",
            "--checkpoints",
            "6",
        ]
    )
    assert rc == 0
    assert "agreement" in capsys.readouterr().out


def test_equivalence_normalized_mode(tmp_path):
    out = tmp_path / "eq.json"
    rc = main(
        [
            "equivalence",
            "heisenberg:c=1",
            "--rescale",
            "2",
            "--rate",
            "scalar",
            "--t-max",
            "1",
            "--max-step",
            "0.1",
            "--checkpoints",
            "6",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["max_gram_residual"] < 1e-5


def test_equivalence_normalized_at_the_defaults(capsys):
    # a metric flow on G itself lost the small eigen-directions of filiform(4)
    # (residual 1.1e-3) and the positivity of Heisenberg's G (exit 3); with the
    # scalar rate read on G itself, scal = -1 repelled, and random2step:n=5,seed=3
    # read a Gram residual of 0.10
    for spec in ("filiform:n=4", "heisenberg:c=1", "random2step:n=5,seed=3"):
        assert main(["equivalence", spec, "--rescale", "2", "--rate", "scalar"]) == 0, spec
        assert "agreement within 1e-05: yes" in capsys.readouterr().out


def test_equivalence_with_a_singular_frame_exits_3(capsys):
    # a cointegrated frame turns singular before t = 120; this was a LinAlgError traceback
    argv = ["equivalence", "random2step:n=5,seed=3", "--rescale", "2", "--rate", "scalar", "--t-max", "120"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_clusters_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["sweep", "--n", "3", "--count", "4", "--t-max", "20", "--seed", "7"]
    assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes(), "sweep output must not depend on --jobs"
    doc = json.loads(out1.read_text())
    assert len(doc["cases"]) == 4
    assert all(rec["converged"] for rec in doc["cases"])
    assert all(rec["limit_in_orbit"] and rec["predicted_r_limit"] == pytest.approx(3.0) for rec in doc["cases"])
    assert len(doc["clusters"]) == 1
    assert "deg=2" in doc["clusters"][0]["fingerprint"]


def test_sweep_unnormalized_reports_bounds(tmp_path):
    out = tmp_path / "u.json"
    rc = main(["sweep", "--n", "4", "--count", "3", "--kind", "unnormalized", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert all(rec["norm_bound_ok"] for rec in doc["cases"])


@pytest.mark.parametrize(
    "argv",
    [["--kind", "unnormalized", "--count", "0"], ["--count", "-1"]],
    ids=["zero_unnormalized", "negative"],
)
def test_sweep_needs_at_least_one_case(argv, capsys):
    # a count of 0 used to format a missing ratio, -1 to overflow the seed spawn
    assert main(["sweep", "--n", "3"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--count" in err


def test_sweep_without_ratios_prints_its_summary(tmp_path, capsys, monkeypatch):
    def fails(b, t_max):
        raise NumericalFailure("step size underflow")

    monkeypatch.setattr("nilflow.cli.integrate_bracket_flow", fails)
    out = tmp_path / "u.json"
    rc = main(["sweep", "--n", "3", "--count", "2", "--kind", "unnormalized", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().out == "2 unnormalized flows (n = 3)\n"
    assert json.loads(out.read_text())["worst_norm_ratio"] is None


def test_sweep_records_non_nilpotent_limits(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("nilflow.cli.orbit_invariants", _limit_left_the_cone)
    out = tmp_path / "s.json"
    rc = main(["sweep", "--n", "3", "--count", "2", "--t-max", "5", "--out", str(out)])
    assert rc == 3
    assert "2 case(s) failed numerically" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert [rec["index"] for rec in doc["cases"]] == [0, 1]
    assert all(rec["error"] == CONE_EXIT for rec in doc["cases"])


# ---------------------------------------------------------------------------
# metric-field


def test_metric_field_two_step(tmp_path):
    out = tmp_path / "heis_field.json"
    assert main(["metric-field", "heisenberg:c=1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["degree"] == 2
    entries = {(e["i"], e["j"], tuple(e["alpha"])): e["value"] for e in doc["coefficients"]}
    assert entries[(1, 1, (0, 0, 0))] == 1.0
    assert entries[(1, 1, (0, 2, 0))] == pytest.approx(0.25)


def test_metric_field_filiform(tmp_path):
    out = tmp_path / "field.json"
    assert main(["metric-field", "filiform:n=4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["degree"] == 4
    assert doc["n"] == 4


def test_metric_field_rejects_non_nilpotent(capsys):
    assert main(["metric-field", SO3]) == 2


# ---------------------------------------------------------------------------
# the installed console script


def test_console_script_entry_point():
    proc = subprocess.run(
        ["nilflow", "curvature", "heisenberg:c=1"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "scal" in proc.stdout
