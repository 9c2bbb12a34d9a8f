"""Command-line interface: sources, subcommands, exit codes, artifacts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from nilflow.algebra import bracket_to_dict
from nilflow.cli import main
from nilflow.exceptions import NotNilpotentError
from nilflow.flow import trace_from_csv

from conftest import dixmier_lister

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


def test_unparseable_json_is_a_usage_error(capsys):
    assert main(["validate", '{"n": 3,']) == 2
    # ... while outside validate a bad document is a usage error too
    assert main(["curvature", '{"n": 3, "entries": "nope"}']) == 2


def test_unknown_generator_name(capsys):
    assert main(["validate", "heisenburg:c=1"]) == 2
    err = capsys.readouterr().err
    assert "heisenberg" in err  # the error names the available generators


def test_unknown_generator_key(capsys):
    assert main(["validate", "heisenberg:q=2"]) == 2


def test_missing_bracket_file(capsys, tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_validate_report_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "filiform:n=5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["nilpotent"] is True
    assert doc["degree"] == 4


# ---------------------------------------------------------------------------
# curvature


def test_curvature_stdout(capsys):
    assert main(["curvature", "heisenberg:c=1"]) == 0
    out = capsys.readouterr().out
    assert "scal" in out and "-0.5" in out


def test_curvature_json(tmp_path):
    out = tmp_path / "curv.json"
    assert main(["curvature", "heisenberg:c=1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["scal"] == pytest.approx(-0.5)


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


def test_flow_check_failure_exits_nonzero(capsys):
    rc = main(["flow", "heisenberg:c=1", "--t-max", "1", "--check", "identities", "--check-tol", "1e-14"])
    assert rc == 1


def test_flow_normalized_needs_rescale(capsys):
    assert main(["flow", "heisenberg:c=1", "--kind", "normalized"]) == 2
    assert "--rescale" in capsys.readouterr().err


def test_flow_normalized_with_rescale(capsys):
    rc = main(["flow", "heisenberg:c=1", "--kind", "normalized", "--rescale", "2", "--t-max", "1"])
    assert rc == 0


@pytest.mark.parametrize("check", ["identities", "type3"])
def test_flow_check_for_another_kind_exits_2(check, capsys):
    # both checks need r = 0; on a normalized trace they are usage errors
    argv = ["flow", "heisenberg:c=1", "--rescale", "2", "--kind", "normalized", "--t-max", "0.5"]
    assert main(argv + ["--check", check]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--atol", "0"], "finite and > 0"),  # would loop forever
        (["--t-max", "0", "--check", "identities"], "at least 3 samples"),  # TooFewSamples
    ],
    ids=["zero_atol", "too_few_samples"],
)
def test_flow_library_errors_exit_2(extra, message, capsys):
    assert main(["flow", "heisenberg:c=1"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_flow_constant_rate_equilibrium(tmp_path):
    summary = tmp_path / "s.json"
    rc = main(
        [
            "flow",
            "heisenberg:c=1",
            "--kind",
            "r-const",
            "--rho",
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


def test_flow_with_h(tmp_path):
    summary = tmp_path / "s.json"
    rc = main(
        ["flow", "heisenberg:c=1", "--t-max", "1", "--with-h", "--summary-out", str(summary)]
    )
    assert rc == 0
    doc = json.loads(summary.read_text())
    assert "h_final_det" in doc


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


def test_soliton_requires_the_sphere(capsys):
    assert main(["soliton", "heisenberg:c=1", "--t-max", "1"]) == 2


def test_soliton_not_converged_exits_1(capsys):
    rc = main(["soliton", "random2step:n=5,seed=1", "--rescale", "2", "--t-max", "0.2"])
    assert rc == 1
    assert "converged: False" in capsys.readouterr().out


CONE_EXIT = "descending central series stabilizes at a nonzero subspace"


def _limit_left_the_cone(b, tol=None):
    raise NotNilpotentError(CONE_EXIT)


def test_soliton_non_nilpotent_limit_exits_3(tmp_path, capsys, monkeypatch):
    # a normalized flow whose limit drifted off the nilpotent cone
    monkeypatch.setattr("nilflow.cli.orbit_invariants", _limit_left_the_cone)
    out = tmp_path / "soliton.json"
    rc = main(["soliton", "heisenberg:c=1", "--rescale", "2", "--t-max", "5", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"numerical failure: {CONE_EXIT}\n"


def test_soliton_frame_degenerates_exits_3(capsys):
    # no nilsoliton in the Dixmier-Lister orbit: cond(h) grows until it fails
    src = json.dumps(bracket_to_dict(dixmier_lister()))
    assert main(["soliton", src, "--rescale", "2", "--t-max", "60"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


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
            "--normalized",
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
    assert len(doc["clusters"]) == 1
    assert "deg=2" in doc["clusters"][0]["fingerprint"]


def test_sweep_unnormalized_reports_bounds(tmp_path):
    out = tmp_path / "u.json"
    rc = main(["sweep", "--n", "4", "--count", "3", "--kind", "unnormalized", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert all(rec["norm_bound_ok"] for rec in doc["cases"])


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
