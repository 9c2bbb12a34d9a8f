"""The benchmark's cases run against this tree: one seeded case of each kind
goes through bench/cases.py's make_case and run_case and ends without a
failure code, so a change that drops something the benchmark reads fails
here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import nilflow

BENCH = Path(__file__).parents[1] / "bench"
SEED = 1


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cases = _load("cases")
tracing = _load("tracing")


@pytest.mark.parametrize(
    "workload, index",
    [("decay", 0), ("soliton", 0), ("soliton", 1), ("soliton", 2), ("metric", 0), ("metric", 6)],
)
def test_bench_case_runs_without_failures(workload, index):
    w = cases.WORKLOADS[workload]
    case = cases.make_case(tracing.Api(), w, SEED, index)
    out = cases.run_case(tracing.Api(), w, case, (nilflow.NilflowError, np.linalg.LinAlgError))
    assert out.failures == [], (case.kind, out.failures)
    assert out.flow["samples"] > 0 or out.monomials > 0
