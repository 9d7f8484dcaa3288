"""Tests of the benchmark itself: its checks catch corrupted answers, a
fault of the program fails operations instead of the run, the tracer
leaves the program as it found it, and BENCHMARK.json matches the code.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from cocenter import matrices  # noqa: E402
from cocenter.matrices import PrimeContext, QMat  # noqa: E402


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def small(request):
    workload = WORKLOADS[request.param]
    return workload, workload.setup(7, small=True)


def test_reduced_round_passes(small):
    workload, inputs = small
    rnd = harness.run_round(workload, inputs)
    assert rnd.done == inputs.ops
    assert rnd.failed == 0, rnd.failures


def test_corrupted_answer_fails_operations(small):
    workload, inputs = small
    rnd = harness.run_round(workload, inputs, corrupt=True)
    assert rnd.done == inputs.ops
    assert 0 < rnd.failed < rnd.done, rnd.failures
    if workload.name == "discriminant-identity":
        # the corrupted lambda_P fails the identity and the reference comparison
        assert {what.split(" for ")[0] for what in rnd.failures} == {
            "Delta_P^2 = +-Delta_M lambda_P", "full adjoint determinants"}, rnd.failures


def test_program_fault_fails_the_rest_of_the_round():
    def round_(inputs, rnd, corrupt=False):
        rnd.check(True, "first")
        raise ArithmeticError("fault in the program")

    workload = Workload("faulty", lambda seed, timed, small=False: None, round_, 1)

    class Inputs:
        ops = 5

    rnd = harness.run_round(workload, Inputs())
    assert (rnd.done, rnd.failed) == (5, 4)
    assert "ArithmeticError: fault in the program" in rnd.failures


def test_tracer_counts_and_restores():
    original = matrices.hermite_padic
    original_new = Fraction.__dict__["__new__"]
    g = QMat([[2, 1], [0, 1]])
    with tracer.Tracer() as t:
        assert matrices.hermite_padic is not original
        matrices.coset_canonical_rep(g, PrimeContext(2, 1))
    assert matrices.hermite_padic is original
    assert Fraction.__dict__["__new__"] is original_new
    metrics = t.metrics()
    assert metrics["matrices.coset_canonical_rep.calls"]["value"] == 1
    assert metrics["matrices.hermite_padic.calls"]["value"] == 1
    assert metrics["exactnum.padic_valuation.calls"]["value"] > 0
    # outside a timed section no Fraction is counted
    assert metrics["exactnum.fraction_new.calls"]["value"] == 0
    spans = {(s["caller"], s["name"]) for s in t.spans()}
    assert ("matrices.coset_canonical_rep", "matrices.hermite_padic") in spans


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.per_layer_metrics()
    workload = Workload("empty", lambda seed, timed, small=False: type("I", (), {"ops": 1}),
                        lambda inputs, rnd, corrupt=False: rnd.check(True, "ok"), 1)
    result, _ = harness.timed_run(workload, 0, 0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, value["unit"]) for name, value in result["metrics"].items()]


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "discriminant-identity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_clock_counts_program_time_in_yardstick_loops():
    yardstick = harness.Yardstick()
    clock = harness.Clock(yardstick)
    with yardstick.ticking():
        for _ in range(8):
            with clock.timed():
                sum(Fraction(1, k) for k in range(1, 4000))
    wall, cpu = clock.seconds()
    # the sections ran about 0.2 s, so the timer split them too
    assert yardstick.probes >= 4
    # each stretch is divided by a probe no quicker than the quickest
    quickest_wall, quickest_cpu = yardstick.quickest
    assert 0 < wall <= clock.wall * harness.YARDSTICK_S / quickest_wall * (1 + 1e-9)
    assert 0 < cpu <= clock.cpu * harness.YARDSTICK_S / quickest_cpu * (1 + 1e-9)
