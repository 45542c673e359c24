"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs a one-program workload through the same code the benchmark runs
and checks that every metric ``BENCHMARK.json`` names is reported with
its unit, that a planted wrong reference output is caught, that the seed
changes the draw, that one seed repeats exactly, and that the traced run
survives observers that no longer exist.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import probes  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = bench.Workload("tiny", (
    bench.Subject("619.lbm_s", "x86", ("srbi", "jt", "ir-lowering")),
    bench.Subject("620.omnetpp_s", "aarch64", ("srbi", "func-ptr")),
), pass_seconds=1.0)


def run(seed=1, trace=False, inputs=None):
    return bench.execute(TINY, seed=seed, seconds=2, trace=trace,
                         inputs=inputs)


@pytest.fixture(scope="module")
def timed():
    return run()


@pytest.fixture(scope="module")
def traced():
    return run(trace=True)


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_every_end_to_end_metric_reported_with_unit(timed):
    result, _, code = timed
    assert code == 0 and result["correct"]
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    assert all(m["value"] is not None for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_every_per_layer_metric_reported_with_unit(traced):
    result, _, code = traced
    assert code == 0 and result["correct"]
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["per_layer"]}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(v is not None for v in values.values())
    assert values["trace.attributed_frac"] >= 0.95


def test_known_failures_listed_not_counted(timed):
    _, lines, _ = timed
    listed = [json.loads(line[len("failure "):]) for line in lines
              if line.startswith("failure ")]
    assert {(f["tool"], f["reason"]) for f in listed} == {
        ("srbi", "refused")}
    assert all(f["known"] for f in listed)


def test_planted_wrong_reference_is_caught():
    inputs = bench.set_up(TINY, seed=1)
    prog = inputs.programs[0]
    prog.reference = (prog.reference[0], prog.reference[1] + [7])
    result, lines, code = run(inputs=inputs)
    assert code == 1 and not result["correct"]
    wrong = [line for line in lines if '"wrong-output"' in line]
    assert wrong and all('"619.lbm_s"' in line for line in wrong)
    assert result["failed"] > 0


def test_seed_changes_draw():
    one = bench.input_digests(bench.set_up(TINY, seed=1).programs)
    two = bench.input_digests(bench.set_up(TINY, seed=2).programs)
    assert len(one) == len(two)
    assert all(a != b for a, b in zip(one, two))


def test_one_seed_repeats_exactly(timed, traced):
    again, again_lines, _ = run()
    for name in ("overhead_pct", "coverage_pct", "size_increase_pct",
                 "pass_frac"):
        assert again["metrics"][name] == timed[0]["metrics"][name]

    def failure_lines(lines):
        return [line for line in lines if line.startswith("failure ")]

    assert failure_lines(again_lines) == failure_lines(timed[1])
    retraced = run(trace=True)[0]
    assert retraced["metrics"]["machine.insns"] == \
        traced[0]["metrics"]["machine.insns"]


def test_traced_run_survives_removed_observers(monkeypatch):
    real = probes.telemetry_class

    def without_guards(probe):
        base = real(probe)

        class NoGuards(base):
            @property
            def guard_checks(self):
                raise AttributeError("guard_checks")

            guard_misses = guard_checks

        return NoGuards

    monkeypatch.setattr(bench, "telemetry_class", without_guards)
    monkeypatch.setattr(bench, "stage_names", lambda: ())
    result, lines, code = run(trace=True)
    assert code == 0 and result["correct"]
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["machine.jit.guard_checks"] is None
    assert values["machine.jit.guard_miss_frac"] is None
    assert values["analysis.cfg-construction_s"] is None
    assert values["core.unattributed_s"] > 0
    assert values["machine.jit.compiles"] > 0
    assert any(line.startswith("absent ") for line in lines)

    monkeypatch.setattr(bench, "telemetry_class", lambda probe: None)
    result, _, code = run(trace=True)
    assert code == 0
    assert result["metrics"]["machine.jit.compile_s"]["value"] is None
    assert result["metrics"]["machine.execute_s"]["value"] is not None
