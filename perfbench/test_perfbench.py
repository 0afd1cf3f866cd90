"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

run.load_program(HERE.parent)

from hyperchrom import colorful, hypergraph, tucker  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every hyperchrom module and SatSolver's methods."""
    from hyperchrom import sat

    out = {
        (name, key): value
        for name, mod in sorted(sys.modules.items())
        if name.startswith("hyperchrom")
        for key, value in vars(mod).items()
    }
    out.update({("SatSolver", key): value for key, value in vars(sat.SatSolver).items()})
    return out


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tampered_sweep_fails_the_run(monkeypatch, capsys):
    real = tucker.fan_sweep

    def tampered(*params):
        rep = real(*params)
        return tucker.SweepReport(rep.params, rep.admissible + 1, rep.failures, rep.regime_ok, rep.checked)

    monkeypatch.setattr(run, "SETUP_PROBES", (1, 1))
    monkeypatch.setattr(run, "SETUP_PROBE_S", 0.0)
    monkeypatch.setattr(workloads, "SWEEP_P3_PINNED", {(2, 1, 3, 0): (243, 243)})
    monkeypatch.setitem(workloads.WORKLOADS, "sweep_p3", workloads._sweep_workload("sweep_p3", workloads.SWEEP_P3_PINNED))
    assert run.main(["--workload", "sweep_p3", "--seconds", "0"]) == 0
    result = _result(capsys)
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in compare.SPEC["end_to_end"]}
    assert declared == {k: m["unit"] for k, m in result["metrics"].items()}

    monkeypatch.setattr(tucker, "fan_sweep", tampered)
    assert run.main(["--workload", "sweep_p3", "--seconds", "0"]) == 1
    result = _result(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    pinned = {(2, 1, 3, 0): (243, 243)}
    monkeypatch.setitem(workloads.WORKLOADS, "sweep_p3", workloads._sweep_workload("sweep_p3", pinned))
    assert run.main(["--workload", "sweep_p3", "--trace", "1"]) == 0
    metrics = _result(capsys)["metrics"]
    assert {m["name"]: m["unit"] for m in compare.SPEC["per_layer"]} == {k: m["unit"] for k, m in metrics.items()}
    assert metrics["tucker.condition_checks"]["value"] == 243
    assert 0 < metrics["trace.overhead_s"]["value"] < 0.1


def test_tampered_answers_fail_their_checks():
    good = (0, workloads.CHAIN_PINNED["K:5:2", 3], True)
    assert workloads.check_chain(("K:5:2", 3), good) == []
    assert workloads.check_chain(("K:5:2", 3), (0, ((2, 2),) * 5, True))
    assert workloads.check_chain(("K:5:2", 3), (0, good[1], False))
    assert workloads.check_chain(("K:5:2", 3), (2, good[1], True))
    assert workloads.check_sweep(workloads.SWEEP_P3_PINNED, (2, 1, 3, 0), (243, 243, 1, True))

    inp = workloads._witness_inputs(3)
    G, c = inp.kg82, inp.kg82_colorings[0]
    w = colorful.find_colorful_balanced(G, c, 2, 6)
    z = colorful.zigzag_check(G, c, t=6)
    assert workloads.check_colorful(G, c, 2, 6, w) == []
    assert workloads.check_zigzag(G, c, 6, z) == []
    swapped = colorful.ColorfulWitness(w.parts, w.color_sets[::-1])
    assert workloads.check_colorful(G, c, 2, 6, swapped)
    # validate_colorful passes both of these: it does not count parts
    one_color_set = colorful.ColorfulWitness(w.parts, w.color_sets[:1])
    assert workloads.check_colorful(G, c, 2, 6, one_color_set)
    H, c3 = inp.kg372, inp.kg372_colorings[0]
    two_parts = colorful.find_colorful_balanced(H, c3, 2, 4)
    assert colorful.validate_colorful(H, c3, two_parts).ok
    assert workloads.check_colorful(H, c3, 3, 4, two_parts)
    overlapping = colorful.ZigzagWitness(
        frozenset(sorted(z.side_a)[:2]) | {min(z.side_b)}, z.side_b, z.colors
    )
    assert workloads.check_zigzag(G, c, 6, overlapping)
    assert workloads.check_certify("C5", (True, True, 3, 3, True)) == []
    assert workloads.check_certify("C5", (True, True, 3, 4, True))


def test_traced_pass_covers_layers_and_restores_wrappers():
    before = _bindings()
    tasks = [workloads.Task("bounds", lambda: workloads._bounds("K:5:2", 2), lambda a: [])]
    plain = run.run_pass(tasks)
    with Tracer() as tracer:
        assert hypergraph.kneser is not before["hyperchrom.hypergraph", "kneser"]
        assert colorful.hom_poset is not before["hyperchrom.colorful", "hom_poset"]
        traced = run.run_pass(tasks, plain)
    assert _bindings() == before
    assert traced.problems == []
    calls = tracer.calls()
    for layer in workloads.WORKLOADS["chain"].layers:
        assert calls[layer] > 0, layer
    metrics = tracer.metrics()
    assert metrics["sat.solves"] > 0 and metrics["complexes.hom_elements"] > 0


def test_wrappers_restored_when_a_traced_call_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer():
            hypergraph.kneser(hypergraph.complete_hypergraph(4, 2), 1)
    assert _bindings() == before


def test_seed_changes_the_witness_corpus_only():
    for name, w in workloads.WORKLOADS.items():
        a, b, again = w.inputs(1), w.inputs(2), w.inputs(1)
        assert a == again, name
        if name == "witness":
            assert a.kg372_colorings != b.kg372_colorings
            assert (a.kg82, a.kg82_colorings, a.kg372, a.local) == (b.kg82, b.kg82_colorings, b.kg372, b.local)
        else:
            assert a == b, name


def test_judge():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.judge(parent, [x * 0.8 for x in parent], "lower", 0.1) == "gain"
    assert compare.judge(parent, [x * 1.2 for x in parent], "lower", 0.1) == "regression"
    assert compare.judge(parent, [x * 1.01 for x in parent], "lower", 0.1) == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.judge(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.judge(parent, [x * 1.2 for x in parent], "higher", 0.1) == "gain"
    assert compare.judge(parent, [x * 0.8 for x in parent], "higher", 0.1) == "regression"


def test_an_answer_unlike_the_first_pass_fails():
    answers = iter([1, 2])
    tasks = [workloads.Task("flaky", lambda: next(answers), lambda a: [])]
    first = run.run_pass(tasks)
    assert run.run_pass(tasks, first).problems == [("flaky", "answer differs from the first pass")]


@pytest.mark.parametrize("change_factor, exit_code", [(1.0, 0), (1.5, 1)])
def test_compare_runs_ten_alternating_pairs_of_every_workload(monkeypatch, capsys, tmp_path, change_factor, exit_code):
    calls = []

    def fake_run_child(argv, cwd):
        side = cwd.name
        calls.append((argv[1], int(argv[3]), side))
        value = 10.0 + len(calls) % 3 * 0.01
        value *= change_factor if side == "change" else 1.0
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in compare.SPEC["end_to_end"]}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(compare, "run_child", fake_run_child)
    assert compare.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]) == exit_code
    names = [w["name"] for w in compare.SPEC["workloads"]]
    assert len(calls) == 2 * compare.PAIRS * len(names)
    for i in range(compare.PAIRS):
        for w in names:
            order = [side for workload, seed, side in calls if (workload, seed) == (w, compare.BASE_SEED + i)]
            assert order == (["parent", "change"] if i % 2 == 0 else ["change", "parent"])
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("pair ")]
    assert [row.split(":")[0] for row in rows] == names
    assert all(("regression" in row) == (exit_code == 1) for row in rows)
