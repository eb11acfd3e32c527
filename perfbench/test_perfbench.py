"""Tests of the benchmark itself: span arithmetic, the checker, a smoke run.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

import check
import pin
import run
import tracer
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("persistence.oracle_masses", 1.0, 4.0, 0),
        span("exact.piecewise_pushforward", 2.0, 3.0, 1),
        span("families.scalar.j", 5.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_busy_counts_nested_spans_of_one_group_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("families.poly.j_tilde", 1.0, 5.0, 0),
        span("families.poly.mallows_riordan", 2.0, 4.0, 1),
        span("families.poly.mallows_riordan", 6.0, 7.0, 0),
    ]
    m = tracer.layer_metrics([spans])
    assert m["families.poly_calls"] == 3
    assert m["families.poly_s"] == 5.0
    assert m["families.self_s"] == 5.0
    assert m["cli.self_s"] == 5.0


def test_layer_metrics_of_an_oracle_chain():
    def push(start, end, pieces):
        return span("exact.piecewise_pushforward", start, end, 1, {"pieces": pieces, "degree": 3, "coeff_bits": 40})

    chain = [span("cli.main", 0.0, 8.0), span("persistence.oracle_masses", 0.5, 7.5, 0), push(1.0, 2.0, 4), push(3.0, 7.0, 12)]
    m = tracer.layer_metrics([chain, [span("cli.main", 0.0, 1.0)]])
    assert m["exact.pushforward_calls"] == 2
    assert m["exact.pieces_out_total"] == 16 and m["exact.pieces_max"] == 12
    assert m["exact.last_step_s"] == 4.0
    assert m["exact.pushforward_s_per_piece"] == 5.0 / 16
    assert m["persistence.self_s"] == 2.0
    assert m["cli.self_s"] == 2.0


def test_scaling_pairs_one_and_two_workers_of_equal_work():
    def est(start, end, workers):
        return span("montecarlo.estimate_persistence", start, end, 0, {"path_steps": 600, "workers": workers})

    cmds = [[span("cli.main", 0, 4), est(0, 3, 1)], [span("cli.main", 0, 3), est(0, 2, 2)]]
    m = tracer.layer_metrics(cmds)
    assert m["montecarlo.scaling_w2"] == 1.5
    assert m["montecarlo.path_steps_per_s"] == 1200 / 5


def test_workload_wall_sums_each_commands_median_over_passes():
    passes = [[{"main_s": t} for t in row] for row in ([1.0, 9.0], [2.0, 5.0], [6.0, 6.0])]
    assert run.workload_wall(passes) == 2.0 + 6.0


def test_checker_rejects_a_changed_last_digit_of_an_exact_rational():
    text = "n,theta,p_exact,p_float\n4,4/5,411589/1119744,0.3675741955304069\n"
    ref = check.make_reference(text)
    assert check.compare(ref, text) is None
    assert "line 2" in check.compare(ref, text.replace("1119744", "1119745"))


def test_checker_accepts_a_float_inside_tolerance_only():
    ref = check.make_reference('{"estimate": 0.25, "successes": 500000}')
    assert check.compare(ref, '{"estimate": 0.25000000000001, "successes": 500000}') is None
    assert "float #0" in check.compare(ref, '{"estimate": 0.2500005, "successes": 500000}')
    assert check.compare(ref, '{"estimate": 0.25, "successes": 500001}') is not None


def test_checker_compares_long_outputs_by_digest():
    text = "".join(f"{n},1/3,{3**n}/{7**n},{0.5**n!r}\n" for n in range(400))
    ref = check.make_reference(text)
    assert "skeleton" not in ref and check.compare(ref, text) is None
    assert check.compare(ref, text.replace(str(3**399), str(3**399 + 1))) is not None


def test_benchmark_json_lists_every_metric_the_run_emits():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    emitted = set(tracer.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: tracer.unit(n) for n in emitted}
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "oracle-window", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


SMOKE = {
    "oracle-window": lambda seed: [workloads.Command(("persist", "--nmax", "5", "--theta", "4/5"), pushforwards=4)],
    "closed-mc": lambda seed: [
        workloads.Command(("rates", "--theta", "1/4")),
        workloads.Command(("persist", "--nmax", "20", "--theta", "1/3")),
        workloads.Command(("simulate", "--theta", "1/2", "--law", "gaussian", "--n", "5", "--trials", "40000")),
        workloads.Command(("simulate", "--theta", "1/2", "--law", "gaussian", "--n", "5", "--trials", "40000", "--workers", "2"), same_as=2),
        workloads.Command(("volume", "--kind", "cayley", "--n", "3", "--trials", "40000")),
    ],
    "verify-suite": lambda seed: [workloads.Command(("verify", "--nmax", "2"), pushforwards=None)],
}


@pytest.fixture
def smoke(tmp_path, monkeypatch):
    """The three workloads at reduced size, with references pinned afresh."""
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(workloads, "WORKLOADS", SMOKE)
    monkeypatch.setattr(workloads, "MC_SEEDS", 1)
    monkeypatch.setattr(check, "REFS_PATH", str(tmp_path / "refs.json"))
    monkeypatch.setattr(run, "SETUP_PER_PASS", 1)
    assert pin.main() == 0


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_of_each_workload(smoke, capsys, name):
    for trace, expected in ((0, {"setup_s", "wall_s", "peak_rss_mb"}), (1, {"exact.pushforward_calls", "cli.self_s"})):
        assert run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]) == 0
        result = last_json(capsys)
        assert result["correct"] and result["failed"] == 0, result
        assert expected <= set(result["metrics"])
        assert all(m["value"] >= 0 or n == "trace.overhead_s" for n, m in result["metrics"].items())
    if name == "oracle-window":
        assert result["metrics"]["exact.pushforward_calls"]["value"] == 4
    if name == "closed-mc":
        assert result["metrics"]["exact.pushforward_calls"]["value"] == 0


def test_smoke_run_counts_a_wrong_output_as_failed(smoke, capsys):
    refs = check.load_refs()
    key = "persist --nmax 5 --theta 4/5"
    refs[key]["skeleton"] = refs[key]["skeleton"].replace("4/5", "5/4", 1)
    with open(check.REFS_PATH, "w") as fh:
        json.dump(refs, fh)
    assert run.main(["--workload", "oracle-window", "--seed", "0", "--seconds", "0"]) == 0
    result = last_json(capsys)
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 1
