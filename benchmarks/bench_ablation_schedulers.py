"""Ablation — automatic schedulers vs the assignment's manual options.

Compares, at paper scale on the Tab-2 platform:

* the two pure baselines (all-local / all-cloud);
* the best per-level-fraction schedule (what a diligent treasure hunter
  finds — the space the EduWRENCH UI exposes);
* HEFT (earliest-finish-time list scheduling, the classic automatic
  baseline) and its carbon-greedy variant.

Three findings worth teaching fall out: (1) one HEFT pass beats both
pure options on time AND CO2 with zero search; (2) the exhaustive search
over the well-chosen per-level-fraction space still edges HEFT out —
restricted-but-searched beats clever-but-greedy here; (3) greedily
chasing the green site *backfires*, because stretching the makespan burns
idle power on every powered-on node: race-to-idle reappears at the
schedule level.
"""

import pytest

from conftest import emit, once
from repro.carbon.tab2 import exhaustive_optimum, question1_baselines
from repro.common.tables import Table
from repro.wrench.heft import heft_placement
from repro.wrench.platform import CLOUD


@pytest.fixture(scope="module")
def shootout(full_scenario):
    wf = full_scenario.workflow
    rows = {}
    baselines = question1_baselines(full_scenario)
    rows["all-local"] = (baselines["all-local"].makespan, baselines["all-local"].co2_grams, 0)
    rows["all-cloud"] = (baselines["all-cloud"].makespan, baselines["all-cloud"].co2_grams, len(wf))

    best, _ = exhaustive_optimum(full_scenario, resolution=5)
    rows["best per-level fractions"] = (best.makespan, best.co2_grams, best.cloud_tasks)

    for label, objective in [("HEFT (min time)", "makespan"), ("HEFT (greedy green)", "co2")]:
        placement = heft_placement(wf, full_scenario.tab2_platform(), objective=objective)
        res = full_scenario.simulate_tab2(placement)
        n_cloud = sum(1 for s in placement.values() if s == CLOUD)
        rows[label] = (res.makespan, res.total_co2, n_cloud)
    return rows


def test_scheduler_shootout(benchmark, shootout):
    t = Table(["scheduler", "time s", "CO2 g", "cloud tasks"],
              title="Tab-2 platform: manual options vs automatic schedulers")
    for name, (time_s, co2, n_cloud) in shootout.items():
        t.add_row([name, time_s, co2, n_cloud])
    once(benchmark, lambda: emit("ABL - scheduler shootout", t.render()))

    # finding 1: one HEFT pass beats both pure options on time AND CO2
    heft_t, heft_co2, _ = shootout["HEFT (min time)"]
    assert heft_t < shootout["all-local"][0]
    assert heft_t < shootout["all-cloud"][0]
    assert heft_co2 < shootout["all-local"][1]
    assert heft_co2 < shootout["all-cloud"][1]

    # finding 2: the exhaustively-searched per-level space still wins CO2
    # (125 simulations vs one greedy pass — search buys real grams)
    frac_t, frac_co2, _ = shootout["best per-level fractions"]
    assert frac_co2 < heft_co2

    # finding 3: the greedy-green variant is SLOWER and DIRTIER than
    # min-time HEFT — idle power makes racing to idle the greener move
    green_t, green_co2, _ = shootout["HEFT (greedy green)"]
    assert green_t > heft_t
    assert green_co2 > heft_co2


def test_bench_heft_planning(benchmark, full_scenario):
    wf = full_scenario.workflow

    def plan():
        return heft_placement(wf, full_scenario.tab2_platform())

    placement = benchmark.pedantic(plan, rounds=3, iterations=1)
    assert len(placement) == len(wf)
