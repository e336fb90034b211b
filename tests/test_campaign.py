"""Campaigns: legacy spec translation, cache hit/miss/resume, parallelism.

A campaign is the study engine run over the specs
:meth:`StudySpec.from_campaign` builds, sharing one result cache.
"""

import json

import pytest

from repro.apps import build_workload, workload_entry, workload_names
from repro.campaign import ResultCache, cache_key
from repro.explore import ArchConfig, RFConfig, space_by_name, space_names
from repro.study import StudySpec, run_study


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
def test_workload_registry_builds_ir():
    assert {"crypt", "gcd", "fir", "dotprod", "checksum", "crc16"} <= set(
        workload_names()
    )
    ir = build_workload("gcd")
    assert ir.name == "gcd"
    with pytest.raises(KeyError, match="unknown workload"):
        build_workload("nope")


def test_space_registry():
    assert {"crypt", "small", "dsp"} <= set(space_names())
    assert len(space_by_name("small")) == 12
    assert all(c.num_muls == 1 for c in space_by_name("dsp"))
    with pytest.raises(KeyError, match="unknown space"):
        space_by_name("nope")


# ----------------------------------------------------------------------
# config serialization (satellite)
# ----------------------------------------------------------------------
def test_archconfig_dict_round_trip():
    config = ArchConfig(
        num_buses=3,
        num_alus=2,
        num_shifters=1,
        num_muls=1,
        rfs=(RFConfig(8), RFConfig(12, read_ports=2, write_ports=2)),
    )
    data = json.loads(json.dumps(config.to_dict()))
    assert ArchConfig.from_dict(data) == config


def test_archconfig_from_dict_defaults():
    assert ArchConfig.from_dict({"num_buses": 2}) == ArchConfig(num_buses=2)


# ----------------------------------------------------------------------
# spec
# ----------------------------------------------------------------------
def test_spec_json_round_trip():
    specs = StudySpec.from_campaign(json.loads(json.dumps({
        "name": "sweep",
        "workloads": ["crypt", "gcd"],
        "spaces": ["small", "dsp"],
        "widths": [16, 32],
        "attach_test_costs": True,
        "select": True,
        "weights": [2.0, 1.0, 1.0],
    })))
    for spec in specs:
        assert StudySpec.from_json(spec.to_json()) == spec
    # one multi-workload study per (space, width)
    assert [(s.space, s.width) for s in specs] == [
        ("small", 16), ("small", 32), ("dsp", 16), ("dsp", 32),
    ]
    assert sum(len(s.workloads) for s in specs) == 2 * 2 * 2
    first = specs[0]
    assert first.workloads == ("crypt", "gcd")
    assert first.name == "sweep" and first.strategy == "exhaustive"
    assert first.objectives == ("area", "cycles", "test_cost")
    assert first.select and first.weights == (2.0, 1.0, 1.0)
    assert first.march == "March C-"


def test_spec_defaults():
    (spec,) = StudySpec.from_campaign({"name": "x", "workloads": ["gcd"]})
    assert (spec.space, spec.width) == ("crypt", 16)
    assert spec.objectives == ("area", "cycles")
    assert spec.weights == (1.0, 1.0, 1.0) and not spec.select


def test_spec_validation():
    with pytest.raises(ValueError, match="name"):
        StudySpec.from_campaign({"name": "", "workloads": ["gcd"]})
    with pytest.raises(ValueError, match="workload"):
        StudySpec.from_campaign({"name": "x", "workloads": []})
    with pytest.raises(ValueError, match="space"):
        StudySpec.from_campaign(
            {"name": "x", "workloads": ["gcd"], "spaces": []}
        )
    with pytest.raises(ValueError, match="widths"):
        StudySpec.from_campaign(
            {"name": "x", "workloads": ["gcd"], "widths": [0]}
        )
    (bad,) = StudySpec.from_campaign({"name": "x", "workloads": ["nope"]})
    with pytest.raises(KeyError, match="unknown workload"):
        bad.validate()


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def test_cache_key_stable_and_distinct():
    a = ArchConfig(num_buses=2)
    assert cache_key("gcd", a, 16) == cache_key("gcd", ArchConfig(2), 16)
    assert cache_key("gcd", a, 16) != cache_key("gcd", a, 32)
    assert cache_key("gcd", a, 16) != cache_key("fir", a, 16)
    assert cache_key("gcd", a, 16) != cache_key(
        "gcd", ArchConfig(num_buses=2, rfs=(RFConfig(8, read_ports=2),)), 16
    )


def test_cache_miss_then_hit(tmp_path):
    from repro.explore import EvaluatedPoint

    cache = ResultCache(tmp_path)
    config = ArchConfig(num_buses=2)
    assert cache.get("gcd", config, 16) is None
    cache.put("gcd", EvaluatedPoint(config=config, area=10.5, cycles=42), 16)
    hit = cache.get("gcd", config, 16)
    assert hit is not None
    assert (hit.config, hit.area, hit.cycles) == (config, 10.5, 42)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get("gcd", config, 16) is None


def test_cache_infeasible_and_corrupt(tmp_path):
    from repro.explore import EvaluatedPoint

    cache = ResultCache(tmp_path)
    config = ArchConfig(num_buses=1)
    cache.put("gcd", EvaluatedPoint(config=config, area=5.0, cycles=None), 16)
    hit = cache.get("gcd", config, 16)
    assert hit is not None and not hit.feasible
    # corrupt entry degrades to a miss
    for path in cache.directory.glob("shards/*/*.json"):
        path.write_text("{ not json")
    assert cache.get("gcd", config, 16) is None


def test_cache_test_cost_tied_to_march(tmp_path):
    from repro.explore import EvaluatedPoint

    cache = ResultCache(tmp_path)
    config = ArchConfig(num_buses=2)
    point = EvaluatedPoint(config=config, area=1.0, cycles=10, test_cost=99)
    cache.put("gcd", point, 16, march="March C-")
    same = cache.get("gcd", config, 16, march="March C-")
    other = cache.get("gcd", config, 16, march="MATS+")
    assert same.test_cost == 99
    assert other is not None and other.test_cost is None
    assert other.cycles == 10


# ----------------------------------------------------------------------
# campaigns through the study engine
# ----------------------------------------------------------------------
def _spec(**kw):
    """The single study of a one-space, one-width campaign dict."""
    data = dict(name="t", workloads=["gcd"], spaces=["small"])
    data.update(kw)
    (spec,) = StudySpec.from_campaign(data)
    return spec


def test_campaign_matches_one_shot_study():
    campaign = run_study(_spec(), cache=None)
    run = campaign.runs[0]
    one_shot = run_study(
        StudySpec(name="one", workloads=("gcd",), space="small")
    ).single.result
    assert [p.label for p in run.result.pareto2d] == [
        p.label for p in one_shot.pareto2d
    ]
    assert [(p.area, p.cycles) for p in run.result.points] == [
        (p.area, p.cycles) for p in one_shot.points
    ]


def test_campaign_cache_resume(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_study(_spec(), cache=cache)
    assert first.evaluated == 12 and first.cache_hits == 0
    second = run_study(_spec(), cache=cache)
    assert second.evaluated == 0 and second.cache_hits == 12
    assert [p.label for p in second.runs[0].result.pareto2d] == [
        p.label for p in first.runs[0].result.pareto2d
    ]


def test_campaign_partial_cache_resumes(tmp_path):
    cache = ResultCache(tmp_path)
    run_study(_spec(), cache=cache)
    # drop a third of the entries: an interrupted campaign
    for path in sorted(cache.directory.glob("shards/*/*.json"))[:4]:
        path.unlink()
    resumed = run_study(_spec(), cache=cache)
    assert resumed.cache_hits == 8 and resumed.evaluated == 4
    assert len(resumed.runs[0].result.points) == 12


def test_campaign_persists_incrementally(tmp_path):
    """A campaign killed mid-sweep must keep every finished point."""

    class DyingCache(ResultCache):
        def __init__(self, directory, die_after):
            super().__init__(directory)
            self.die_after = die_after

        def put(self, workload, point, width, march=None,
                energy_model=None):
            if self.die_after == 0:
                raise RuntimeError("simulated crash")
            self.die_after -= 1
            super().put(workload, point, width, march,
                        energy_model=energy_model)

    dying = DyingCache(tmp_path, die_after=5)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_study(_spec(), cache=dying)
    assert len(dying) == 5                  # finished points survived
    resumed = run_study(_spec(), cache=ResultCache(tmp_path))
    assert resumed.cache_hits == 5 and resumed.evaluated == 7


def test_campaign_parallel_equals_serial(tmp_path):
    serial = run_study(_spec(), workers=1, cache=None)
    parallel = run_study(_spec(), workers=2, cache=None)
    s, p = serial.runs[0].result, parallel.runs[0].result
    assert [(q.label, q.area, q.cycles) for q in s.points] == [
        (q.label, q.area, q.cycles) for q in p.points
    ]
    assert [q.label for q in s.pareto2d] == [q.label for q in p.pareto2d]


def test_campaign_test_costs_and_selection(tmp_path):
    spec = _spec(attach_test_costs=True, select=True)
    campaign = run_study(spec, cache=ResultCache(tmp_path))
    run = campaign.runs[0]
    assert all(p.test_cost is not None for p in run.result.pareto2d)
    assert run.result.pareto3d
    assert run.selection is not None
    assert run.selection.point in run.result.pareto3d
    # cached test costs survive the round trip
    again = run_study(spec, cache=ResultCache(tmp_path))
    assert again.evaluated == 0
    assert again.runs[0].selection.point.label == run.selection.point.label


def test_campaign_selection_without_test_costs():
    campaign = run_study(_spec(select=True), cache=None)
    assert campaign.runs[0].selection is not None


def test_campaign_infeasible_workload_handled():
    # fir needs a MUL; the small space has none -> nothing feasible
    campaign = run_study(
        _spec(workloads=["fir"], select=True), cache=None
    )
    run = campaign.runs[0]
    assert not run.result.feasible_points
    assert run.selection is None
    assert "fir/small/w16" in campaign.summary()


def test_campaign_dsp_space_carries_mul():
    campaign = run_study(
        _spec(workloads=["dotprod"], spaces=["dsp"]), cache=None
    )
    assert campaign.runs[0].result.feasible_points


def test_campaign_progress_and_lookup():
    lines = []
    campaign = run_study(_spec(), cache=None, progress=lines.append)
    assert any("gcd/small/w16" in line for line in lines)
    assert campaign.run("gcd/small/w16") is campaign.runs[0]
    with pytest.raises(KeyError):
        campaign.run("nope")
    with pytest.raises(ValueError, match="workers"):
        run_study(_spec(), workers=0)


# ----------------------------------------------------------------------
# memoized Pareto properties (satellite)
# ----------------------------------------------------------------------
def test_pareto_properties_memoized():
    from repro.testcost import attach_test_costs

    campaign = run_study(_spec(), cache=None)
    result = campaign.runs[0].result
    first = result.pareto2d
    assert result.pareto2d is first
    assert result.pareto3d == []           # no test costs yet
    attach_test_costs(result.pareto2d)
    refreshed = result.pareto3d
    assert refreshed                        # cache invalidated by attach
    assert result.pareto3d is refreshed
