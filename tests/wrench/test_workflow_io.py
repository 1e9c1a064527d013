"""Tests for workflow JSON persistence."""

import pytest

from repro.common.errors import ConfigurationError
from repro.wrench.platform import make_platform
from repro.wrench.simulation import simulate
from repro.wrench.workflow import Workflow, montage_workflow


class TestRoundtrip:
    def test_dict_roundtrip_preserves_everything(self):
        wf = montage_workflow(n_projections=6, n_difffits=10)
        clone = Workflow.from_dict(wf.to_dict())
        assert clone.name == wf.name
        assert len(clone) == len(wf)
        for t in wf.tasks:
            c = clone.task(t.name)
            assert c.flops == t.flops
            assert c.category == t.category
            assert [(f.name, f.size) for f in c.inputs] == [(f.name, f.size) for f in t.inputs]
        assert clone.levels() == wf.levels()

    def test_json_file_roundtrip(self, tmp_path):
        wf = montage_workflow(n_projections=4, n_difffits=6)
        path = tmp_path / "wf.json"
        wf.save_json(path)
        clone = Workflow.load_json(path)
        assert len(clone) == len(wf)
        assert clone.total_bytes() == pytest.approx(wf.total_bytes())

    def test_loaded_workflow_simulates_identically(self, tmp_path):
        wf = montage_workflow(n_projections=6, n_difffits=10, gflop_scale=5)
        path = tmp_path / "wf.json"
        wf.save_json(path)
        clone = Workflow.load_json(path)
        r1 = simulate(wf, make_platform(cluster_nodes=3, cluster_pstate=6))
        r2 = simulate(clone, make_platform(cluster_nodes=3, cluster_pstate=6))
        assert r1.makespan == pytest.approx(r2.makespan)
        assert r1.total_energy == pytest.approx(r2.total_energy)


class TestValidation:
    def test_malformed_document(self):
        with pytest.raises(ConfigurationError):
            Workflow.from_dict({"name": "x"})  # no tasks key

    def test_malformed_task(self):
        with pytest.raises(ConfigurationError):
            Workflow.from_dict({"name": "x", "tasks": [{"name": "t"}]})

    def test_cycle_rejected_on_load(self):
        doc = {
            "name": "cyclic",
            "tasks": [
                {"name": "A", "flops": 1.0, "inputs": [{"name": "b", "size": 1}],
                 "outputs": [{"name": "a", "size": 1}]},
                {"name": "B", "flops": 1.0, "inputs": [{"name": "a", "size": 1}],
                 "outputs": [{"name": "b", "size": 1}]},
            ],
        }
        with pytest.raises(ConfigurationError):
            Workflow.from_dict(doc)

    def test_empty_workflow_roundtrip(self):
        clone = Workflow.from_dict(Workflow("empty").to_dict())
        assert len(clone) == 0
