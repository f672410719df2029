"""The benchmark's workloads call into the library by name and signature
(`FieldParam(q, N)` among them), so each tiny workload must still build,
run and pass its own checks."""

import importlib.util
import os

import pytest

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["euler", "partition", "catalog", "gram"])
def test_tiny_workload_passes_its_checks(workloads, name):
    inputs, jobs = workloads.build(name, 1, "tiny")
    assert inputs and jobs
    for job in jobs:
        assert job.check(job.run()), job.name
