import pytest

from repro.runtime.events import EventSim, Resource
from repro.runtime.tasks import TASK_RESOURCE, TaskCosts, TaskKind


def test_step_time_is_max_of_six():
    c = TaskCosts(load_weight=3, load_cache=1, load_activation=0.1,
                  store_cache=2, store_activation=0.1, compute=2.5)
    assert c.step_time() == 3
    assert c.bottleneck() is TaskKind.LOAD_WEIGHT


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        TaskCosts(compute=-1)


def test_every_task_has_a_resource():
    assert set(TASK_RESOURCE) == set(TaskKind)
    assert TASK_RESOURCE[TaskKind.LOAD_WEIGHT] == "h2d"
    assert TASK_RESOURCE[TaskKind.STORE_CACHE] == "d2h"


def test_resource_serializes_tasks():
    r = Resource(name="gpu")
    s1, e1 = r.run(2.0)
    s2, e2 = r.run(3.0)
    assert (s1, e1) == (0.0, 2.0)
    assert (s2, e2) == (2.0, 5.0)
    assert r.busy_time == 5.0
    assert r.tasks_run == 2


def test_resource_respects_ready_time():
    r = Resource(name="gpu")
    start, end = r.run(1.0, ready_at=10.0)
    assert start == 10.0 and end == 11.0


def test_resource_rejects_negative_duration():
    with pytest.raises(ValueError):
        Resource(name="x").run(-1.0)


def test_eventsim_makespan_and_utilization():
    sim = EventSim()
    sim.resource("a").run(4.0)
    sim.resource("b").run(1.0)
    assert sim.makespan == 4.0
    assert sim.resources["a"].busy_time == sim.makespan
    assert sim.resources["b"].busy_time == pytest.approx(0.25 * sim.makespan)
