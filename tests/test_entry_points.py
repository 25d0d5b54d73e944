"""One deploy path: every entry point is ``compile_batch`` → commit.

The single driver (:meth:`repro.core.pipeline.CompilationPipeline.run_many`)
yields the same deployments for the same script through every entry point —
one-by-one raising calls, a batch, the shard coordinator, and the asyncio
service sharded and unsharded — and no entry point selects an executor.
"""

from __future__ import annotations

import asyncio

import pytest
from invariants import device_fingerprints

from repro.core import ClickINC, DeployRequest, INCService
from repro.exceptions import DeploymentError
from repro.lang.profile import default_profile
from repro.sharding import ShardCoordinator
from repro.topology import build_fattree

UNPARSABLE = "this is ( not a program"


def template(app: str, user: str, sources, destination, **performance):
    profile = default_profile(app, user=user)
    profile.performance.update(performance)
    return DeployRequest(source_groups=list(sources),
                         destination_group=destination,
                         name=f"{app.lower()}_{user}", profile=profile)


def script():
    """Intra-pod requests first, cross-pod ones last: the coordinator runs a
    batch's cross-shard requests after its shard waves, so this is the order
    in which every entry point commits the script."""
    return [
        template("KVS", "a", ["pod0(a)"], "pod0(b)", depth=1000),
        template("MLAgg", "b", ["pod1(a)"], "pod1(b)"),
        template("KVS", "a", ["pod0(a)"], "pod0(b)", depth=1000),  # duplicate
        DeployRequest(source_groups=["pod2(a)"], destination_group="pod2(b)",
                      name="bad", source=UNPARSABLE),
        template("KVS", "huge", ["pod2(a)"], "pod2(b)", depth=10 ** 9),
        template("KVS", "c", ["pod2(a)"], "pod2(b)", depth=1000),
        template("KVS", "x", ["pod0(a)", "pod1(a)"], "pod3(b)", depth=1000),
        template("MLAgg", "y", ["pod2(a)"], "pod3(b)"),
    ]


DUPLICATE = 2
EXPECTED = [(True, None), (True, None), (False, "validation"),
            (False, "frontend"), (False, "placement"), (True, None),
            (True, None), (True, None)]


def outcome(report):
    return (report.succeeded, report.failed_stage,
            tuple(report.deployed.devices()) if report.succeeded else (),
            tuple(record.name for record in report.stages))


def one_by_one(topology):
    """The raising calls; a raise is recorded as the report it replaces."""
    inc = ClickINC(topology)
    outcomes = []
    for request in script():
        try:
            if request.profile is not None:
                deployed = inc.deploy_profile(
                    request.profile, request.source_groups,
                    request.destination_group, name=request.name)
            else:
                deployed = inc.deploy_source(
                    request.source, request.source_groups,
                    request.destination_group, name=request.name)
        except Exception as exc:
            # the same typed exception, annotated with the stage the batch
            # path reports as ``failed_stage``
            (failed,) = inc.deploy_many([request])
            assert type(exc) is type(failed.exception)
            assert str(exc) == failed.error
            outcomes.append((False, exc.pipeline_stage, (),
                             tuple(r.name for r in failed.stages)))
        else:
            outcomes.append(outcome(deployed.report))
    return outcomes


def batch(topology):
    with ClickINC(topology) as inc:
        return [outcome(r) for r in inc.deploy_many(script())]


def coordinator(topology):
    with ShardCoordinator(topology) as coord:
        return [outcome(r) for r in coord.deploy_many(script())]


def service(**kwargs):
    def drive(topology):
        async def submit_all():
            async with INCService(topology, **kwargs) as svc:
                return [outcome(await svc.submit(request))
                        for request in script()]
        return asyncio.run(submit_all())
    return drive


ENTRY_POINTS = {
    "one-by-one": one_by_one,
    "deploy_many": batch,
    "coordinator": coordinator,
    "service-unsharded": service(),
    "service-sharded": service(sharded=True),
}
#: the coordinator refuses a taken name at its claim, before any stage runs
#: (every service runs over one)
SHARDED = ("coordinator", "service-sharded", "service-unsharded")


@pytest.fixture(scope="module")
def reference():
    topology = build_fattree(k=4)
    return batch(topology), device_fingerprints(topology)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_yields_the_same_deployments(entry, reference):
    expected, fingerprints = reference
    assert [o[:2] for o in expected] == EXPECTED
    topology = build_fattree(k=4)
    outcomes = ENTRY_POINTS[entry](topology)
    if entry in SHARDED:
        assert outcomes[DUPLICATE][3] == ()
        outcomes[DUPLICATE] = expected[DUPLICATE]
    assert outcomes == expected
    assert device_fingerprints(topology) == fingerprints


# --------------------------------------------------------------------- #
# nothing selects an executor
# --------------------------------------------------------------------- #
def test_no_entry_point_accepts_a_worker_count():
    with pytest.raises(TypeError):
        INCService(build_fattree(k=4), workers=2)
    with pytest.raises(TypeError):
        INCService(build_fattree(k=4), sharded=True, shard_workers=2)
    with pytest.raises(TypeError):
        ShardCoordinator(build_fattree(k=4), shard_workers=2)
    with ClickINC(build_fattree(k=4)) as inc:
        with pytest.raises(TypeError):
            inc.deploy_many([], workers=2)
        with pytest.raises(DeploymentError):
            INCService(inc, workers=2)
