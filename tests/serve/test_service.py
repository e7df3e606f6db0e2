"""Service-level tests: single-flight, batching, admission, warm start.

These drive :class:`SweepService` coroutines directly on a private
event loop — no sockets — so the dedup/backpressure/timeout behavior is
tested deterministically, one mechanism at a time.
"""

import asyncio
import dataclasses
import os
import time

import pytest

from repro.engine.sweep import METRICS, Sweep, register_metric
from repro.serve.batching import MicroBatcher
from repro.serve.schemas import DynamicCreate, SweepRequest
from repro.serve.service import ServeConfig, SweepService, parse_hot_set
from repro.serve.singleflight import SingleFlight


def run_with_service(config: ServeConfig, scenario) -> object:
    """Run ``await scenario(service)`` against a started service, with
    the full teardown (shared memory unlinked) on every path."""

    async def main():
        service = SweepService(config)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.aclose()

    return asyncio.run(main())


@pytest.fixture
def sleepy_metric():
    """A registered metric that sleeps, for overlap-sensitive tests."""
    register_metric(
        "serve_test_sleepy",
        lambda ctx: (time.sleep(0.25), 0.0)[1],
        overwrite=True,
        description="test-only: sleeps 0.25s",
    )
    yield "serve_test_sleepy"
    METRICS.pop("serve_test_sleepy", None)


class TestParseHotSet:
    def test_entries(self):
        assert parse_hot_set("hilbert@2x64; random:seed=3@3x16") == (
            ("hilbert", 2, 64),
            ("random:seed=3", 3, 16),
        )

    def test_empty(self):
        assert parse_hot_set("") == ()
        assert parse_hot_set(" ; ") == ()

    @pytest.mark.parametrize(
        "text", ("hilbert", "@2x8", "hilbert@2", "hilbert@ax8", "hilbert@0x8")
    )
    def test_malformed_entries_raise(self, text):
        with pytest.raises(ValueError, match="hot-set"):
            parse_hot_set(text)


class TestSingleFlight:
    def test_admit_and_coalesce(self):
        async def main():
            loop = asyncio.get_running_loop()
            flight = SingleFlight()
            f1, created1 = flight.admit("k", loop)
            f2, created2 = flight.admit("k", loop)
            assert created1 and not created2
            assert f1 is f2
            assert len(flight) == 1 and "k" in flight
            assert flight.new_keys(["k", "j"]) == 1
            flight.resolve("k", 42)
            assert len(flight) == 0
            assert await f1 == 42

        asyncio.run(main())

    def test_resolve_exception_and_unknown_key(self):
        async def main():
            loop = asyncio.get_running_loop()
            flight = SingleFlight()
            future, _ = flight.admit("k", loop)
            flight.resolve("missing", 1)  # ignored
            flight.resolve("k", RuntimeError("boom"))
            flight.resolve("k", 2)  # already resolved: ignored
            with pytest.raises(RuntimeError, match="boom"):
                await future

        asyncio.run(main())

    def test_fail_all(self):
        async def main():
            loop = asyncio.get_running_loop()
            flight = SingleFlight()
            futures = [flight.admit(k, loop)[0] for k in "abc"]
            flight.fail_all(RuntimeError("shutdown"))
            assert len(flight) == 0
            for future in futures:
                with pytest.raises(RuntimeError, match="shutdown"):
                    await future

        asyncio.run(main())


class TestMicroBatcher:
    def test_batches_within_window(self):
        async def main():
            executed = []

            def run_batch(tasks):
                executed.append(list(tasks))
                return [t * 10 for t in tasks]

            results = {}
            batcher = MicroBatcher(
                run_batch, results.__setitem__, window_s=0.05
            )
            await batcher.start()
            for key, task in ((1, 1), (2, 2), (3, 3)):
                batcher.enqueue(key, task)
            await asyncio.sleep(0.3)
            await batcher.aclose()
            assert executed == [[1, 2, 3]]  # one batch, not three
            assert results == {1: 10, 2: 20, 3: 30}
            assert batcher.batches == 1
            assert batcher.batched_cells == 3
            assert batcher.max_batch == 3

        asyncio.run(main())

    def test_batch_level_failure_reaches_every_key(self):
        async def main():
            def run_batch(tasks):
                raise RuntimeError("batch died")

            results = {}
            batcher = MicroBatcher(
                run_batch, results.__setitem__, window_s=0.0
            )
            await batcher.start()
            batcher.enqueue("a", 1)
            batcher.enqueue("b", 2)
            await asyncio.sleep(0.2)
            await batcher.aclose()
            assert set(results) == {"a", "b"}
            assert all(
                isinstance(v, RuntimeError) for v in results.values()
            )

        asyncio.run(main())


def _request(**overrides) -> SweepRequest:
    payload = {"dims": [2], "sides": [8], "curves": ["z"]}
    payload.update(overrides)
    return SweepRequest.from_dict(payload)


class TestAdmission:
    def test_plan_errors_are_400(self):
        async def scenario(service):
            status, payload = await service.handle_sweep(
                _request(curves=["no_such_curve"], strict=True)
            )
            assert status == 400
            assert "no_such_curve" in payload["error"]
            return service.counters["errors"]

        assert run_with_service(ServeConfig(port=0), scenario) == 1

    def test_byte_budget_rejects_oversized(self):
        async def scenario(service):
            status, payload = await service.handle_sweep(
                _request(sides=[64])
            )
            assert status == 413
            assert "chunk_cells" in payload["error"]
            assert service.counters["rejected"] == 1
            # The same geometry chunked fits the budget.
            status, _ = await service.handle_sweep(
                _request(sides=[64], chunk_cells=256)
            )
            assert status == 200

        run_with_service(
            ServeConfig(port=0, max_request_bytes=100_000), scenario
        )

    def test_max_inflight_rejects_with_retry_hint(self):
        async def scenario(service):
            status, payload = await service.handle_sweep(
                _request(curves=["z", "hilbert"])
            )
            assert status == 429
            assert payload["retry_after_s"] > 0
            assert service.counters["rejected"] == 1
            status, _ = await service.handle_sweep(_request(curves=["z"]))
            assert status == 200

        run_with_service(ServeConfig(port=0, max_inflight=1), scenario)

    def test_request_threads_capped_at_cores(self):
        cores = os.cpu_count() or 1

        async def scenario(service):
            status, _ = await service.handle_sweep(
                _request(threads=cores + 1)
            )
            assert status == 200
            return list(service._pools)

        keys = run_with_service(ServeConfig(port=0), scenario)
        assert keys
        assert all(threads <= cores for _, threads, _ in keys)

    def test_timeout_is_504_and_computation_survives(self, sleepy_metric):
        async def scenario(service):
            status, payload = await service.handle_sweep(
                _request(metrics=[sleepy_metric], timeout_s=0.05)
            )
            assert status == 504
            assert service.counters["timeouts"] == 1
            # The cell is still in flight — a retry attaches to it and,
            # once the sleep finishes, gets the result.
            assert len(service.flight) == 1
            status, payload = await service.handle_sweep(
                _request(metrics=[sleepy_metric], timeout_s=5.0)
            )
            assert status == 200
            assert payload["deduped_cells"] == 1
            assert payload["records"][0]["values"][sleepy_metric] == 0.0

        run_with_service(ServeConfig(port=0), scenario)

    def test_strict_cell_failure_is_400(self):
        async def scenario(service):
            # Bad spec kwargs fail inside the cell, after planning.
            status, payload = await service.handle_sweep(
                _request(curves=["z:bogus=1"], strict=True)
            )
            assert status == 400
            return payload

        payload = run_with_service(ServeConfig(port=0), scenario)
        assert "z:bogus=1" in payload["error"]

    def test_non_strict_failure_is_a_skip(self):
        async def scenario(service):
            status, payload = await service.handle_sweep(
                _request(curves=["z:bogus=1", "snake"])
            )
            assert status == 200
            assert [r["spec"] for r in payload["records"]] == ["snake"]
            assert payload["skipped"][0]["spec"] == "z:bogus=1"
            assert "construction error" in payload["skipped"][0]["reason"]

        run_with_service(ServeConfig(port=0), scenario)


class TestDedupAndWarm:
    def test_concurrent_identical_requests_compute_once(self):
        async def scenario(service):
            baseline = service.stats_payload()["cache"]["computes"]
            assert baseline.get("key_grid", 0) == 1  # warm hilbert only
            responses = await asyncio.gather(
                *(service.handle_sweep(_request()) for _ in range(5))
            )
            assert [status for status, _ in responses] == [200] * 5
            davgs = {p["records"][0]["values"]["davg"] for _, p in responses}
            assert len(davgs) == 1
            # One z context, one key grid build — across five requests.
            computes = service.stats_payload()["cache"]["computes"]
            assert computes["key_grid"] == 2
            assert service.counters["cells_started"] == 1
            assert service.flight.coalesced == 4
            deduped = sorted(p["deduped_cells"] for _, p in responses)
            assert deduped == [0, 1, 1, 1, 1]

        run_with_service(
            ServeConfig(
                port=0,
                hot_set=(("hilbert", 2, 8),),
                batch_window_s=0.2,
            ),
            scenario,
        )

    def test_warm_cells_are_counted(self):
        async def scenario(service):
            status, payload = await service.handle_sweep(
                _request(curves=["hilbert", "z"])
            )
            assert status == 200
            assert payload["served_from_warm"] == 1
            stats = service.stats_payload()
            assert stats["counters"]["served_from_warm"] == 1
            assert stats["warm_pairs"] == ["hilbert@2x8"]

        run_with_service(
            ServeConfig(
                port=0, hot_set=(("hilbert", 2, 8),), backend="numpy"
            ),
            scenario,
        )

    def test_bad_hot_set_fails_startup(self):
        with pytest.raises((ValueError, KeyError)):
            SweepService(
                ServeConfig(port=0, hot_set=(("no_such_curve", 2, 8),))
            )

    def test_estimate_task_bytes(self):
        tasks, _ = Sweep(
            dims=[2], sides=[64], curves=["z"], reports=False
        )._plan()
        dense = tasks[0]
        chunked = dataclasses.replace(dense, chunk_cells=256)
        assert SweepService.estimate_task_bytes(dense) == 64**2 * 8 * 4
        assert SweepService.estimate_task_bytes(chunked) == 256 * 64

    def test_estimate_session_bytes(self):
        create = DynamicCreate(d=2, side=64, parts=8, seed_points=100)
        assert SweepService.estimate_session_bytes(create) == (
            64**2 * 8 * 4 + 2 * 64 + 100 * (256 + 16) + 8 * 64
        )
        # A huge d is estimated without building side**d.
        huge = DynamicCreate(d=10**300, side=3)
        assert SweepService.estimate_session_bytes(huge) >= 2**64
