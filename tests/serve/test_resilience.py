"""Service survival under worker faults: the killed-worker criterion.

A worker killed mid-job must leave the service serving: the pool
respawns the slot, the retry budget re-runs the lost chunk, and the job
completes with the unfaulted result.
"""

import asyncio

import numpy as np

from repro.core.parallel import shutdown_pools
from repro.oscillators.fast.oscillator_fast import OscillatorFastDetector
from repro.serve import JobService, ServeConfig
from repro.serve.jobs import DONE


def _large_image():
    """256x256 float64 == 512KB: every chunk of the detect fan-out
    ships an image well past the 64 KiB pipe buffer."""
    rng = np.random.default_rng(11)
    return rng.uniform(0.0, 255.0, size=(256, 256))


class TestKilledWorker:
    def teardown_method(self):
        shutdown_pools()

    def test_killed_worker_mid_job_is_retried(self, fault_plan):
        image = _large_image()
        reference = OscillatorFastDetector(threshold=30.0).detect(image)
        fault_plan([(1, 1, "kill")])

        async def body():
            service = JobService(ServeConfig(workers=2, retries=2))
            await service.start()
            try:
                job = service.submit(
                    "detect",
                    {"image": image.tolist(), "threshold": 30.0})
                await job.future
                # The kill was absorbed: retried chunk, identical result.
                assert job.state == DONE, job.error
                assert job.result["corners"] == [
                    [int(r), int(c)] for r, c in reference]
                # The service keeps serving after the fault.
                follow_up = service.submit("factor", {"n": 15})
                await follow_up.future
                assert follow_up.state == DONE
            finally:
                await service.close()

        asyncio.run(body())

    def test_clean_large_detect_job_completes(self):
        image = _large_image()

        async def body():
            service = JobService(ServeConfig(workers=2))
            await service.start()
            try:
                job = service.submit(
                    "detect",
                    {"image": image.tolist(), "threshold": 30.0})
                await job.future
                assert job.state == DONE, job.error
            finally:
                await service.close()

        asyncio.run(body())
