"""Scaling timed intervals to the reference speed, on a hand-driven clock."""
import pytest

import speed
from speed import REF_PROBE_S, Speedometer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _meter(clock, probes):
    """A speedometer whose probe advances the clock by the next of ``probes``."""
    probes = iter(probes)

    def probe():
        p = next(probes)
        clock.now += p
        return p
    return Speedometer(clock, probe)


def test_each_stretch_of_an_item_scales_by_the_probes_around_it():
    clock = Clock()
    meter = _meter(clock, [0.001, 0.001, 0.003, 0.003])
    meter.sample()                    # before the item: 1 ms
    t0 = clock()
    for _ in range(2):                # inside it: 1 ms, then 3 ms
        clock.now += 1.0
        meter.sample()
    clock.now += 1.0
    elapsed = meter.since(t0)         # the closing sample: 3 ms
    # three 1 s stretches of work, the probes inside not counted, at a
    # probe of 1 ms, 2 ms (the mean of 1 and 3) and 3 ms
    assert elapsed == pytest.approx(REF_PROBE_S * (1 / 0.001 + 1 / 0.002 + 1 / 0.003))


def test_samples_before_the_last_one_preceding_an_item_do_not_count():
    clock = Clock()
    meter = _meter(clock, [0.010, 0.001, 0.001])
    meter.sample()
    clock.now += 5.0
    meter.sample()
    t0 = clock()
    clock.now += 0.5
    assert meter.since(t0) == pytest.approx(0.5 * REF_PROBE_S / 0.001)


def test_the_probe_is_a_positive_time_and_the_sampler_stops():
    assert speed.probe() > 0
    meter = Speedometer()
    meter.start()
    try:
        speed.probe()
    finally:
        meter.stop()
    assert meter.summary()["probe_ms_ref"] == 1e3 * REF_PROBE_S
