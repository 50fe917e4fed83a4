"""Tests of the host-speed probe that rescales the benchmark's timings."""

import signal

import pytest
import speed


def filled(costs, period=0.01):
    """A probe holding one sample per ``period`` with the given costs."""
    probe = speed.SpeedProbe(period)
    for index, cost in enumerate(costs):
        probe.times.append(index * period)
        probe.costs.append(cost)
    return probe


def test_scaled_charges_slow_samples_at_their_rate():
    reference = speed.REFERENCE
    probe = filled([reference] * 10 + [2 * reference] * 10)
    # Uncontended samples leave wall time as it is.
    assert probe.scaled(0.0, 0.1) == pytest.approx(0.1)
    # Half the samples at half speed: three quarters of the wall time.
    assert probe.scaled(0.0, 0.2) == pytest.approx(0.15)


def test_short_phase_borrows_the_nearest_samples():
    reference = speed.REFERENCE
    probe = filled([reference] * 20 + [2 * reference] * 20)
    low, high = probe._window(0.3, 0.301)
    assert high - low == speed.MIN_SAMPLES
    assert low <= 30 < high
    # At the start of the run the window cannot reach back past sample 0.
    assert probe._window(0.0, 0.001) == (0, speed.MIN_SAMPLES)
    assert probe.scaled(0.35, 0.36) == pytest.approx(0.005)


def test_probe_samples_and_restores_the_previous_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.001) as probe:
        total = 0
        while len(probe.costs) < 3 * speed.MIN_SAMPLES:
            total += sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert list(probe.times) == sorted(probe.times)
    assert all(cost > 0 for cost in probe.costs)
    assert probe.scaled(probe.times[0], probe.times[-1]) > 0


def test_a_signal_during_a_sample_is_dropped():
    probe = speed.SpeedProbe()
    probe._sampling = True
    probe._sample(signal.SIGALRM, None)
    assert len(probe.times) == len(probe.costs) == 0
    probe._sampling = False
    probe._sample(signal.SIGALRM, None)
    assert len(probe.times) == len(probe.costs) == 1
