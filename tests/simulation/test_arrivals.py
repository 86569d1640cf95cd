"""Arrival processes: determinism, registry shapes, schedule validity."""

import pytest

from repro.simulation.arrivals import (
    ARRIVAL_REGISTRY,
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    arrival_process_names,
    make_arrival_process,
)


class TestMakeArrivalProcess:
    def test_by_name(self):
        process = make_arrival_process("poisson")
        assert isinstance(process, PoissonArrivals)

    def test_by_name_with_kwargs(self):
        process = make_arrival_process("poisson", rate=0.5)
        assert process.rate == 0.5

    def test_by_mapping(self):
        process = make_arrival_process({"name": "bursty", "burst": 4, "mean_gap": 10})
        assert isinstance(process, BurstyArrivals)
        assert process.burst == 4

    def test_instance_passthrough(self):
        process = PoissonArrivals(rate=0.25)
        assert make_arrival_process(process) is process

    def test_instance_rejects_kwargs(self):
        with pytest.raises(TypeError):
            make_arrival_process(PoissonArrivals(), rate=0.5)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown arrival process"):
            make_arrival_process("nope")

    def test_mapping_without_name(self):
        with pytest.raises(TypeError, match="needs a 'name' entry"):
            make_arrival_process({"rate": 0.5})

    def test_unknown_keyword(self):
        with pytest.raises(TypeError):
            make_arrival_process("poisson", bogus=1)

    def test_names_cover_registry(self):
        assert arrival_process_names() == sorted(ARRIVAL_REGISTRY)


class TestValidation:
    @pytest.mark.parametrize("rate", [0, -0.5])
    def test_poisson_rejects_nonpositive_rate(self, rate):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=rate)

    def test_bursty_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BurstyArrivals(burst=0)
        with pytest.raises(ValueError):
            BurstyArrivals(mean_gap=0)
        with pytest.raises(ValueError):
            BurstyArrivals(within_gap=-1)


class TestSchedules:
    def test_schedule_is_non_decreasing_and_deterministic(self):
        for spec in ("poisson", {"name": "bursty", "burst": 3, "mean_gap": 20}):
            first = make_arrival_process(spec)
            first.bind(42)
            ticks = first.schedule(200)
            assert len(ticks) == 200
            assert all(b >= a for a, b in zip(ticks, ticks[1:]))
            assert all(tick >= 0 for tick in ticks)
            second = make_arrival_process(spec)
            second.bind(42)
            assert second.schedule(200) == ticks

    def test_different_seeds_differ(self):
        a = PoissonArrivals(rate=0.1)
        a.bind(1)
        b = PoissonArrivals(rate=0.1)
        b.bind(2)
        assert a.schedule(100) != b.schedule(100)

    def test_poisson_rate_is_respected(self):
        process = PoissonArrivals(rate=0.1)
        process.bind(0)
        ticks = process.schedule(2000)
        mean_gap = ticks[-1] / len(ticks)
        assert 8.0 < mean_gap < 12.0  # nominal 10 ticks between arrivals

    def test_bursty_shape(self):
        process = BurstyArrivals(burst=5, mean_gap=100, within_gap=0)
        process.bind(0)
        ticks = process.schedule(25)
        bursts = [ticks[i : i + 5] for i in range(0, 25, 5)]
        for burst in bursts:
            assert len(set(burst)) == 1  # back-to-back within a burst
        starts = [burst[0] for burst in bursts]
        assert all(b > a for a, b in zip(starts, starts[1:]))

    def test_negative_gap_is_rejected(self):
        class Broken(ArrivalProcess):
            def interarrival(self, index):
                return -1

        with pytest.raises(ValueError, match="negative gap"):
            Broken().schedule(1)
