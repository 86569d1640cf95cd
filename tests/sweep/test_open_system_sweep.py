"""Streaming scenarios through the sweep layer: validation + determinism.

The acceptance bar for open-system sweeps is the same as for closed ones:
a scenario row is a pure function of its spec, so a parallel (spawned)
run returns rows bit-identical to a serial run — including the new
latency and live-state columns — and every streaming knob (inner
workload, arrival process, arrival parameters) is validated eagerly at
spec construction.
"""

import pytest

from repro.core.errors import SweepSpecError
from repro.sweep import Axis, AxisPoint, ScenarioSpec, SweepRunner, SweepSpec


def streaming_base(**overrides):
    params = {
        "workload": "hotspot-stream",
        "workload_params": {
            "inner_params": {
                "transactions": 40,
                "hot_probability": 0.1,
                "cold_objects": 32,
                "operations_per_transaction": 2,
                "use_service_layer": False,
                "seed": 9,
            },
            "arrival": "poisson",
            "arrival_params": {"rate": 0.05},
        },
        "scheduler": "n2pl",
        "scheduler_kwargs": {"restart_policy": "backoff"},
        "seed": 21,
        "engine_params": {"gc_interval": 8},
        "certify": True,
    }
    params.update(overrides)
    return ScenarioSpec(**params)


class TestEagerValidation:
    def test_valid_streaming_spec_round_trips(self):
        spec = streaming_base()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "bad_params, match",
        [
            ({"inner": "nope"}, "unknown workload 'nope'"),
            ({"inner_params": {"bogus": 1}}, "unexpected keyword argument 'bogus'"),
            (
                {"inner": "hotspot-stream", "inner_params": {"inner_params": {"transactions": 4}}},
                "cannot wrap one another",
            ),
            ({"arrival": "nope"}, "unknown arrival process"),
            ({"arrival_params": {"bogus": 1}}, "PoissonArrivals.*argument 'bogus'"),
            ({"arrival_params": {"rate": -1}}, "rate"),
        ],
    )
    def test_bad_streaming_params_fail_at_spec_time(self, bad_params, match):
        params = {
            "inner": "hotspot",
            "inner_params": {"transactions": 4},
            "arrival": "poisson",
            "arrival_params": {"rate": 0.05},
        }
        params.update(bad_params)
        with pytest.raises(SweepSpecError, match=match):
            streaming_base(workload="stream", workload_params=params)

    def test_a_named_stream_fixes_its_inner_workload(self):
        # "hotspot-stream" is the generic wrapper with inner="hotspot"; a
        # second value is refused rather than silently winning.
        with pytest.raises(SweepSpecError, match="multiple values for keyword argument 'inner'"):
            streaming_base(workload_params={"inner": "banking", "inner_params": {}})

    def test_generic_stream_workload_validates_inner(self):
        with pytest.raises(SweepSpecError, match="unknown workload 'definitely-not'"):
            ScenarioSpec(
                workload="stream",
                workload_params={"inner": "definitely-not"},
                scheduler="n2pl",
            )

    def test_arrival_axis_points_are_validated_at_expansion(self):
        with pytest.raises(SweepSpecError, match="unknown arrival process"):
            SweepSpec(
                name="bad",
                base=streaming_base(),
                axes=(
                    Axis(
                        "arrival",
                        (AxisPoint("typo", {"workload_params.arrival": "poison"}),),
                    ),
                ),
            )


class TestStreamingDeterminism:
    def make_sweep(self):
        return SweepSpec(
            name="stream-grid",
            base=streaming_base(),
            axes=(
                Axis("scheduler", ("n2pl", "nto-step", "certifier")),
                Axis(
                    "arrival_point",
                    (
                        AxisPoint(
                            "poisson@0.03",
                            {"workload_params.arrival_params": {"rate": 0.03}},
                        ),
                        AxisPoint(
                            "bursty@8",
                            {
                                "workload_params.arrival": "bursty",
                                "workload_params.arrival_params": {
                                    "burst": 8,
                                    "mean_gap": 300,
                                },
                            },
                        ),
                    ),
                ),
            ),
        )

    def test_serial_rows_are_reproducible(self):
        sweep = self.make_sweep()
        first = SweepRunner(sweep).run_rows()
        second = SweepRunner(sweep).run_rows()
        assert first == second
        for row in first:
            assert row["arrived"] == 40
            assert row["serialisable"] is True

    def test_serial_equals_parallel_for_streaming_scenarios(self):
        sweep = self.make_sweep()
        serial = SweepRunner(sweep).run_rows()
        parallel = SweepRunner(sweep, workers=2, mp_context="spawn").run_rows()
        assert serial == parallel

    def test_streaming_rows_carry_open_system_columns(self):
        rows = SweepRunner(self.make_sweep()).run_rows()
        for row in rows:
            for column in (
                "arrived",
                "in_flight_peak",
                "mean_latency",
                "latency_max",
                "live_state_peak",
                "live_state_ratio",
            ):
                assert column in row, f"missing {column}"
            assert row["mean_latency"] > 0


class TestStreamCertifySweep:
    """``certify="stream"`` through the sweep layer: online verdicts in rows."""

    def make_stream_certify_sweep(self):
        return SweepSpec(
            name="stream-certify",
            base=streaming_base(certify="stream"),
            axes=(Axis("scheduler", ("n2pl", "nto-step", "certifier")),),
        )

    @pytest.mark.parametrize("bad", ["streaming", "post-hoc", "", 2, None])
    def test_invalid_certify_values_rejected_eagerly(self, bad):
        with pytest.raises(SweepSpecError, match="certify"):
            streaming_base(certify=bad)

    def test_stream_certify_spec_round_trips(self):
        spec = streaming_base(certify="stream")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_stream_certify_serial_equals_spawn_parallel(self):
        # The certifier's verdict is part of the row, so the spawn-pool
        # fan-out must reproduce it (and every other column) bit-for-bit;
        # the streaming certifier being a pure observer, the decision
        # columns also equal a certify=False run of the same spec (only
        # the verdict itself and the live-state gauge — which counts the
        # certifier's retained window by design — may differ).
        sweep = self.make_stream_certify_sweep()
        serial = SweepRunner(sweep).run_rows()
        parallel = SweepRunner(sweep, workers=2, mp_context="spawn").run_rows()
        assert serial == parallel
        for row in serial:
            assert row["serialisable"] is True
        plain = SweepRunner(
            SweepSpec(
                name="stream-plain",
                base=streaming_base(certify=False),
                axes=(Axis("scheduler", ("n2pl", "nto-step", "certifier")),),
            )
        ).run_rows()
        certifier_columns = ("serialisable", "live_state_peak", "live_state_ratio")
        for certified, uncertified in zip(serial, plain):
            observed = {
                column: value
                for column, value in certified.items()
                if column not in certifier_columns
            }
            expected = {
                column: value
                for column, value in uncertified.items()
                if column not in certifier_columns
            }
            assert observed == expected
