"""Tests for the deterministic fault-injection harness."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import InjectedFaultError
from repro.linalg.operator import CsrOperator
from repro.resilience import FaultyOperator, SimulatedCrash, crash_at_iteration


@pytest.fixture()
def operator():
    matrix = sp.random(50, 50, density=0.1, random_state=7, format="csr")
    return CsrOperator(matrix)


class TestFaultyOperator:
    def test_delegates_protocol(self, operator):
        faulty = FaultyOperator(operator)
        assert faulty.n == operator.n
        assert faulty.kernel == operator.kernel
        np.testing.assert_array_equal(
            faulty.dangling_mask, operator.dangling_mask
        )
        x = np.ones(operator.n)
        np.testing.assert_array_equal(
            faulty.rmatvec(x), operator.rmatvec(x)
        )

    def test_corruption_is_deterministic(self, operator):
        x = np.ones(operator.n)
        outs = []
        for _ in range(2):
            faulty = FaultyOperator(
                operator, corrupt_at_call=2, n_corrupt=3, seed=11
            )
            faulty.rmatvec(x)
            outs.append(faulty.rmatvec(x))
        np.testing.assert_array_equal(
            np.isnan(outs[0]), np.isnan(outs[1])
        )
        assert int(np.isnan(outs[0]).sum()) == 3

    def test_faults_are_transient(self, operator):
        faulty = FaultyOperator(operator, corrupt_at_call=1)
        x = np.ones(operator.n)
        assert np.isnan(faulty.rmatvec(x)).any()
        assert not np.isnan(faulty.rmatvec(x)).any()
        assert faulty.faults_fired == 1

    def test_fail_at_call_raises(self, operator):
        faulty = FaultyOperator(operator, fail_at_call=2)
        x = np.ones(operator.n)
        faulty.rmatvec(x)
        with pytest.raises(InjectedFaultError, match="call 2"):
            faulty.rmatvec(x)
        faulty.rmatvec(x)  # transient: call 3 works again

    def test_custom_corrupt_value(self, operator):
        faulty = FaultyOperator(
            operator, corrupt_at_call=1, corrupt_value=np.inf
        )
        out = faulty.rmatvec(np.ones(operator.n))
        assert np.isinf(out).any()

    def test_materialize_unfaulted(self, operator):
        faulty = FaultyOperator(operator, corrupt_at_call=1)
        np.testing.assert_array_equal(
            faulty.materialize().toarray(), operator.materialize().toarray()
        )


class TestCrashAtIteration:
    def test_raises_only_at_k(self):
        callback = crash_at_iteration(3)
        callback(1, 0.5)
        callback(2, 0.4)
        with pytest.raises(SimulatedCrash, match="iteration 3"):
            callback(3, 0.3)

    def test_action_runs_before_raise(self):
        ran = []
        callback = crash_at_iteration(1, action=lambda: ran.append(True))
        with pytest.raises(SimulatedCrash):
            callback(1, 0.5)
        assert ran == [True]


class TestFaultRule:
    def test_validation_names_the_bad_field(self):
        from repro.errors import ConfigError
        from repro.resilience.faults import FaultRule

        with pytest.raises(ConfigError, match="kind"):
            FaultRule(kind="meteor-strike")
        with pytest.raises(ConfigError, match="probability"):
            FaultRule(kind="reset", probability=1.5)
        with pytest.raises(ConfigError, match="latency_seconds"):
            FaultRule(kind="latency", latency_seconds=-0.1)
        with pytest.raises(ConfigError, match="cut_fraction"):
            FaultRule(kind="torn", cut_fraction=0.0)

    def test_config_roundtrip_and_unknown_key_rejected(self):
        from repro.errors import ConfigError
        from repro.resilience.faults import FaultRule

        rule = FaultRule(
            kind="stall", probability=0.25, stall_seconds=0.1
        )
        assert FaultRule.from_config(rule.to_config()) == rule
        with pytest.raises(ConfigError, match="blast_radius"):
            FaultRule.from_config({"kind": "stall", "blast_radius": 9})


class TestFaultPlan:
    def test_same_seed_same_call_sequence_fires_identically(self):
        from repro.resilience.faults import FaultPlan, FaultRule

        def run(seed):
            plan = FaultPlan(seed=seed)
            plan.add("flaky", FaultRule(kind="reset", probability=0.4))
            plan.add("lag", FaultRule(kind="latency", probability=0.6,
                                      latency_seconds=0.01,
                                      jitter_seconds=0.02))
            plan.activate("flaky", "lag")
            trace = []
            for _ in range(200):
                rule = plan.draw("reset")
                trace.append(rule is not None)
                rule = plan.draw("latency")
                trace.append(None if rule is None else plan.delay(rule))
            return trace, dict(plan.fired)

        trace_a, fired_a = run(11)
        trace_b, fired_b = run(11)
        trace_c, _ = run(12)
        assert trace_a == trace_b
        assert fired_a == fired_b
        assert trace_a != trace_c
        assert fired_a["flaky"] > 0 and fired_a["lag"] > 0

    def test_inactive_rules_never_fire(self):
        from repro.resilience.faults import FaultPlan, FaultRule

        plan = FaultPlan(seed=0)
        plan.add("always", FaultRule(kind="reset", probability=1.0))
        assert all(plan.draw("reset") is None for _ in range(20))
        plan.activate("always")
        assert plan.draw("reset") is not None
        plan.deactivate("always")
        assert plan.draw("reset") is None

    def test_activate_unknown_rule_is_an_error(self):
        from repro.errors import ConfigError
        from repro.resilience.faults import FaultPlan

        with pytest.raises(ConfigError, match="unknown fault rule"):
            FaultPlan().activate("nope")

    def test_apply_config_wire_roundtrip(self):
        from repro.errors import ConfigError
        from repro.resilience.faults import FaultPlan

        plan = FaultPlan(seed=5)
        described = plan.apply_config(
            {
                "rules": {"lossy": {"kind": "torn", "probability": 0.5}},
                "activate": ["lossy"],
            }
        )
        assert described["active"] == ["lossy"]
        assert described["rules"]["lossy"]["kind"] == "torn"
        described = plan.apply_config({"reset": True})
        assert described["active"] == []
        assert "lossy" in described["rules"]  # reset clears activation only
        with pytest.raises(ConfigError, match="unknown chaos key"):
            plan.apply_config({"frobnicate": 1})


class _FakeWire:
    """Captures writes like a socket makefile('wb') would."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(bytes(data))

    def flush(self):
        pass

    @property
    def data(self):
        return b"".join(self.chunks)


class TestSocketFaultInjector:
    FRAME = b'{"ok": true, "values": [1.0, 2.0, 3.0]}\n'

    def _injector(self, kind, **kwargs):
        from repro.resilience.faults import (
            FaultPlan,
            FaultRule,
            SocketFaultInjector,
        )

        plan = FaultPlan(seed=0)
        plan.add("f", FaultRule(kind=kind, **kwargs))
        plan.activate("f")
        sleeps = []
        injector = SocketFaultInjector(plan, sleep=sleeps.append)
        return injector, sleeps

    def test_clean_path_writes_whole_frame(self):
        from repro.resilience.faults import FaultPlan, SocketFaultInjector

        wire = _FakeWire()
        injector = SocketFaultInjector(FaultPlan(), sleep=lambda s: None)
        assert injector.send(wire, self.FRAME) is True
        assert wire.data == self.FRAME

    def test_latency_sleeps_then_delivers_intact(self):
        injector, sleeps = self._injector(
            "latency", latency_seconds=0.02, jitter_seconds=0.01
        )
        wire = _FakeWire()
        assert injector.send(wire, self.FRAME) is True
        assert wire.data == self.FRAME
        assert len(sleeps) == 1 and 0.02 <= sleeps[0] <= 0.03

    def test_stall_splits_frame_but_delivers_everything(self):
        injector, sleeps = self._injector("stall", stall_seconds=0.25)
        wire = _FakeWire()
        assert injector.send(wire, self.FRAME) is True
        assert wire.data == self.FRAME
        assert len(wire.chunks) == 2, "the frame must go out in two writes"
        assert sleeps == [0.25]

    def test_torn_frame_truncates_and_drops_newline(self):
        injector, _ = self._injector("torn", cut_fraction=0.5)
        wire = _FakeWire()
        assert injector.send(wire, self.FRAME) is False
        assert 0 < len(wire.data) < len(self.FRAME)
        assert not wire.data.endswith(b"\n")
        assert self.FRAME.startswith(wire.data)

    def test_reset_cuts_frame_and_reports_dropped_connection(self):
        injector, _ = self._injector("reset", cut_fraction=0.25)
        wire = _FakeWire()
        assert injector.send(wire, self.FRAME, connection=None) is False
        assert len(wire.data) < len(self.FRAME)
