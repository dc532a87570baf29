
from repro.core import Verdict, certify
from repro.network import refined_delay_annotation, scale_delays
from repro.circuits import carry_skip_adder, fig2_circuit

from tests.helpers import c17


class TestCertifyFlow:
    def test_identical_model_certified(self):
        report = certify(c17())
        assert report.verdict == Verdict.CERTIFIED
        assert report.transition.delay == report.model_replay_delay
        assert report.floating.delay >= report.transition.delay
        assert report.topological_delay >= report.floating.delay

    def test_report_describe(self):
        report = certify(c17())
        text = report.describe()
        assert "CERTIFIED" in text
        assert "floating delay" in text

    def test_faster_accurate_model_is_conservative(self):
        c = carry_skip_adder(8, 4)
        estimated = scale_delays(c, 3)  # pessimistic verifier delays
        accurate = c                     # faster silicon
        report = certify(estimated, accurate_circuit=accurate)
        assert report.verdict == Verdict.CERTIFIED_CONSERVATIVE
        assert report.gamma < report.transition.delay

    def test_slower_accurate_model_flags_pessimism_gap(self):
        c = c17()
        accurate = scale_delays(c, 4)  # silicon slower than the model
        report = certify(c, accurate_circuit=accurate)
        assert report.verdict == Verdict.MODEL_NOT_PESSIMISTIC
        assert any("pessimistic" in note for note in report.notes)

    def test_no_activity_verdict(self):
        report = certify(fig2_circuit())
        assert report.verdict == Verdict.NO_ACTIVITY
        assert report.pairs == {}
        # Theorem 3.1 still certifies omega/2 + 1 = 4.
        assert report.certified_min_period == 4

    def test_per_output_pairs_cover_outputs(self):
        report = certify(c17())
        assert set(report.pairs) == set(c17().outputs)

    def test_single_pair_mode(self):
        report = certify(c17(), per_output_pairs=False)
        assert len(report.pairs) == 1

    def test_statistical_follow_up(self):
        c = carry_skip_adder(8, 4)
        estimated = scale_delays(c, 2)
        report = certify(
            estimated, accurate_circuit=c, statistical_samples=25
        )
        assert report.statistics is not None
        assert len(report.statistics.samples) == 25
        assert "statistical" in report.describe()

    def test_refined_annotation_pipeline(self):
        c = c17()
        accurate = refined_delay_annotation(c, base_scale=1, load_per_fanout=0)
        report = certify(c, accurate_circuit=accurate)
        assert report.verdict == Verdict.CERTIFIED
        assert report.accurate_replay_delay == report.model_replay_delay


#: The phases ``certify`` opens directly, one per step of the flow.
TOP_LEVEL_PHASES = (
    "core.floating",
    "certify.transition",
    "core.certification_pairs",
    "certify.replay",
    "certify.statistical",
)


def test_named_phases_cover_the_call(monkeypatch):
    """Nearly all of a certify call's wall time falls in a named phase,
    so a run's metrics explain where its time went."""
    import time

    from repro.circuits import build_circuit
    from repro.runtime import cache, metrics_scope

    # Cold analyses only: a cache hit would skip the phases under test.
    monkeypatch.setattr(cache, "_GLOBAL", cache.DelayCache(enabled=False))
    circuit = build_circuit("c880")
    with metrics_scope() as metrics:
        start = time.perf_counter()
        certify(
            scale_delays(circuit, 2), accurate_circuit=circuit,
            statistical_samples=4, seed=1,
        )
        wall = time.perf_counter() - start
    named = sum(metrics.phase_seconds(name) for name in TOP_LEVEL_PHASES)
    assert named >= 0.95 * wall, (named, wall, metrics.snapshot()["phases"])
