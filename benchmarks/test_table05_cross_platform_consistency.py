"""Paper Table V: prediction differences across platform engines.

Three engines per platform are built from the same frozen model; every
NXi-AGXj pair is compared on identical inputs.  The paper's Finding 2
shape: every pairing shows a small non-zero number of differing
predictions (0.1-0.8% of the prediction count).
"""

from conftest import print_table

#: inception-v4 is numerically heavy; it gets a reduced image count at
#: the default scale (full scale via REPRO_FULL=1 uses everything).
MODELS = ("resnet18", "vgg16", "inception_v4", "alexnet")


def test_table05_cross_platform_consistency(
    benchmark, trained_farm, dataset
):
    from conftest import shared_consistency_reports

    reports = benchmark.pedantic(
        lambda: shared_consistency_reports(trained_farm, dataset, MODELS),
        rounds=1,
        iterations=1,
    )
    pairs = [f"NX{i}-AGX{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    header = f"{'model':<14}{'total':>7}" + "".join(
        f"{p:>10}" for p in pairs
    )
    rows = []
    for model, report in reports.items():
        rows.append(
            f"{model:<14}{report.total_predictions:>7}"
            + "".join(f"{report.cross_platform[p]:>10}" for p in pairs)
        )
    print_table(
        "Table V — Differing predictions across cross-platform engine "
        "pairs",
        header,
        rows,
    )
    for model, report in reports.items():
        counts = list(report.cross_platform.values())
        # Finding 2: engines disagree on some inputs in (nearly) every
        # pairing.  At the reduced default prediction count a pair can
        # land on zero by chance; the paper's 60k-prediction scale
        # (REPRO_FULL=1) fills in.
        nonzero = sum(1 for c in counts if c > 0)
        assert nonzero >= 6, (model, counts)
        # Disagreements are a small fraction (paper: 0.1-0.8%; our
        # linear-probe classifiers have thinner margins than trained
        # checkpoints, so the deep inception-v4 flips a few percent).
        worst = max(counts) / report.total_predictions
        cap = 0.15 if model == "inception_v4" else 0.05
        assert worst < cap, (model, worst)
