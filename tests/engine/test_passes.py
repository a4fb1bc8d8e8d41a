"""Tests for the optimizer passes (dead-layer, fusion, merging,
quantization planning)."""

import numpy as np

from repro.engine.passes import (
    calibrate_int8,
    find_mergeable_groups,
    fuse_vertically,
    merge_horizontally,
    plan_quantization,
    remove_dead_layers,
)
from repro.graph.builder import GraphBuilder
from repro.graph.ir import DataType, LayerKind
from repro.runtime.executor import GraphExecutor

RNG = np.random.default_rng(0)


def _x(shape=(4, 3, 16, 16)):
    return RNG.normal(size=shape).astype(np.float32)


class TestDeadLayerRemoval:
    def test_removes_unreachable_branch(self, fresh_small_cnn):
        assert fresh_small_cnn.has_layer("dead_head")
        report = remove_dead_layers(fresh_small_cnn)
        assert not fresh_small_cnn.has_layer("dead_head")
        assert report.changed >= 2  # dead head + dropout bypass
        fresh_small_cnn.validate()  # strict invariant restored

    def test_bypasses_dropout(self, fresh_small_cnn):
        remove_dead_layers(fresh_small_cnn)
        assert fresh_small_cnn.count_kind(LayerKind.DROPOUT) == 0

    def test_preserves_numerics(self, fresh_small_cnn, images16):
        before = GraphExecutor(fresh_small_cnn).run(data=images16).primary()
        remove_dead_layers(fresh_small_cnn)
        after = GraphExecutor(fresh_small_cnn).run(data=images16).primary()
        np.testing.assert_array_equal(before, after)

    def test_transitive_dead_chain(self):
        b = GraphBuilder("t", (3, 8, 8), seed=0)
        live = b.relu("live", b.input_name)
        d1 = b.conv("dead1", b.input_name, out_channels=2, kernel=1)
        b.relu("dead2", d1)  # consumes dead1: both must go
        g = b.finish(live, allow_dead=True)
        remove_dead_layers(g)
        assert len(g) == 1

    def test_noop_on_clean_graph(self):
        b = GraphBuilder("t", (3, 8, 8), seed=0)
        t = b.relu("r", b.input_name)
        g = b.finish(t)
        report = remove_dead_layers(g)
        assert report.changed == 0

    def test_keeps_inert_layer_that_is_an_output(self):
        b = GraphBuilder("t", (3, 8, 8), seed=0)
        t = b.dropout("d", b.input_name)
        g = b.finish(t)
        remove_dead_layers(g)
        assert g.has_layer("d")  # removing it would orphan the output


class TestVerticalFusion:
    def test_conv_bn_relu_collapses(self, fresh_small_cnn):
        remove_dead_layers(fresh_small_cnn)
        report = fuse_vertically(fresh_small_cnn)
        assert report.changed >= 3
        conv1 = fresh_small_cnn.layer("conv1")
        assert conv1.kind is LayerKind.FUSED_CONV_BLOCK
        assert conv1.attrs["activation"] == "relu"
        assert fresh_small_cnn.count_kind(LayerKind.BATCHNORM) == 0

    def test_fusion_preserves_numerics(self, fresh_small_cnn, images16):
        remove_dead_layers(fresh_small_cnn)
        before = GraphExecutor(fresh_small_cnn).run(data=images16).primary()
        fuse_vertically(fresh_small_cnn)
        after = GraphExecutor(fresh_small_cnn).run(data=images16).primary()
        np.testing.assert_allclose(before, after, rtol=1e-4, atol=1e-5)

    def test_fc_relu_fuses(self):
        b = GraphBuilder("t", (3, 8, 8), seed=1)
        t = b.fc("fc", b.input_name, 6)
        t = b.relu("r", t)
        g = b.finish(t)
        fuse_vertically(g)
        assert g.layer("fc").kind is LayerKind.FUSED_FC_BLOCK

    def test_no_fusion_across_multi_consumer_tensor(self):
        """A conv whose output feeds two branches must stay
        materialized (fusing it into one branch would break the
        other)."""
        b = GraphBuilder("t", (3, 8, 8), seed=1)
        t = b.conv("c", b.input_name, out_channels=4, kernel=1)
        r1 = b.relu("r1", t)
        r2 = b.sigmoid("r2", t)
        g = b.finish(r1, r2)
        fuse_vertically(g)
        assert g.layer("c").kind is LayerKind.CONVOLUTION

    def test_no_fusion_into_graph_output(self):
        b = GraphBuilder("t", (3, 8, 8), seed=1)
        t = b.conv("c", b.input_name, out_channels=4, kernel=1)
        r = b.relu("r", t)
        g = b.finish(t, r)  # conv output is itself a graph output
        fuse_vertically(g)
        assert g.layer("c").kind is LayerKind.CONVOLUTION

    def test_scale_folding(self, images16):
        b = GraphBuilder("t", (3, 16, 16), seed=2)
        t = b.conv("c", b.input_name, out_channels=4, kernel=1)
        t = b.scale("s", t)
        t = b.relu("r", t)
        g = b.finish(t)
        before = GraphExecutor(g).run(data=images16).primary()
        fuse_vertically(g)
        assert len(g) == 1
        after = GraphExecutor(g).run(data=images16).primary()
        np.testing.assert_allclose(before, after, rtol=1e-4, atol=1e-5)

    def test_depthwise_bn_relu_folds_in_place(self, images16):
        b = GraphBuilder("t", (3, 16, 16), seed=2)
        t = b.depthwise_conv("dw", b.input_name, kernel=3, pad=1)
        t = b.batchnorm("bn", t)
        t = b.relu("r", t)
        g = b.finish(t)
        before = GraphExecutor(g).run(data=images16).primary()
        fuse_vertically(g)
        dw = g.layer("dw")
        assert dw.kind is LayerKind.DEPTHWISE_CONVOLUTION
        assert dw.attrs["activation"] == "relu"
        after = GraphExecutor(g).run(data=images16).primary()
        np.testing.assert_allclose(before, after, rtol=1e-4, atol=1e-5)


class TestHorizontalMerge:
    def _sibling_graph(self):
        b = GraphBuilder("t", (3, 16, 16), seed=3)
        a = b.conv("ca", b.input_name, out_channels=3, kernel=1)
        c = b.conv("cb", b.input_name, out_channels=5, kernel=1)
        out = b.concat("cat", [a, c])
        return b.finish(out)

    def test_find_groups(self):
        g = self._sibling_graph()
        groups = find_mergeable_groups(g)
        assert len(groups) == 1
        assert {l.name for l in groups[0]} == {"ca", "cb"}

    def test_different_geometry_not_grouped(self):
        b = GraphBuilder("t", (3, 16, 16), seed=3)
        a = b.conv("ca", b.input_name, out_channels=3, kernel=1)
        c = b.conv("cb", b.input_name, out_channels=5, kernel=3, pad=1)
        out = b.concat("cat", [a, c])
        g = b.finish(out)
        assert find_mergeable_groups(g) == []

    def test_merge_preserves_numerics(self, images16):
        g = self._sibling_graph()
        before = GraphExecutor(g).run(data=images16).primary()
        report = merge_horizontally(g)
        assert report.changed == 1
        assert g.count_kind(LayerKind.MERGED_CONV) == 1
        after = GraphExecutor(g).run(data=images16).primary()
        np.testing.assert_allclose(before, after, rtol=1e-5, atol=1e-6)

    def test_decide_callback_can_decline(self):
        g = self._sibling_graph()
        report = merge_horizontally(g, decide=lambda graph, group: False)
        assert report.changed == 0
        assert g.count_kind(LayerKind.MERGED_CONV) == 0
        assert any("declined" in d for d in report.details)

    def test_fused_siblings_with_same_activation_merge(self, images16):
        b = GraphBuilder("t", (3, 16, 16), seed=4)
        a = b.conv("ca", b.input_name, out_channels=3, kernel=1)
        a = b.relu("ra", a)
        c = b.conv("cb", b.input_name, out_channels=5, kernel=1)
        c = b.relu("rb", c)
        out = b.concat("cat", [a, c])
        g = b.finish(out)
        before = GraphExecutor(g).run(data=images16).primary()
        fuse_vertically(g)
        merge_horizontally(g)
        assert g.count_kind(LayerKind.MERGED_CONV) == 1
        after = GraphExecutor(g).run(data=images16).primary()
        np.testing.assert_allclose(before, after, rtol=1e-4, atol=1e-5)

    def test_mixed_activations_not_merged(self):
        b = GraphBuilder("t", (3, 16, 16), seed=4)
        a = b.conv("ca", b.input_name, out_channels=3, kernel=1)
        a = b.relu("ra", a)
        c = b.conv("cb", b.input_name, out_channels=5, kernel=1)
        c = b.sigmoid("rb", c)
        out = b.concat("cat", [a, c])
        g = b.finish(out)
        fuse_vertically(g)
        merge_horizontally(g)
        assert g.count_kind(LayerKind.MERGED_CONV) == 0


class TestQuantization:
    def test_fp16_plan_covers_weighted_layers(self, fresh_small_cnn):
        remove_dead_layers(fresh_small_cnn)
        fuse_vertically(fresh_small_cnn)
        plan = plan_quantization(
            fresh_small_cnn, [DataType.FP16, DataType.FP32]
        )
        conv1 = fresh_small_cnn.layer("conv1")
        assert DataType.FP16 in plan.precisions_for(conv1)
        assert DataType.FP32 in plan.precisions_for(conv1)

    def test_int8_dropped_without_calibration(self, fresh_small_cnn):
        remove_dead_layers(fresh_small_cnn)
        plan = plan_quantization(
            fresh_small_cnn, [DataType.INT8, DataType.FP32], calibration=None
        )
        conv1 = fresh_small_cnn.layer("conv1")
        assert DataType.INT8 not in plan.precisions_for(conv1)

    def test_calibration_produces_positive_scales(self, fresh_small_cnn):
        remove_dead_layers(fresh_small_cnn)
        cache = calibrate_int8(fresh_small_cnn, _x())
        assert cache.covers("conv1")
        assert cache.input_scales["conv1"] > 0
        assert cache.weight_scales["conv1"] > 0

    def test_int8_allowed_with_calibration(self, fresh_small_cnn):
        remove_dead_layers(fresh_small_cnn)
        cache = calibrate_int8(fresh_small_cnn, _x())
        plan = plan_quantization(
            fresh_small_cnn, [DataType.INT8, DataType.FP32], cache
        )
        conv1 = fresh_small_cnn.layer("conv1")
        assert DataType.INT8 in plan.precisions_for(conv1)

    def test_fp32_always_in_menu(self, fresh_small_cnn):
        remove_dead_layers(fresh_small_cnn)
        plan = plan_quantization(fresh_small_cnn, [DataType.FP16])
        for layer in fresh_small_cnn.layers:
            assert DataType.FP32 in plan.precisions_for(layer)
