"""Unit tests for static shape inference (repro.graph.shapes)."""

import pytest

from repro.graph.ir import Graph, GraphError, Layer, LayerKind, TensorSpec
from repro.graph.shapes import conv_output_hw, infer_shapes, pool_output_hw


def _graph_with(layer: Layer, input_shape=(3, 8, 8)) -> Graph:
    g = Graph("t", [TensorSpec("data", input_shape)])
    g.add_layer(layer)
    for out in layer.outputs:
        g.mark_output(out)
    return g


def _shape_of(layer: Layer, input_shape=(3, 8, 8)):
    g = _graph_with(layer, input_shape)
    return infer_shapes(g)[layer.outputs[0]]


class TestWindowFormulas:
    def test_conv_basic(self):
        assert conv_output_hw(8, 8, 3, 1, 1) == (8, 8)
        assert conv_output_hw(8, 8, 3, 2, 1) == (4, 4)
        assert conv_output_hw(7, 7, 1, 1, 0) == (7, 7)

    def test_conv_collapse_raises(self):
        with pytest.raises(GraphError, match="collapses"):
            conv_output_hw(2, 2, 5, 1, 0)

    def test_pool_ceil_mode(self):
        # 7/2 with k2: ceil((7-2)/2)+1 = 4 (Caffe ceil convention)
        assert pool_output_hw(7, 7, 2, 2, 0) == (4, 4)
        assert pool_output_hw(8, 8, 2, 2, 0) == (4, 4)


class TestPerKindInference:
    def test_convolution(self):
        layer = Layer(
            "c", LayerKind.CONVOLUTION, ["data"], ["out"],
            attrs={"out_channels": 16, "kernel": 3, "stride": 2, "pad": 1},
        )
        assert _shape_of(layer) == (16, 4, 4)

    def test_depthwise_keeps_channels(self):
        layer = Layer(
            "c", LayerKind.DEPTHWISE_CONVOLUTION, ["data"], ["out"],
            attrs={"kernel": 3, "stride": 1, "pad": 1},
        )
        assert _shape_of(layer) == (3, 8, 8)

    def test_deconvolution(self):
        layer = Layer(
            "d", LayerKind.DECONVOLUTION, ["data"], ["out"],
            attrs={"out_channels": 4, "kernel": 2, "stride": 2, "pad": 0},
        )
        assert _shape_of(layer) == (4, 16, 16)

    def test_pooling_global(self):
        layer = Layer(
            "p", LayerKind.POOLING, ["data"], ["out"],
            attrs={"pool": "avg", "global": True},
        )
        assert _shape_of(layer) == (3, 1, 1)

    def test_pooling_same_mode(self):
        layer = Layer(
            "p", LayerKind.POOLING, ["data"], ["out"],
            attrs={"pool": "max", "kernel": 2, "stride": 1,
                   "pad_mode": "same"},
        )
        assert _shape_of(layer) == (3, 8, 8)

    def test_fully_connected(self):
        layer = Layer(
            "f", LayerKind.FULLY_CONNECTED, ["data"], ["out"],
            attrs={"out_units": 10},
        )
        assert _shape_of(layer) == (10,)

    def test_concat_channel_axis(self):
        g = Graph("t", [TensorSpec("a", (2, 4, 4)), TensorSpec("b", (3, 4, 4))])
        g.add_layer(
            Layer("c", LayerKind.CONCAT, ["a", "b"], ["out"],
                  attrs={"axis": 0})
        )
        g.mark_output("out")
        assert infer_shapes(g)["out"] == (5, 4, 4)

    def test_concat_mismatch_raises(self):
        g = Graph("t", [TensorSpec("a", (2, 4, 4)), TensorSpec("b", (3, 5, 4))])
        g.add_layer(
            Layer("c", LayerKind.CONCAT, ["a", "b"], ["out"],
                  attrs={"axis": 0})
        )
        g.mark_output("out")
        with pytest.raises(GraphError, match="incompatible"):
            infer_shapes(g)

    def test_elementwise_requires_equal_shapes(self):
        g = Graph("t", [TensorSpec("a", (2, 4, 4)), TensorSpec("b", (2, 4, 4))])
        g.add_layer(
            Layer("e", LayerKind.ELEMENTWISE, ["a", "b"], ["out"],
                  attrs={"op": "add"})
        )
        g.mark_output("out")
        assert infer_shapes(g)["out"] == (2, 4, 4)

    def test_elementwise_mismatch_raises(self):
        g = Graph("t", [TensorSpec("a", (2, 4, 4)), TensorSpec("b", (3, 4, 4))])
        g.add_layer(
            Layer("e", LayerKind.ELEMENTWISE, ["a", "b"], ["out"],
                  attrs={"op": "add"})
        )
        g.mark_output("out")
        with pytest.raises(GraphError, match="mismatch"):
            infer_shapes(g)

    def test_flatten(self):
        layer = Layer("f", LayerKind.FLATTEN, ["data"], ["out"])
        assert _shape_of(layer) == (192,)

    def test_upsample(self):
        layer = Layer(
            "u", LayerKind.UPSAMPLE, ["data"], ["out"], attrs={"factor": 2}
        )
        assert _shape_of(layer) == (3, 16, 16)

    def test_permute(self):
        layer = Layer(
            "p", LayerKind.PERMUTE, ["data"], ["out"],
            attrs={"order": (1, 2, 0)},
        )
        assert _shape_of(layer) == (8, 8, 3)

    def test_reshape_checks_volume(self):
        good = Layer(
            "r", LayerKind.RESHAPE, ["data"], ["out"],
            attrs={"shape": (3, 64)},
        )
        assert _shape_of(good) == (3, 64)
        bad = Layer(
            "r", LayerKind.RESHAPE, ["data"], ["out"],
            attrs={"shape": (3, 65)},
        )
        with pytest.raises(GraphError, match="elements"):
            _shape_of(bad)

    def test_detection_output(self):
        g = Graph(
            "t", [TensorSpec("loc", (4, 4, 4)), TensorSpec("conf", (3, 4, 4))]
        )
        g.add_layer(
            Layer(
                "d", LayerKind.DETECTION_OUTPUT, ["loc", "conf"], ["out"],
                attrs={"num_classes": 3, "max_boxes": 20},
            )
        )
        g.mark_output("out")
        assert infer_shapes(g)["out"] == (20, 6)

    def test_shape_preserving_kinds(self):
        for kind in (
            LayerKind.ACTIVATION,
            LayerKind.BATCHNORM,
            LayerKind.SCALE,
            LayerKind.LRN,
            LayerKind.SOFTMAX,
            LayerKind.DROPOUT,
            LayerKind.IDENTITY,
            LayerKind.REGION,
        ):
            layer = Layer(
                "x", kind, ["data"], ["out"], attrs={"function": "relu"}
            )
            assert _shape_of(layer) == (3, 8, 8), kind

    def test_merged_conv_splits(self):
        layer = Layer(
            "m", LayerKind.MERGED_CONV, ["data"], ["o1", "o2"],
            attrs={"kernel": 1, "stride": 1, "pad": 0, "splits": [4, 6]},
        )
        g = _graph_with(layer)
        shapes = infer_shapes(g)
        assert shapes["o1"] == (4, 8, 8)
        assert shapes["o2"] == (6, 8, 8)

    def test_merged_conv_split_mismatch_raises(self):
        layer = Layer(
            "m", LayerKind.MERGED_CONV, ["data"], ["o1"],
            attrs={"kernel": 1, "stride": 1, "pad": 0, "splits": [4, 6]},
        )
        g = _graph_with(layer)
        with pytest.raises(GraphError, match="splits"):
            infer_shapes(g)

    def test_conv_on_vector_input_raises(self):
        layer = Layer(
            "c", LayerKind.CONVOLUTION, ["data"], ["out"],
            attrs={"out_channels": 4, "kernel": 1},
        )
        with pytest.raises(GraphError, match="CHW"):
            _shape_of(layer, input_shape=(10,))


class TestWholeGraph:
    def test_small_cnn_shapes(self, small_cnn):
        shapes = infer_shapes(small_cnn)
        assert shapes[small_cnn.output_names[0]] == (10,)
        # Pool halves the 16x16 input.
        pool_out = small_cnn.layer("pool1").outputs[0]
        assert shapes[pool_out] == (16, 8, 8)
