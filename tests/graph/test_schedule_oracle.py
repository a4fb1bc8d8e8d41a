"""The heap scheduler agrees with the insertion-order sweeps of
:mod:`tests.graph.reference_graph` (:mod:`tests.graph.schedule_oracle`).

Random graphs cover what the zoo never builds: shuffled insertion
order, tensors defined twice, layers reading their own output, cycles
and inputs nothing defines.  The zoo models are those of the forward
oracle; CI runs the whole zoo on NX and AGX.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.ir import Graph, GraphError, Layer, LayerKind, TensorSpec

from tests.graph.schedule_oracle import PRECISIONS, mismatches, zoo_graphs

MODELS = ("googlenet", "mobilenet_v1", "fcn_resnet18_cityscapes", "resnet18")


@st.composite
def random_graphs(draw):
    """Up to 10 layers over tensors ``t<i>`` (layer ``i``'s output),
    graph inputs ``x``/``y`` and undefined ``u0``/``u1``, inserted in a
    shuffled order; outputs are re-pointed after insertion, the way a
    buggy pass would, to define tensors twice."""
    n = draw(st.integers(0, 10))
    tensors = ["x", "y", "u0", "u1"] + [f"t{i}" for i in range(n)]
    specs = []
    for i in range(n):
        # Mostly edges from earlier layers, so that many graphs schedule.
        earlier = st.sampled_from(["x"] + [f"t{j}" for j in range(i)])
        inputs = draw(
            st.lists(earlier | st.sampled_from(tensors), max_size=3)
        )
        outputs = [f"t{i}"] + draw(
            st.lists(st.sampled_from(tensors), max_size=1)
        )
        specs.append((f"L{i}", inputs, outputs))
    graph = Graph("rand", [TensorSpec("x", (1,)), TensorSpec("y", (1,))])
    for i in draw(st.permutations(range(n))):
        name, inputs, _ = specs[i]
        graph.add_layer(Layer(name, LayerKind.IDENTITY, inputs, [name]))
    for name, _, outputs in specs:
        graph.layer(name).outputs[:] = outputs
    return graph


@settings(max_examples=400, deadline=None, derandomize=True)
@given(random_graphs())
def test_random_graphs_schedule_like_the_reference(graph):
    assert mismatches(graph) == []


def test_chain_inserted_backwards():
    graph = Graph("chain", [TensorSpec("x", (1,))])
    for i in reversed(range(300)):
        source = f"t{i - 1}" if i else "x"
        graph.add_layer(Layer(f"L{i}", LayerKind.IDENTITY, [source], [f"t{i}"]))
    order = [layer.name for layer in graph.toposort()]
    assert order == [f"L{i}" for i in range(300)]
    assert mismatches(graph) == []


def test_error_names_what_never_gets_defined():
    graph = Graph("broken", [TensorSpec("x", (1,))])
    graph.add_layer(Layer("a", LayerKind.IDENTITY, ["b_out", "u"], ["a_out"]))
    graph.add_layer(Layer("b", LayerKind.IDENTITY, ["a_out"], ["b_out"]))
    graph.add_layer(Layer("c", LayerKind.IDENTITY, ["x"], ["c_out"]))
    with pytest.raises(GraphError) as excinfo:
        graph.toposort()
    assert str(excinfo.value) == (
        "graph 'broken' has a cycle or undefined tensors: "
        "['a_out', 'b_out', 'u']"
    )
    ordered, blocked = graph.schedule()
    assert [layer.name for layer in ordered] == ["c"]
    assert [layer.name for layer in blocked] == ["a", "b"]


@pytest.mark.parametrize("model", MODELS)
def test_zoo_graphs_schedule_like_the_reference(model):
    graphs = dict(zoo_graphs(model, ("NX",), PRECISIONS))
    assert set(graphs) == {"source", "NX fp32", "NX fp16", "NX int8"}
    for label, graph in graphs.items():
        assert mismatches(graph) == [], label
