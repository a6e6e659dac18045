"""Every attribute that ``perfbench/spans.py`` wraps exists, and every
work-count function it attaches binds to the wrapped call's arguments and
result.  A missing name breaks every traced benchmark run while untraced
runs stay green, and so does a caller that binds a wrapped name at import
time: its calls never reach the wrapper."""

import importlib.util
import sys
from pathlib import Path

import pytest

from bijumble import embeddings, experiments, jumbled, quads, regularity
from bijumble.graphs import Graph, complete_bipartite
from bijumble.patterns import Pattern

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def recorder(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look themselves up here
    spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    recorder.install()
    try:
        yield recorder
    finally:
        recorder.uninstall()


def test_span_targets_install_and_count(recorder):
    pair = complete_bipartite(3, 4)
    regularity.exact_regularity(pair, 0.5, 0.5)
    regularity.sampled_regularity(pair, 0.5, 0.5, trials=2, seed=1)
    jumbled.exact_jumble_gamma(pair, 0.5)
    jumbled.spectral_jumble_bound(pair, 0.5)
    counts = {span.name: span.counts for span in recorder.spans}
    assert counts["regularity.exact"] == {"subsets": 4}
    assert counts["regularity.sampled"] == {"trials": 2}
    assert counts["jumbled.exact"] == {"subsets": 7}
    assert counts["jumbled.spectral"]["iterations"] in (1, 2)


def test_spans_see_the_experiment_and_every_certificate(recorder):
    def spectral_calls():
        return sum(span.name == "jumbled.spectral" for span in recorder.spans)

    plan = experiments.ExperimentPlan("one_sided", 5, 8, 8, 0.5, 0.5, 0.3, seed=3, trials=2)
    plan.run()  # one-sided evidence: the X x Y and Y x Z certificates
    inheritance = [span for span in recorder.spans if span.name == "experiments.inheritance"]
    assert [span.counts for span in inheritance] == [{"x": 5}]
    assert spectral_calls() == 2

    pair = complete_bipartite(4, 4)
    quads.c4_regular_bijumbled_audit(pair, 0.25, 1.0, 0.5, c=None)
    assert spectral_calls() == 3
    regularity.extend_and_check(pair, pair, 0.09, 1.0, 0.5, c=0.09**3 / 10)
    assert spectral_calls() == 4

    edge = Pattern.identity(Graph.from_edges(2, [(0, 1)]))
    instance = embeddings.PartiteInstance(edge, pair.graph, (pair.left, pair.right))
    suffix = embeddings.SuffixInstance(instance, 0, {0: pair.left, 1: pair.right})
    embeddings.suffix_bound_audit(suffix, 0.05, 0.5, beta=None)  # one certificate per pattern edge
    assert spectral_calls() == 5
