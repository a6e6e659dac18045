"""Every attribute that ``perfbench/spans.py`` wraps exists, and every
work-count function it attaches binds to the wrapped call's arguments and
result.  A missing name breaks every traced benchmark run while untraced
runs stay green."""

import importlib.util
import sys
from pathlib import Path

from bijumble import jumbled, regularity
from bijumble.graphs import complete_bipartite

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_targets_install_and_count(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look themselves up here
    spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    recorder.install()
    try:
        pair = complete_bipartite(3, 4)
        regularity.exact_regularity(pair, 0.5, 0.5)
        regularity.sampled_regularity(pair, 0.5, 0.5, trials=2, seed=1)
        jumbled.exact_jumble_gamma(pair, 0.5)
        jumbled.spectral_jumble_bound(pair, 0.5)
    finally:
        recorder.uninstall()
    counts = {span.name: span.counts for span in recorder.spans}
    assert counts["regularity.exact"] == {"subsets": 4}
    assert counts["regularity.sampled"] == {"trials": 2}
    assert counts["jumbled.exact"] == {"subsets": 7}
    assert counts["jumbled.spectral"]["iterations"] in (1, 2)
