"""The traced benchmark run rebinds private library names by string
(``numeric_search._ascend``, ``certificate.binom``, ...). A rename would
only show as missing per-layer metrics there, so it is checked here."""

from pathlib import Path
from types import SimpleNamespace

from gradenorm import certificate, expansion, graded_space, numeric_search
from gradenorm.numeric_search import SearchConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_tracing_hooks_find_every_library_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    lib = SimpleNamespace(
        certificate=certificate,
        expansion=expansion,
        graded_space=graded_space,
        numeric_search=numeric_search,
    )
    original = numeric_search._batch_defects
    tracer = tracing.Tracer()
    tracing.instrument(tracer, lib)
    try:
        assert tracer.missing == {}
        numeric_search.hunt(SearchConfig(r=2, sample_count=500, ascent_steps=5))
        assert tracer.counters["numeric_search.batch_defects.calls"] > 0
        assert tracer.totals["numeric_search.scan"][0] > 0
        assert tracer.totals["numeric_search.ascent"][0] > 0
    finally:
        tracer.restore()
    assert numeric_search._batch_defects is original
