"""The traced benchmark run rebinds private library names by string
(``numeric_search._ascend``, ``certificate.binom``, ...). A rename would
only show as missing per-layer metrics there, so it is checked here."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np

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


def test_traced_vector_api_calls_build_one_vector_in_three(monkeypatch):
    # vector-api's six calls per case; only the two constructions run the
    # checked entry, so graded_space.vectors_built_per_call reads 1/3
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    lib = SimpleNamespace(
        certificate=certificate,
        expansion=expansion,
        graded_space=graded_space,
        numeric_search=numeric_search,
    )
    tracing.instrument(tracer, lib)
    try:
        calls = 0
        for r in (1, 5, 12):
            sig = graded_space.GradingSignature(r)
            arrays = [np.linspace(-1.0, 2.0, 3) * (i + 1) for i in range(r)]
            x = graded_space.GradedVector(sig, tuple(arrays))
            y = graded_space.GradedVector(sig, tuple(a[::-1] for a in arrays))
            graded_space.hnorm(x)
            graded_space.triangle_defect(x, y)
            graded_space.homogeneity_defect(x, -1.5)
            graded_space.dilate(-1.5, x)
            calls += 6
    finally:
        tracer.restore()
    assert tracer.counters["graded_space.vectors_built"] / calls == 1 / 3
