"""The traced benchmark wraps library names at run time (see
`perfbench/spans.py`); installing its tracer fails when one of them is gone,
so a refactor that drops such a name fails here, not only in a traced run."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from causal_rag import embedding, gateway, runner  # noqa: E402

from perfbench.spans import Tracer  # noqa: E402


def test_tracer_installs_over_the_library_and_uninstalls():
    originals = (runner.request_hash, runner.input_connectives,
                 gateway.Transcript.append, embedding.EmbeddingCache.get)
    tracer = Tracer()
    try:
        tracer.install()
        assert runner.input_connectives is not originals[1]
    finally:
        tracer.uninstall()
    assert (runner.request_hash, runner.input_connectives,
            gateway.Transcript.append, embedding.EmbeddingCache.get) == originals
