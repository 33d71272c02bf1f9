"""The benchmark in ``perfbench/`` wraps glocal functions by module and
name; every binding it lists must exist and be the object its defining
module exports, or every benchmark run fails."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert spans.untouched(spans.snapshot()) == []
