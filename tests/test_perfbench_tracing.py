"""The benchmark's traced mode wraps qfrm functions by the names its modules
look up; every one of those names must still exist."""

import sys
from pathlib import Path

import qfrm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_install_and_restore():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, qfrm)  # KeyError if a wrapped name is gone
        try:
            assert qfrm.codes.count_even_rank is not qfrm.census.count_even_rank
            qfrm.codes.count_even_rank(2, 4, 2, 1)
            assert [span[0] for span in tracer.spans] == ["census.count"]
        finally:
            tracer.restore()
        assert qfrm.codes.count_even_rank is qfrm.census.count_even_rank
    finally:
        sys.path.remove(str(PERFBENCH))
