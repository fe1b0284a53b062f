"""Spans recorded from outside the package, around calls into each layer.

`Tracer.install` replaces the public functions that `chowcert.pipeline`
calls with timing wrappers.  `pipeline` binds most of them into its own
namespace at import time, so the wrappers go on the attributes of
`chowcert.pipeline` (and of `chowcert.geometry` for `tangent_basis`,
which `terracini_matrix` looks up there).  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    call: int  # index of the benchmark call the span belongs to
    failed: bool = False
    info: dict | None = None


def _rref_info(args, result):
    return {
        "rows": args[0].rows,
        "cols": args[0].cols,
        "rank": None if result is None else result.rank,
    }


def _format_info(args, result):
    return {"bytes": None if result is None else len(result.encode())}


def _parse_info(args, result):
    return {"bytes": len(args[0].encode())}


def _targets(chowcert):
    """(owner, attribute, span name, describer) for every wrapped entry point.

    A describer maps the call's arguments and result (None when the call
    raised) to the span's `info`.
    """
    return [
        (chowcert.pipeline, "certify", "pipeline.certify", None),
        (chowcert.pipeline, "sample_point", "geometry.sample", None),
        (chowcert.pipeline, "terracini_matrix", "geometry.terracini", None),
        (chowcert.geometry, "tangent_basis", "geometry.tangent_basis", None),
        (chowcert.matrix.FfMatrix, "rref", "matrix.rref", _rref_info),
        # the pipeline ranks the curvature form with FfMatrix.rank, which
        # runs an rref of its own: that rref becomes a child of this span
        (chowcert.matrix.FfMatrix, "rank", "matrix.hessian_rank", None),
        (chowcert.pipeline, "null_vector", "matrix.null_vector", None),
        (chowcert.pipeline, "hessian_at", "geometry.hessian", None),
        (
            chowcert.certificate,
            "format_certificate",
            "certificate.format",
            _format_info,
        ),
        (chowcert.pipeline, "parse_certificate", "certificate.parse", _parse_info),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.call = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.call))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def root(self, name: str, fn, *args):
        """Run one benchmark call under a root span."""
        self.call += 1
        return self._wrap(name, fn, None)(*args)

    def _wrap(self, name: str, fn, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                self.spans[index].failed = True
                raise
            finally:
                self._close(index)
                if describe is not None:
                    self.spans[index].info = describe(args, result)

        return wrapper

    def install(self, chowcert) -> None:
        for owner, attr, name, describe in _targets(chowcert):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, describe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time of direct children."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
            if span.parent >= 0:
                parent = self.spans[span.parent]
                out[parent.name] = out.get(parent.name, 0.0) - (span.end - span.start)
        return out
