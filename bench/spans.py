"""In-memory spans around the benchmark's own calls into ``obsmask``.

The benchmark routes every library call through ``Calls.call``.  The plain
``Calls`` only forwards the call; ``SpanRecorder`` also records a span
(name, start, end, parent op span, op id) and is used only in traced runs, so
end-to-end numbers never pay for it.
"""

from __future__ import annotations

import json
from time import perf_counter


class Calls:
    """Untraced call path: forwards each call unchanged."""

    def begin_op(self, kind: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class SpanRecorder(Calls):
    """Records one span per op and one child span per library call."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span_id, parent_id, op_id, name, start, end)
        self._op_id = -1
        self._op_span = None
        self._op_start = 0.0
        self._op_name = ""

    def begin_op(self, kind: str) -> None:
        self._op_id += 1
        self._op_span = len(self.spans)
        self.spans.append(None)  # placeholder, filled by end_op
        self._op_name = f"op.{kind}"
        self._op_start = perf_counter()

    def end_op(self) -> None:
        self.spans[self._op_span] = (
            self._op_span, None, self._op_id, self._op_name, self._op_start, perf_counter()
        )
        self._op_span = None

    def call(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (len(self.spans), self._op_span, self._op_id, name, start, perf_counter())
            )

    def module_totals(self) -> dict[str, tuple[int, float]]:
        """Per module (first name component): (calls, busy seconds)."""
        totals: dict[str, list] = {}
        for span in self.spans:
            if span is None or span[1] is None:
                continue
            module = span[3].split(".", 1)[0]
            entry = totals.setdefault(module, [0, 0.0])
            entry[0] += 1
            entry[1] += span[5] - span[4]
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write(self, path) -> None:
        keys = ("span", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
