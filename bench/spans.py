"""Per-layer tracing from outside the library.

`install` wraps the public entry points listed in `ENTRY_POINTS` by
rebinding every name under which a `lierine` module holds the original
object (so `mat_rank` is wrapped in `lrcore` and in `twilled` alike), and
`uninstall` puts the originals back.  A wrapped call either opens a span
or only bumps a counter.  Spans nest; a label's self time is the summed
duration of its spans minus the time covered by their child spans.  The
benchmark's own counting of nonzeros before a rank call is subtracted
from the caller's self time too, so it shows as unattributed time.

An entry point that no longer exists is skipped.  A label none of whose
entry points exist is reported in `Tracer.missing`, and its metrics are
left out of the result rather than reported as zero.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple

SPAN, COUNT, RANK = "span", "count", "rank"

# (module, attribute path, label, kind)
ENTRY_POINTS: List[Tuple[str, str, str, str]] = [
    ("cli", "main", "cli.command", SPAN),
    ("cli", "parse_instance", "cli.parse", SPAN),
    ("lrcore", "cohomology_dims", "lrcore.build", SPAN),
    ("lrcore", "lr_validate", "lrcore.validate", SPAN),
    ("lrcore", "module_validate", "lrcore.module_validate", SPAN),
    ("lrcore", "ce_differential", "lrcore.ce_differential", COUNT),
    ("exactla", "mat_rank", "exactla.rank", RANK),
    ("calgebra", "CommAlg.mul_coeffs", "calgebra.mul", COUNT),
    ("gerst", "schouten_bracket", "gerst.schouten", SPAN),
    ("gerst", "gerstenhaber_validate", "gerst.validate", SPAN),
    ("gerst", "generator_from_connection", "gerst.generator", SPAN),
    ("gerst", "generator_validate", "gerst.generator", SPAN),
    ("gerst", "generator_square", "gerst.generator", SPAN),
    ("gerst", "generator_to_connection", "gerst.generator", SPAN),
    ("twilled", "crossed_bracket", "twilled.crossed_bracket", SPAN),
    ("twilled", "is_twilled", "twilled.check", SPAN),
    ("twilled", "bicomplex_square_check", "twilled.check", SPAN),
    ("twilled", "dg_lie_check", "twilled.check", SPAN),
    ("twilled", "dg_gerstenhaber_check", "twilled.check", SPAN),
    ("twilled", "total_complex_cohomology_check", "twilled.total_complex", SPAN),
    ("bialg", "bialgebra_check", "bialg.check", SPAN),
    ("bialg", "semidirect_duality_check", "bialg.check", SPAN),
    ("bialg", "twilled_vs_bialgebra_check", "bialg.check", SPAN),
    ("bialg", "matched_pair_from_bialgebra", "bialg.construct", SPAN),
    ("bialg", "semidirect_dual_pair", "bialg.construct", SPAN),
    ("bialg", "semidirect_product", "bialg.construct", SPAN),
    ("bialg", "dual_module_action", "bialg.construct", SPAN),
]


class Tracer:
    """Spans and counts, kept in memory until the run ends."""

    def __init__(self, entry_points: List[Tuple[str, str, str, str]] = ENTRY_POINTS) -> None:
        self.entry_points = entry_points
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        self.rank_entries = 0
        self.rank_nnz = 0
        self.count_s = 0.0  # time spent counting nonzeros, booked to no layer
        # (label, start, end, parent index or -1), in order of opening
        self.spans: List[Tuple[str, float, float, int]] = []
        self._open: List[List] = []  # [span index, child seconds]
        self.installed: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, label: str, kind: str, fn: Callable) -> Callable:
        calls = self.calls
        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)
            return counted

        self.self_s.setdefault(label, 0.0)
        spans, stack, self_s = self.spans, self._open, self.self_s

        def spanned(*args, **kwargs):
            calls[label] += 1
            if kind == RANK and args:
                counting = perf_counter()
                self._count_matrix(args[0])
                counting = perf_counter() - counting
                self.count_s += counting
                if stack:  # not the caller's self time: it lands in unattributed
                    stack[-1][1] += counting
            idx = len(spans)
            spans.append((label, 0.0, 0.0, stack[-1][0] if stack else -1))
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[label] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (label, start, end, spans[idx][3])
        return spanned

    def _count_matrix(self, m) -> None:
        entries = getattr(m, "entries", None)
        rows, cols = getattr(m, "rows", None), getattr(m, "cols", None)
        if entries is None or rows is None or cols is None:
            return
        self.rank_entries += rows * cols
        self.rank_nnz += sum(1 for e in entries if e != 0)

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "lierine" or n.startswith("lierine.")}
        for mod_name, path, label, kind in self.entry_points:
            owner = mods.get(f"lierine.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            if label not in self.installed:
                self.installed.append(label)
            wrapper = self._wrap(label, kind, orig)
            if outer:
                self._rebind(owner, attr, orig, wrapper)
                continue
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, name, orig, wrapper)

    def _rebind(self, owner, name: str, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    @property
    def missing(self) -> List[str]:
        """Labels none of whose entry points exist any more."""
        out = []
        for _, _, label, _ in self.entry_points:
            if label not in self.installed and label not in out:
                out.append(label)
        return out

    def attributed_s(self) -> float:
        return sum(self.self_s.values())
