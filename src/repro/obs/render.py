"""ASCII rendering over unified telemetry spans.

Per-lane bars for the leaf spans of one time domain: the offload's
``host``/``spi``/``pulp`` lanes in seconds, or the DES cluster's and
OpenMP model's lanes in cycles.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ObservabilityError
from repro.obs.telemetry import WALL, Telemetry

#: Bar glyph per phase base name; idle spans render as dots.
_PHASE_GLYPHS = {
    "binary": "B",
    "boot": "b",
    "input": "<",
    "output": ">",
    "compute": "#",
    "sync": "|",
    "stall": "x",
    "memory": "m",
    "bank": "m",
    "dma": "d",
    "parallel": "=",
    "serial": "-",
}


def render_span_timeline(telemetry: Telemetry, domain: Optional[str] = None,
                         width: int = 72) -> str:
    """Per-lane ASCII timeline of the hub's leaf spans.

    Seconds and cycles share no axis: without a *domain*, the leaf spans
    must all lie in one, or the call raises.
    """
    if width < 10:
        raise ObservabilityError(f"timeline width too small: {width}")
    leaves = [s for s in telemetry.leaf_spans(domain) if s.duration >= 0]
    if not leaves:
        return "(no spans recorded)"
    domains = sorted({s.domain for s in leaves})
    if len(domains) > 1:
        raise ObservabilityError(
            f"leaf spans mix the {' and '.join(domains)} time domains; "
            f"pass domain= to render one")
    start = min(s.start for s in leaves)
    end = max(s.end for s in leaves)
    extent = max(end - start, 1e-30)
    lanes = telemetry.lanes(domain)
    label_width = max(len(lane) for lane in lanes)
    lines: List[str] = []
    for lane in lanes:
        row = [" "] * width
        for span in leaves:
            if span.lane != lane:
                continue
            first = int((span.start - start) / extent * (width - 1))
            last = int((span.end - start) / extent * (width - 1))
            glyph = "." if span.is_idle else _PHASE_GLYPHS.get(
                span.base_name(), "*")
            for column in range(first, max(first, last) + 1):
                row[column] = glyph
        lines.append(f"{lane:<{label_width}} |{''.join(row)}|")
    unit = "s" if domains[0] == WALL else "cycles"
    lines.append(f"{'':<{label_width}}  {start:g} .. {end:g} {unit}, "
                 f"{len(leaves)} spans")
    return "\n".join(lines)
