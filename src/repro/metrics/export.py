"""Exporter: Prometheus text exposition and its round-trip parser.

The exposition format follows the Prometheus text format v0.0.4:
``# HELP`` / ``# TYPE`` per family, one ``name{labels} value`` sample
per series, histograms expanded to cumulative ``_bucket`` samples
(with the mandatory ``le="+Inf"``) plus ``_sum`` and ``_count``.
Label values escape backslash, double-quote and newline.

A :func:`parse_exposition` round-trip parser ships alongside so tests
(and downstream tools) can consume a scrape without a real Prometheus:
it returns every sample as ``(name, labels, value)`` triples.

Exemplars: histogram buckets that recorded one export an
OpenMetrics-style suffix on their cumulative ``_bucket`` line —
``... 42 # {trace_id="t-7"} 1234`` — linking the bucket straight to a
request's distributed-trace timeline. :func:`parse_exposition`
tolerates (and strips) the suffix, keeping its 3-tuple shape.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .registry import MetricsRegistry

_ESCAPES = (("\\", "\\\\"), ("\"", "\\\""), ("\n", "\\n"))


def _escape(value: str) -> str:
    for raw, escaped in _ESCAPES:
        value = value.replace(raw, escaped)
    return value


def _unescape(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", "\"": "\"", "n": "\n"}.get(
                nxt, ch + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_labels(names, values, extra: str = "") -> str:
    parts = [f'{n}="{_escape(str(v))}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_exemplar(entry) -> str:
    """OpenMetrics exemplar suffix for one bucket line ('' if none)."""
    if entry is None:
        return ""
    trace_id, value = entry
    return (f' # {{trace_id="{_escape(str(trace_id))}"}} '
            f'{_format_value(value)}')


def to_prometheus(registry: MetricsRegistry,
                  namespace: str = "repro") -> str:
    """Render every family as Prometheus text exposition.

    Runs the scrape-time collectors first, so occupancy gauges are
    current as of ``registry.env.now``. Families with no series yet
    are omitted (Prometheus convention: absent, not zero).
    """
    prefix = f"{namespace}_" if namespace else ""
    lines: List[str] = []
    for family in registry.collect():
        series = family.series()
        if not series:
            continue
        name = f"{prefix}{family.name}"
        lines.append(f"# HELP {name} {family.help or family.name}")
        lines.append(f"# TYPE {name} {family.kind}")
        label_names = family.label_names
        if family.kind == "histogram":
            for values, child in series:
                exemplars = child.exemplars or {}
                cumulative = 0
                for index, (bound, count) in enumerate(
                        zip(child.bounds, child.counts)):
                    cumulative += count
                    labels = _format_labels(label_names, values,
                                            extra=f'le="{bound}"')
                    lines.append(f"{name}_bucket{labels} {cumulative}"
                                 + _format_exemplar(
                                     exemplars.get(index)))
                labels = _format_labels(label_names, values,
                                        extra='le="+Inf"')
                lines.append(f"{name}_bucket{labels} {child.count}"
                             + _format_exemplar(
                                 exemplars.get(len(child.bounds))))
                labels = _format_labels(label_names, values)
                lines.append(
                    f"{name}_sum{labels} {_format_value(child.sum)}")
                lines.append(f"{name}_count{labels} {child.count}")
        else:
            for values, child in series:
                labels = _format_labels(label_names, values)
                lines.append(
                    f"{name}{labels} {_format_value(child.value)}")
    return "\n".join(lines) + "\n"


Sample = Tuple[str, Dict[str, str], float]


def _parse_labels(body: str, raw: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq]
        if body[eq + 1] != "\"":
            raise ValueError(f"unquoted label value in {raw!r}")
        j = eq + 2
        chunk = []
        while body[j] != "\"":
            if body[j] == "\\":
                chunk.append(body[j:j + 2])
                j += 2
            else:
                chunk.append(body[j])
                j += 1
        labels[key] = _unescape("".join(chunk))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


def _parse_samples(text: str):
    """Yield ``(name, labels, value, exemplar)`` for every sample line;
    ``exemplar`` is ``None`` or ``(exemplar_labels, exemplar_value)``."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            body, rest = rest.split("}", 1)
            labels = _parse_labels(body, raw)
            value_text = rest.strip()
        else:
            name, value_text = line.split(None, 1)
            labels = {}
        exemplar = None
        if " # " in value_text:
            # OpenMetrics exemplar suffix: `value # {labels} exvalue`.
            value_text, suffix = value_text.split(" # ", 1)
            value_text = value_text.strip()
            suffix = suffix.strip()
            if not suffix.startswith("{") or "}" not in suffix:
                raise ValueError(f"malformed exemplar in {raw!r}")
            ex_body, ex_rest = suffix[1:].split("}", 1)
            exemplar = (_parse_labels(ex_body, raw),
                        float(ex_rest.strip()))
        if not name or not value_text:
            raise ValueError(f"malformed sample line {raw!r}")
        yield name, labels, float(value_text), exemplar


def parse_exposition(text: str) -> List[Sample]:
    """Parse exposition text back into ``(name, labels, value)`` samples.

    A deliberately small parser covering what :func:`to_prometheus`
    emits (which is valid text format v0.0.4 plus OpenMetrics exemplar
    suffixes, which are stripped here):
    comments/HELP/TYPE lines are skipped, escaped label values are
    unescaped. Raises ``ValueError`` on a malformed sample line, so
    tests that round-trip a scrape through this are format-conformance
    tests too.
    """
    return [(name, labels, value)
            for name, labels, value, _ in _parse_samples(text)]
