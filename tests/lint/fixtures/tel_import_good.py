"""TEL002 good: telemetry effects stay inside entry points."""

from repro import telemetry
from repro.telemetry import enable_metrics


def main() -> int:
    enable_metrics()
    telemetry.counter_add("runs", 1)
    return 0


RENDERERS = (("noop", lambda rows: telemetry.counter_add("rows", len(rows))),)
