"""TEL001 bad: unguarded registry mutators inside loops."""

from repro.telemetry import registry
from repro.telemetry.metrics import REGISTRY


def count_events(events):
    for event in events:
        REGISTRY.counter_add("events.seen", 1)  # line 9: always records
    total = 0
    while total < len(events):
        registry().observe("events.batch", total)  # line 12: always records
        total += 1
    return total
