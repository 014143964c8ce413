"""CACHE002 bad: a cache chosen by indexing a parameter does not key it."""

from repro.core.cache import get_cache


def pooled_downtime(systems, category):
    # next line: the key omits systems, so another pool serves stale data
    return get_cache(systems[0]).summary(
        ("pooled_downtime", category),
        lambda: [
            f.downtime_hours
            for ds in systems
            for f in ds.failures
            if f.category is category
        ],
    )
