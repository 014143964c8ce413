"""CACHE002 good: only the bare-name owner of get_cache is keyed by it."""

import hashlib

from repro.core.cache import get_cache


def system_downtime(ds, category):
    return get_cache(ds).summary(
        ("downtime", category),
        lambda: [f.downtime_hours for f in ds.failures if f.category is category],
    )


def pooled_downtime(systems, category):
    hours = [
        f.downtime_hours
        for ds in systems
        for f in ds.failures
        if f.category is category
    ]
    digest = hashlib.sha256(repr(hours).encode()).hexdigest()
    return get_cache(systems[0]).summary(
        ("pooled_downtime", category, digest), lambda: sum(hours)
    )
