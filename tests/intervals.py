"""Exact interval relations that only the tests need."""


def overlaps(a, b) -> bool:
    """Two DyadicIntervals share a point."""
    return a.lo <= b.hi and b.lo <= a.hi


def contains_interval(outer, inner) -> bool:
    """`inner` lies inside `outer`."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi
