"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(ReproError):
    """A structure has run out of space (e.g. a Cuckoo insertion failed
    after exhausting its eviction budget, or an LSM level cannot accept
    another run)."""


class FilterError(ReproError):
    """A filter was used incorrectly (e.g. deleting a key that was never
    inserted, or querying with an out-of-range level ID), or a persisted
    filter failed its checks."""


class CodebookError(ReproError):
    """A codebook could not be constructed for the requested geometry
    (e.g. the memory budget is too small to represent all combinations
    uniquely, violating 2^B >= |C|)."""


class TransientIOError(ReproError):
    """A storage I/O failed in a way that is expected to clear on retry
    (the simulated analogue of a device hiccup). The storage layer
    absorbs these with bounded retry-with-backoff; one that persists
    past the retry budget escapes to the caller."""


class InjectedCrash(ReproError):
    """A simulated machine crash raised by the fault-injection harness
    at a registered crash point (or mid-write, for torn WAL appends and
    partial run writes). Everything in memory at that moment is
    considered lost; only ``CrashState`` survives."""
