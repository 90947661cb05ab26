"""The unit clock: raw seconds read against the reference kernel.

Every unit of work runs between two *readings* — timed runs — of the
reference kernel (:mod:`perfbench.reference`); the reading after one
unit is the reading before the next. A unit's normalised seconds are

    raw seconds * NOMINAL_SECONDS / mean(reading before, reading after)

and a phase's metric sums them over its units. When the two readings
disagree by more than ``DISAGREE`` (one of them was most likely
preempted) the unit is *flagged*: a third reading is taken, the unit is
read against the median of the three, and the flag is reported instead
of averaged away.
"""

import resource
import statistics
import time

from perfbench.reference import NOMINAL_SECONDS, time_reference

#: Reading ratio (slower / faster) above which a unit is flagged.
DISAGREE = 1.5


class Unit:
    """One timed unit of work and the readings around it."""

    __slots__ = ("phase", "name", "raw", "before", "after", "extra", "error")

    def __init__(self, phase, name, raw, before, after, extra=None, error=None):
        self.phase = phase
        self.name = name
        self.raw = raw
        self.before = before
        self.after = after
        self.extra = extra
        self.error = error

    @property
    def flagged(self):
        return self.extra is not None

    @property
    def reference(self):
        """Kernel seconds this unit is read against."""
        if self.extra is None:
            return (self.before + self.after) / 2.0
        return statistics.median((self.before, self.after, self.extra))

    @property
    def factor(self):
        """Multiplier from raw to normalised seconds."""
        return NOMINAL_SECONDS / self.reference

    @property
    def seconds(self):
        return self.raw * self.factor


class UnitClock:
    """Runs units of work and keeps their readings; ``reference`` takes
    one reading."""

    def __init__(self, reference=time_reference):
        self._reference = reference
        self.units = []
        self.references = []
        #: Optional tracer hook: ``wrap(work)`` before and ``fold(unit)``
        #: after each unit (see :class:`perfbench.layers.LayerTrace`).
        self.observer = None
        self._last = self._time_reference()

    def _time_reference(self):
        seconds = self._reference()
        self.references.append(seconds)
        return seconds

    def run(self, phase, name, work):
        """Time ``work()`` as one unit; returns ``(unit, value)``.

        An exception inside the unit is recorded on ``unit.error`` (a
        failed operation) and the value is ``None``.
        """
        value = None
        error = None
        observer = self.observer
        if observer is not None:
            work = observer.wrap(work)
        start = time.perf_counter()
        try:
            value = work()
        except Exception as exc:  # a failing unit is a failed operation
            error = "%s: %s" % (type(exc).__name__, exc)
        raw = time.perf_counter() - start
        before = self._last
        after = self._time_reference()
        extra = None
        if max(before, after) > DISAGREE * min(before, after):
            extra = self._time_reference()
        self._last = extra if extra is not None else after
        unit = Unit(phase, name, raw, before, after, extra, error)
        self.units.append(unit)
        if observer is not None:
            observer.fold(unit)
        return unit, value

    def phase(self, phase):
        return [unit for unit in self.units if unit.phase == phase]

    def phase_seconds(self, phase, raw=False):
        """Sum over a phase's distinct unit names of the median time of
        that name's repeats (one repeat per name in most phases)."""
        by_name = {}
        for unit in self.phase(phase):
            by_name.setdefault(unit.name, []).append(
                unit.raw if raw else unit.seconds
            )
        return sum(statistics.median(times) for times in by_name.values())

    def diagnostics(self):
        """Host figures for the run: speed factor, kernel spread, flags."""
        q1, median, q3 = _quartiles(self.references)
        return {
            "host.speed_factor": median / NOMINAL_SECONDS,
            "reference.median_ms": median * 1e3,
            "reference.iqr_pct": 100.0 * (q3 - q1) / median,
            "reference.readings": len(self.references),
            "units": len(self.units),
            "units.flagged": sum(1 for unit in self.units if unit.flagged),
        }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def peak_rss_mb():
    """Peak resident set size of this process, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
