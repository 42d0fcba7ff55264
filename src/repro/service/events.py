"""The admission service's event-queue name, bound to the one event queue.

:func:`repro.service.server.replay_trace` queues its departures on
:class:`repro.simulation.engine.EventQueue` (time order, FIFO among equal
times).  The benchmark harness times ``ServiceEventQueue.push`` and
``ServiceEventQueue.pop`` by this name (``bench/layers.py``), so the name
stays bound to that class until a benchmark change moves those wrappers
and deletes this module.
"""

from repro.simulation.engine import EventQueue as ServiceEventQueue

__all__ = ["ServiceEventQueue"]
