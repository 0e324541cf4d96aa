"""The injectors: one thread sends on a schedule drawn in advance
(:func:`run_phase`), or one request at a time (:func:`run_closed`).

On a schedule, each operation is timed from the moment it was *due*,
not from when it was sent, so a stalled injector or a backed-up
service shows up as latency on every later operation (no coordinated
omission).  Completion callbacks stamp the finish time on whichever
thread resolves the future; the scheduled injector never waits for an
answer before sending the next operation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

#: Longest a phase may take to drain after its last send.
DRAIN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Raised:
    """Stands in for the response of an operation whose call raised."""

    error: BaseException
    status: str = "failed"
    ok: bool = False


@dataclass
class PhaseRecord:
    """What one phase produced, per operation in schedule order."""

    name: str
    #: Seconds from due time to completion.
    latency: np.ndarray
    #: Seconds the injector sent late.
    lag: np.ndarray
    responses: list
    #: Phase start to the last completion, drain included.
    elapsed: float


def run_phase(phase, send) -> PhaseRecord:
    """Send ``send(i)`` for every operation ``i`` of ``phase`` on time.

    ``send`` returns a :class:`concurrent.futures.Future`; its result is
    kept as the operation's response.
    """
    n = len(phase)
    finished = np.full(n, np.nan)
    lag = np.zeros(n)
    responses: list = [None] * n
    lock = threading.Lock()
    all_done = threading.Event()
    outstanding = [n]
    if n == 0:
        all_done.set()

    def on_done(i, future):
        finished[i] = time.perf_counter()
        try:
            responses[i] = future.result()
        except Exception as exc:  # counted as a failed operation
            responses[i] = Raised(exc)
        with lock:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                all_done.set()

    start = time.perf_counter() + 0.005
    due = start + phase.times
    for i in range(n):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lag[i] = time.perf_counter() - due[i]
        send(i).add_done_callback(lambda future, i=i: on_done(i, future))
    if not all_done.wait(DRAIN_TIMEOUT_S):
        raise SystemExit(
            f"error: phase {phase.name} did not drain within "
            f"{DRAIN_TIMEOUT_S:.0f} s ({outstanding[0]} of {n} outstanding)"
        )
    return PhaseRecord(
        name=phase.name,
        latency=finished - due,
        lag=np.maximum(lag, 0.0),
        responses=responses,
        elapsed=float(np.max(finished) - start) if n else 0.0,
    )


def run_closed(phase, send) -> PhaseRecord:
    """Send ``send(i)`` for every operation ``i`` of ``phase`` in order,
    each as soon as the previous one has answered: one client with one
    request outstanding.  Latency runs from the send to the completion
    callback, so the service never sits idle between requests and the
    time to wake this thread is not counted.
    """
    n = len(phase)
    latency = np.zeros(n)
    responses: list = [None] * n
    start = time.perf_counter()
    for i in range(n):
        done = threading.Event()
        finished = [0.0]

        def on_done(_future, finished=finished, done=done):
            finished[0] = time.perf_counter()
            done.set()

        sent = time.perf_counter()
        future = send(i)
        future.add_done_callback(on_done)
        if not done.wait(DRAIN_TIMEOUT_S):
            raise SystemExit(
                f"error: operation {i} of phase {phase.name} did not answer "
                f"within {DRAIN_TIMEOUT_S:.0f} s"
            )
        latency[i] = finished[0] - sent
        try:
            responses[i] = future.result()
        except Exception as exc:  # counted as a failed operation
            responses[i] = Raised(exc)
    return PhaseRecord(
        name=phase.name,
        latency=latency,
        lag=np.zeros(n),
        responses=responses,
        elapsed=time.perf_counter() - start,
    )
