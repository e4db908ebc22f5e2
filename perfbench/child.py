"""One klsym CLI invocation in a fresh process, timed from inside.

Usage: python3 child.py SPEC_JSON, where the spec holds ``src`` (the
directory that contains the klsym package), ``argv`` (CLI arguments, or
null to stop after the import), ``trace`` (JSONL path, or null for an
untraced run) and ``result`` (where to write the measurements).

On a shared host a core's speed for this code swings by up to 2x within
a second, and the two cores of a 2-core guest swing independently.  The
parent pins itself, and so every child, to one core.  While
``console_main`` runs, a probe thread times a fixed chunk of Python work
on that core every 20 ms; ``run_s`` is the call's wall time rescaled to a
core that runs the chunk in ``REFERENCE_CHUNK_S``, and ``run_wall_s`` is
the raw wall time.  ``burst_speed`` is the same probe for the parent,
which rescales set-up times with it.

The parent notes ``time.monotonic()`` just before starting this process;
``imported_at`` uses the same system-wide clock, so the parent gets the
set-up time as the difference.  Only stdlib modules load before klsym.
"""

import json
import os
import resource
import sys
import threading
import time

REFERENCE_CHUNK_S = 250e-6   # the chunk on an uncontended 2-core Xeon core
PROBE_PERIOD_S = 0.02


def _chunk():
    """Fixed tuple and small-int work, like klsym's field and ring loops."""
    acc = 0
    t = (1, 2, 3, 4)
    for i in range(200):
        u = tuple((a * i + b) % 7 for a, b in zip(t, t[1:] + t[:1]))
        acc += u[0] * u[3] - u[1]
    return acc


def _speed(chunks):
    """Speed relative to the reference over the time the chunks sample.

    Work done is the integral of speed over time, and speed is
    proportional to 1/chunk, so this is the mean of REFERENCE_CHUNK_S/chunk.
    """
    return sum(REFERENCE_CHUNK_S / c for c in chunks) / len(chunks)


def burst_speed(seconds=0.02):
    """This core's speed now, from chunks run back to back."""
    chunks = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.thread_time()
        _chunk()
        chunks.append(time.thread_time() - t0)
    return _speed(chunks)


class SpeedProbe:
    """Times ``_chunk`` every PROBE_PERIOD_S on the core the run uses."""

    def __init__(self):
        self.chunks = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        # Thread CPU time: a chunk preempted by the run's own thread (when
        # numpy drops the GIL, both are runnable on the one core) still
        # reads as the core's speed.
        clock = time.thread_time
        while not self._stop.is_set():
            t0 = clock()
            _chunk()
            self.chunks.append(clock() - t0)
            self._stop.wait(PROBE_PERIOD_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def reference_seconds(self, wall):
        """``wall`` without the probe's own time, at the reference speed."""
        return (wall - sum(self.chunks)) * _speed(self.chunks)


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import klsym.cli
    imported_at = time.monotonic()
    if not os.path.abspath(klsym.cli.__file__).startswith(src + os.sep):
        sys.exit(f"klsym imported from {klsym.cli.__file__}, not {src}")

    out = {"imported_at": imported_at,
           "numpy": sys.modules["numpy"].__version__}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install({name.rpartition(".")[2]: mod
                            for name, mod in list(sys.modules.items())
                            if name.split(".")[0] == "klsym"})
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            out["exit"] = klsym.cli.console_main(spec["argv"])
            out["run_wall_s"] = time.perf_counter() - t0
        out["run_s"] = probe.reference_seconds(out["run_wall_s"])
        if tracer is not None:
            tracer.dump(spec["trace"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w", encoding="ascii") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
