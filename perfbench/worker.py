"""One pass of a workload in a fresh process: python3 perfbench/worker.py < job.json

The job (JSON on stdin) names the source tree, the ops and whether to
trace or check.  The worker times the import of ``momentbounds.cli`` and
the building of its parser (the set-up a user pays on every command),
then runs the ops one after another through ``cli.main`` with stdout and
stderr captured, and prints one JSON result line.  Checks run after the
timed pass.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter


PROBE_EVERY_S = 0.1
# Time of either probe on the reference core.
REFERENCE_PROBE_S = 0.0015


def loop_probe_s() -> float:
    """Time of a fixed interpreter loop, in seconds: the probe for set-up,
    which runs before numpy and scipy are imported."""
    t = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return perf_counter() - t


def mixed_probe_s() -> float:
    """Time of a fixed interpreter loop, numpy calls and a QUADPACK integral,
    in seconds: the probe for passes.

    The mix follows what the ops spend their time on, so the probe slows
    with the host about as much as they do.  It keeps to a few kilobytes
    of data, so what the ops leave in the caches hardly changes its time.
    """
    import numpy as np
    from scipy import integrate

    t = perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i
    x = np.linspace(0.0, 1.0, 1_000)
    for _ in range(30):
        np.sin(x * 3.1).dot(x)
    integrate.quad(_probe_integrand, 0.0, 40.0, limit=400, epsabs=1e-12)
    return perf_counter() - t


def _probe_integrand(t: float) -> float:
    return math.cos(7.0 * t) / (1.0 + t * t)


class SpeedClock:
    """Elapsed time, also rescaled to the reference core speed.

    The host gives this process a core whose throughput swings by up to
    2x, both within a second and from one minute to the next, so raw times
    of the same work differ that much between runs.  While the clock runs, a timer signal
    interrupts the process every ``PROBE_EVERY_S`` to time ``probe``,
    which does not depend on the code under test.  Each stretch between two
    probes counts its length times REFERENCE_PROBE_S / probe time,
    averaged over its two ends: the time the work would have taken on a
    core that runs the probe in REFERENCE_PROBE_S.  The probes' own time is left out of both
    sums.
    """

    def __init__(self, probe):
        self._probe_s = probe
        self.points: list[tuple[float, float, float]] = []  # start, end, probe time
        self._probing = False

    def probe(self, *_signal) -> int:
        if not self._probing:  # a timer signal can arrive during a probe
            self._probing = True
            start = perf_counter()
            took = self._probe_s()
            self.points.append((start, perf_counter(), took))
            self._probing = False
        return len(self.points) - 1

    def start(self, timer: bool = True) -> None:
        self.probe()
        if timer:
            signal.signal(signal.SIGALRM, self.probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def seconds(self, first: int = 0, last: int | None = None) -> tuple[float, float]:
        """Raw and rescaled time between probe ``first`` and probe ``last``."""
        points = self.points[first:None if last is None else last + 1]
        raw = scaled = 0.0
        for (_, end, before), (start, _, after) in zip(points, points[1:]):
            raw += start - end
            scaled += (start - end) * REFERENCE_PROBE_S * (1 / before + 1 / after) / 2
        return raw, scaled


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a command line by exiting
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - an escaped exception is a failed op
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def main() -> None:
    job = json.loads(sys.stdin.read())
    src = Path(job["src"])
    sys.path.insert(0, str(src))
    clock = SpeedClock(loop_probe_s)
    clock.start()
    from momentbounds import cli

    imported = clock.probe()
    cli.build_parser()
    clock.stop()
    import momentbounds

    if Path(momentbounds.__file__).resolve().parent != (src / "momentbounds").resolve():
        raise SystemExit(f"imported {momentbounds.__file__}, not the tree under {src}")
    result = {"import_s": clock.seconds(0, imported)[1], "setup_s": clock.seconds()[1],
              "setup_raw_s": clock.seconds()[0], "probes_s": [p[2] for p in clock.points]}
    if job.get("setup_only"):
        print(json.dumps(result))
        return

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import PERCENTILES, Tracer

        tracer = Tracer()
        tracer.install()
    outputs = []
    gc.collect()
    clock = SpeedClock(mixed_probe_s)
    # A traced pass probes only between ops: a timer probe would land inside spans.
    clock.start(timer=tracer is None)
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            clock.probe()
        if tracer is None:
            rc, out, err = _run(cli.main, op["argv"])
        else:
            rc, out, err = _run(lambda argv, i=i: tracer.run_op(i, cli.main, argv), op["argv"])
        digest = hashlib.sha256(f"{rc}\n{out}\n{err}".encode()).hexdigest()
        outputs.append({"rc": rc, "stdout": out, "stderr": err, "digest": digest})
    clock.stop()
    result["wall_raw_s"], result["wall_s"] = clock.seconds()
    result["probes_s"] += [p[2] for p in clock.points]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["outputs"] = outputs
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["durations"] = {name: tracer.durations[name] for name in PERCENTILES}
        result["missing"] = tracer.missing
        if job.get("spans_path"):
            with open(job["spans_path"], "w") as fh:
                for span in tracer.span_records():
                    fh.write(json.dumps(span) + "\n")
    if job["check"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import numpy
        import scipy
        from checks import check_ops

        result["problems"] = check_ops(job["ops"], outputs, src)
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
