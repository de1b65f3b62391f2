"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<job json>'`` with ``src`` on
PYTHONPATH. The job holds the ``ExperimentConfig`` fields and a ``trace``
flag. The child imports ``fracvol.cli`` first, so the launcher can time
set-up from launch to import, then times one ``cli.run`` call and prints
one JSON line: exit code, wall time, import timestamp, peak RSS and, when
traced, the spans, the captured ``SwapReport``s and the library versions.
"""
import sys
import time

import fracvol.cli as cli

IMPORTED_AT = time.monotonic()

import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402


def _versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fracvol": sys.modules["fracvol"].__version__,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    config = cli.build_config(overrides=job["config"])
    out: dict[str, object] = {"imported_at": IMPORTED_AT}
    if job["trace"]:
        tracer = spans.Tracer()
        reports: list = []
        spans.install(tracer, reports)
        start = time.perf_counter()
        rc = tracer.call("cli.run", cli.run, config, stream=io.StringIO())
        out["wall_s"] = time.perf_counter() - start
        spans.replay_normals(tracer)
        out["spans"] = tracer.spans
        out["reports"] = [dataclasses.asdict(r) for r in reports]
        out["versions"] = _versions()
    else:
        start = time.perf_counter()
        rc = cli.run(config, stream=io.StringIO())
        out["wall_s"] = time.perf_counter() - start
    out["rc"] = rc
    # ru_maxrss is in KiB on Linux; children are the pool workers
    out["rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
