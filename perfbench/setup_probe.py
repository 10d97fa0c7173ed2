"""Time a fresh interpreter's set-up for one workload and print the seconds.

    python3 -I perfbench/setup_probe.py SRC cli|api SURFACE BUNDLE [SURFACE BUNDLE ...]

The clock starts before ``nesthilb`` is imported and stops once every
surface and bundle the workload uses is built, descriptor files included.
``cli`` builds them with the CLI's own parsers; ``api`` with
``surface_<name>()`` and ``line_bundle``.  Only ``time`` and ``sys`` are
imported before the clock starts, so the package's own import cost is
not hidden by modules the harness would have loaded.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

src, mode, pairs = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)

import nesthilb  # noqa: E402

if mode == "cli":
    import nesthilb.cli  # noqa: E402

    for surface, bundle in zip(pairs[::2], pairs[1::2]):
        S = nesthilb.cli.parse_surface(surface)
        nesthilb.cli.parse_bundle(S, bundle)
else:
    for surface, bundle in zip(pairs[::2], pairs[1::2]):
        S = getattr(nesthilb, f"surface_{surface}")()
        nesthilb.line_bundle(S, [int(c) for c in bundle.split(",")])

print(repr(time.perf_counter() - t0))
