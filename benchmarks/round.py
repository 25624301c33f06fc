"""One round of a workload, run in a fresh process by `run.py`.

Usage: python3 round.py PLAN.json

The plan names the source directory, the CLI argument lists and the
result file.  Only the standard library is imported before the timed
`import animacy.cli`, so the import cost is the program's own.

Untraced rounds wrap only the public loaders, in every `animacy` module
that binds them, and report:

* setup_s: `import animacy.cli` plus the time inside the loaders;
* run_s: wall time of the CLI calls minus that loader time;
* peak_rss_mb: ru_maxrss of this process after the calls.

Traced rounds (``"trace": true``) install `tracing.Tracer` instead and also
write its spans and per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

LOADERS = ("load_taxonomy", "load_corpus", "load_enriched")


def _animacy_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "animacy" or name.startswith("animacy.")) and m is not None]


def _wrap_loaders(totals: list[float]) -> None:
    clock = time.perf_counter
    for name in LOADERS:
        original = getattr(sys.modules["animacy"], name)

        @functools.wraps(original)
        def timed(*args, _original=original, **kwargs):
            start = clock()
            try:
                return _original(*args, **kwargs)
            finally:
                totals[0] += clock() - start

        for module in _animacy_modules():
            if getattr(module, name, None) is original:
                setattr(module, name, timed)


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    src = plan["src"]
    sys.path.insert(0, src)

    start = time.perf_counter()
    import animacy.cli
    import_s = time.perf_counter() - start

    location = os.path.dirname(os.path.abspath(animacy.cli.__file__))
    if location != os.path.join(os.path.abspath(src), "animacy"):
        print(f"animacy imported from {location}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    loader_s = [0.0]
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(_animacy_modules(), import_s)
    else:
        _wrap_loaders(loader_s)

    results = []
    wall = 0.0
    for argv in plan["calls"]:
        begin = time.perf_counter()
        code = animacy.cli.main(argv)
        elapsed = time.perf_counter() - begin
        wall += elapsed
        results.append({"argv": argv, "exit": code, "wall_s": elapsed})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        loader_s[0] = tracer.loader_seconds()
    report = {
        "calls": results,
        "import_s": import_s,
        "loader_s": loader_s[0],
        "setup_s": import_s + loader_s[0],
        "run_s": wall - loader_s[0],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(plan["out"], "spans.json"))
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
