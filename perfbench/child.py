"""One dimuq CLI invocation in a fresh process, as the benchmark runs it.

    python3 perfbench/child.py --root DIR --result FILE [--probe] [--trace] -- CLI ARGS

Imports ``dimuq`` from ``DIR/src`` and calls ``dimuq.cli.main(CLI ARGS)``.
The monotonic time of the first protocol call marks the end of set-up;
with ``--probe`` the process exits right there. With ``--trace`` every
wrap point in ``layers.py`` records spans. The result file receives the
exit code, the set-up mark, peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    source = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, source)
    import dimuq.cli
    if not os.path.abspath(dimuq.__file__).startswith(source + os.sep):
        raise ImportError(f"dimuq was imported from {dimuq.__file__}, not {source}")

    import layers
    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        layers.install(tracer)

    result = {"setup_at": None}

    def mark_setup(func):
        @functools.wraps(func)
        def marked(*a, **kw):
            if result["setup_at"] is None:
                result["setup_at"] = time.monotonic()
                if args.probe:
                    _write(args.result, result)
                    os._exit(0)
            return func(*a, **kw)
        return marked

    for target in layers.PROTOCOL_ENTRY_POINTS:
        owner, attribute = layers.resolve(target)
        setattr(owner, attribute, mark_setup(getattr(owner, attribute)))

    code = dimuq.cli.main(cli_args)
    result["exit_code"] = code
    result["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    _write(args.result, result)
    return code


if __name__ == "__main__":
    sys.exit(main())
