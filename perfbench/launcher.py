"""Run the blockperm command line; traced when PERFBENCH_SPANS names a file.

    PYTHONPATH=src python3 perfbench/launcher.py dist "1 2 3" "2 3 1"

The untraced path imports nothing beyond ``blockperm.cli``, so it costs what a
plain invocation costs.  The traced path wraps the library's functions before
``blockperm.cli.main`` runs and dumps the spans when it returns.
"""

import os
import sys


def child_env(root: str, spans: str | None = None) -> dict:
    """Environment of a benchmark child: the source tree on the path, no
    worker-count knob, and a spans file only when the child is traced."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BLOCKPERM_THREADS", "PERFBENCH_SPANS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    if spans:
        env["PERFBENCH_SPANS"] = spans
    return env


def main() -> int:
    spans = os.environ.get("PERFBENCH_SPANS")
    if not spans:
        from blockperm import cli
        return cli.main(sys.argv[1:])
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from blockperm import cli
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
