"""Traced stand-in for ``python -m meanbounds``: ``cli_child.py SPANS_DIR ARGS...``.

Times the imports, hooks the layer boundaries, runs the CLI entry point
with ARGS, then writes its spans to a new file in SPANS_DIR and exits with
the CLI's exit code.  Stdout and stderr are the CLI's own.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import tracer as tr


def main() -> int:
    spans_dir = Path(sys.argv[1])
    imports = tr.timed_imports()
    import meanbounds.cli

    tracer = tr.Tracer()
    tracer.install()
    sys.argv = ["meanbounds", *sys.argv[2:]]
    try:
        meanbounds.cli.entrypoint()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    path = spans_dir / f"{os.getpid()}-{time.monotonic_ns()}.json"
    path.write_text(json.dumps({"imports": imports, "unmeasured": tracer.unmeasured,
                                "spans": [list(sp) for sp in tracer.spans]}))
    return code


if __name__ == "__main__":
    sys.exit(main())
