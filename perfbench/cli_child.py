"""Start `hkr` the way its console script does, from the checkout's sources.

There is no `hkr/__main__.py` and the console script may not be installed,
so the cli workload runs `python3 perfbench/cli_child.py <hkr arguments>`.
When PERFBENCH_CHILD_REPORT names a file, the child also records when
`import hkr.cli` finished, installs the span tracer and writes the per-layer
totals of the call to `hkr.cli.main` to that file.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REPORT = os.environ.get("PERFBENCH_CHILD_REPORT")

if not REPORT:
    from hkr.cli import main

    main()
else:
    import hkr.cli

    imported_at = time.monotonic()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = 0

    def call():
        global code
        try:
            hkr.cli.main()
        except SystemExit as exc:
            code = exc.code

    try:
        _, duration, layers = tracer.op(call)
    finally:
        sys.stdout.flush()
    Path(REPORT).write_text(json.dumps({
        "imported_at": imported_at,
        "duration_s": duration,
        "self_s": layers,
        "layers": tracer.layer_metrics(),
        "spans": tracer.spans,
    }))
    sys.exit(code)
