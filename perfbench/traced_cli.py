"""Run one ``lhm`` command with spans recorded around linhyp's public calls.

Usage: python3 perfbench/traced_cli.py SPANS.json lhm-arguments...

The spans are written to SPANS.json when the command ends; the exit code is
the command's own.
"""

import json
import sys

from tracing import Tracer

tracer = Tracer()
rec = tracer.begin("startup.import")
import linhyp.cli  # noqa: E402
tracer.end(rec)
tracer.install()
try:
    code = linhyp.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
