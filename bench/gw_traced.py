"""Run the gateway with the benchmark's timing wrappers installed.

    python bench/gw_traced.py SPANS_OUT [gateway flags...]

Installs the wrappers, then calls `csg.gateway.main` with the remaining
arguments. After SIGTERM shutdown the spans are written to SPANS_OUT as
JSON lines.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from csg import gateway

    code = gateway.main(argv)
    tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
