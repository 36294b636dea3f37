"""Entry point for one `dwpt-auth` CLI invocation of the cli-run workload.

Usage: python3 bench/child.py <spans-out|-> <dwpt-auth arguments...>

With ``-`` this is the plain console script: it imports ``dwpt_auth.cli`` and
calls ``main``.  With a path, it first installs the benchmark's span wrappers,
runs ``main`` inside a ``cli.main`` span, and writes the spans to that path as
JSON when ``main`` returns.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    from dwpt_auth import cli

    if spans_out == "-":
        return cli.main(cli_args)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap_main(cli.main)(cli_args)
    finally:
        Path(spans_out).write_text(json.dumps(tracer.to_json()))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
