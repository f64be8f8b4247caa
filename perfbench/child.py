"""Traced stand-in for ``python -m nfactor.cli``, one request per process.

    python3 perfbench/child.py SPANS_JSON -- CLI_ARGS...

Imports nfactor, installs the benchmark's wrappers, runs ``cli.run`` on the
arguments and writes its spans, counts and import time to SPANS_JSON. With
``-`` for SPANS_JSON it runs ``cli.run`` untraced, so that the tracing
overhead is measured on one launcher. The exit code is the one ``cli.run``
returned.
"""

import json
import sys
import time


def main(argv) -> int:
    out_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: child.py SPANS_JSON -- CLI_ARGS...")
    start = time.perf_counter()
    from nfactor import cli

    import_s = time.perf_counter() - start
    if out_path == "-":
        return cli.run(cli_args)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(cli_args)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({**tracer.dump(), "import_s": import_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
