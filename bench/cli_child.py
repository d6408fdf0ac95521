"""Traced stand-in for ``python -m twinbeam.cli``.

    python3 bench/cli_child.py SPANS.json <twinbeam cli arguments...>

Times the cold ``import twinbeam.cli``, installs the span wrappers, runs the
command and writes the import time and the spans to ``SPANS.json``.  Exits
with the command's exit code.
"""

import json
import sys
import time
from dataclasses import asdict

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import twinbeam.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = twinbeam.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": [asdict(s) for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
