"""Run one tricap command in this fresh interpreter, as `python -m tricap` would.

    python3 perfbench/shim.py RECORD TRACE [tricap arguments ...]

Standard output and error are the command's own, byte for byte. When the
process ends it writes RECORD, a JSON object with the CLOCK_MONOTONIC
times (seconds, comparable across processes) at which `import tricap`
finished and at which the command was about to start, and with TRACE=1
the spans recorded around tricap's public functions (see tracer.py).
With no tricap arguments the process only imports the package, which is
how the benchmark samples set-up time.
"""

import sys
import time


def main(argv: list[str]) -> int:
    record_path, trace, args = argv[0], argv[1] == "1", argv[2:]
    import tricap  # noqa: F401  (the import is what set-up time measures)

    record: dict = {"imported": time.monotonic(), "ready": None, "spans": []}
    try:
        if not args:
            return 0
        from tricap import cli

        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            record["spans"] = tracer.spans
        record["ready"] = time.monotonic()
        return cli.main(args)
    finally:
        import json

        with open(record_path, "w", encoding="ascii") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
