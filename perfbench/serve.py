"""Start ``qtoken serve`` for the bank workload, optionally traced.

Usage: python3 serve.py [--spans PATH] serve --log LOG --socket SOCK

SIGINT shuts the server down cleanly even when the parent started it with
SIGINT ignored. With ``--spans``, the launcher wraps ``BankService.handle_line``,
the secret codec and ``os.fsync`` before the server recovers its log, and
writes the spans to PATH once the server has stopped.
"""

from __future__ import annotations

import signal
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from qtoken import cli

    tracer = Tracer() if spans_path else None
    if tracer is not None:
        tracer.install()
    code = cli.main(argv)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
