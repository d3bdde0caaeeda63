"""One benchmark pass: a fresh process that loads ``repro`` and runs its CLI.

Usage::

    python passrun.py STATUS_JSON [--ledger LEDGER_JSON] [-- REPRO_ARGS...]

The process imports ``repro.cli``, loads the experiment registry, and
takes its *ready* timestamp (``time.monotonic``, which every process on
the host shares), so the parent can split its own launch-to-exit time
into set-up and run.  With ``--ledger`` it wraps every layer first (see
:mod:`layertrace`) and writes the per-layer ledger when the CLI returns.
Without ``REPRO_ARGS`` it stops at ready: a set-up probe.

The status file records ``ready``, the CLI's exit code and how long
``repro.cli.main`` ran.  Keep this module free of import-time work: pool
workers may import it as their ``__mp_main__``.
"""

from __future__ import annotations

import json
import sys
import time


def run(argv: "list[str]") -> int:
    status_path, rest = argv[0], argv[1:]
    cli_args: "list[str]" = []
    if "--" in rest:
        cut = rest.index("--")
        rest, cli_args = rest[:cut], rest[cut + 1:]
    ledger_path = rest[1] if rest[:1] == ["--ledger"] else None

    from repro.cli import main as cli_main
    from repro.engine.registry import all_specs

    all_specs()
    ledger = None
    if ledger_path is not None:
        import layertrace

        ledger = layertrace.install()
    status: "dict[str, object]" = {"ready": time.monotonic(), "rc": 0}
    if cli_args:
        try:
            rc = cli_main(cli_args)
        except SystemExit as exc:
            if isinstance(exc.code, str):
                print(exc.code, file=sys.stderr)
            rc = exc.code if isinstance(exc.code, int) else 1
        status["main_s"] = time.monotonic() - status["ready"]
        status["rc"] = rc
        if ledger is not None:
            ledger.dump(ledger_path)
    with open(status_path, "w", encoding="utf-8") as fh:
        json.dump(status, fh)
    return int(status["rc"])


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
