"""Entry point: ``python -m repro.fuzz [flags]``, one fuzz sweep."""

import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `| head`); silence the
        # shutdown flush too, and exit cleanly per POSIX convention.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
