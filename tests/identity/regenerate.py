"""Rewrites ``cli.json``, the CLI identity corpus: for each argv below, the
exit code, stderr and stdout of ``homdom.cli.main``, stdout less its
volatile ``timestamp`` and ``elapsed_s`` lines.  ``test_cli_identity.py``
replays every entry and expects the same bytes.

A change that alters an output on purpose reruns this script, from the
repository root or anywhere else:

    python3 tests/identity/regenerate.py

and names each argv whose entry changed, and why, in CHANGES.md."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.json"

_P0_P3 = "union:2*path:0+1*path:3"
ARGVS = [
    # every exhaustive n <= 6 scan: the kernel, the past-64-bit fallback
    # (k = 27 and 65), first failures, and sources whose graphs are built
    "verify --mode walk-inequality --t 3 --k 5 --exhaustive-n 6",
    "verify --mode walk-inequality --t 2 --k 3 --exhaustive-n 6",
    "verify --mode walk-inequality --t 3 --k 27 --exhaustive-n 6",
    "verify --mode density-form --t 1 --k 5 --exhaustive-n 6",
    "verify --mode counterexample --t 2 --k 3 --exhaustive-n 6",
    "verify --mode counterexample --t 2 --k 5 --exhaustive-n 6",
    "verify --mode counterexample --t 2 --k 65 --exhaustive-n 6",
    "verify --mode blakley-roy --k 4 --exhaustive-n 6",
    f"verify --mode hde-definition --f1 {_P0_P3} --f2 path:1 --c 3 --exhaustive-n 6",
    f"verify --mode hde-definition --f1 {_P0_P3} --f2 path:1 --c 31/10 --exhaustive-n 6",
    "verify --mode hde-definition --f1 cycle:3 --f2 cycle:3 --c 1 --exhaustive-n 6",
    "verify --mode hde-definition --f1 cycle:3 --f2 path:1 --c 1 --exhaustive-n 6",
    "verify --mode hde-definition --f1 cycle:4 --f2 cycle:3 --c 1 --exhaustive-n 6",
    # README's random scope at the 64-bit row stride
    "verify --mode walk-inequality --t 1 --k 3 --samples 200 --n 63 --seed 1",
    # usage errors, each refused before any graph is drawn
    "verify",
    "verify --mode walk-inequality --t 3 --k 5 --exhaustive-n 7",
    "verify --mode walk-inequality --t 0 --k 3 --exhaustive-n 3",
    "verify --mode counterexample --t 3 --k 5 --exhaustive-n 3",
    "verify --mode walk-inequality --t 1 --k 3 --exhaustive-n 0",
    "verify --mode hde-definition --f1 cycle:3 --f2 cycle:3 --c -1/2 --exhaustive-n 3",
    "verify --mode walk-inequality --t 1 --k 3 --samples 1000000000000000000 --n 1",
]


def run(argv: list[str]) -> dict:
    """The corpus entry of ``argv``: exit code, stdout less its volatile
    lines, and stderr of one in-process ``main`` call."""
    from homdom.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a usage error this way
            code = exc.code
    kept = [line for line in out.getvalue().splitlines(keepends=True)
            if not line.startswith(('  "timestamp": ', '  "elapsed_s": '))]
    return {"argv": argv, "code": code, "stdout": "".join(kept), "stderr": err.getvalue()}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    corpus = [run(argv.split()) for argv in ARGVS]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {CORPUS}")
