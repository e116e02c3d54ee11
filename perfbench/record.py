"""Write expected.json: the reference outputs the benchmark compares against.

For every explore call, the sha256 of its stdout; for every certify vector,
the exponent_checks count of verify. Record them once, at a commit whose
outputs are known to be right, and commit the file with the benchmark:

    python3 perfbench/record.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from korb import build_wps, check_exponents
    from korb.cli import main as cli_main

    digests = {}
    for call in workloads.generate("explore", 0)["calls"]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(call["argv"])
        if code != 0:
            sys.exit(f"{call['argv']} exited {code}")
        digests[" ".join(call["argv"])] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    checks = {
        workloads.wstr(b): check_exponents(build_wps(b))[0]
        for b, _ in workloads.CERTIFY
    }
    doc = {"explore": dict(sorted(digests.items())), "certify": checks}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
