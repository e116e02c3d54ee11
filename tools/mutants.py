"""Mutation check: do the tests kill known broken versions of korb?

Each mutant is one exact edit of one line under src/korb.  src/ and
tests/ are copied once to a temporary directory; each edit is made there
in turn, and undone after the mutant's test files have run with pytest -x
under a per-mutant timeout.  One line is printed per mutant: killed (by
the first failing test), survived, or equivalent (with the reason its
outputs cannot change; its tests are not run).  The script stops at once if a mutant's old text does
not occur exactly once, or if the unmutated copy fails its tests.  It
exits 1 if any mutant that is not equivalent survives.

Run from anywhere, with pytest and hypothesis installed:

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no output can change; the tests are not run


CLI, LAURENT = "src/korb/cli.py", "src/korb/laurent.py"
RING, SECTORS = "src/korb/ring.py", "src/korb/sectors.py"
T_CLI, T_LAURENT = "tests/test_cli.py", "tests/test_laurent.py"
T_RING, T_SECTORS = "tests/test_ring.py", "tests/test_sectors.py"

MUTANTS = (
    Mutant(
        "divmod_monic's bottom pass ignores the sign of g0",
        LAURENT, "            c *= g0\n", "", (T_LAURENT,),
    ),
    Mutant(
        "divmod_monic's bottom pass stops one exponent early",
        LAURENT, "for i in range(-lo):", "for i in range(-lo - 1):", (T_LAURENT,),
    ),
    Mutant(
        "divmod_monic's remainder slice is shifted by one",
        LAURENT, "buf[-lo : d - lo]", "buf[1 - lo : d + 1 - lo]", (T_LAURENT,),
    ),
    Mutant(
        "verify's commutativity law compares xy with itself",
        RING, '("commutativity", xy == star_multiply(rings, d, y, x))',
        '("commutativity", xy == xy)', (T_RING,),
    ),
    Mutant(
        "verify's unit law compares x with itself",
        RING, '("unit law", star_multiply(rings, d, one, x) == x)', '("unit law", x == x)', (T_RING,),
    ),
    Mutant(
        "verify's distributivity law compares one side with itself",
        RING, "star_multiply(rings, d, x, y + z) == xy + star_multiply(rings, d, x, z)",
        "xy + star_multiply(rings, d, x, z) == xy + star_multiply(rings, d, x, z)", (T_RING,),
    ),
    Mutant(
        "random_element leaves out the top residue coefficient",
        RING, "for e in range(ring.rank)}", "for e in range(ring.rank - 1)}", (T_RING,),
    ),
    Mutant(
        "reduce's closed form divides C(q, j) by j + 2",
        RING, "c = c * (q - j) // (j + 1)", "c = c * (q - j) // (j + 2)", (T_RING,),
    ),
    Mutant(
        "reduce's closed form drops the last N^j term",
        RING, "[{} for _ in ring.fixed]", "[{} for _ in ring.fixed[1:]]", (T_RING,),
    ),
    Mutant(
        "carry_keys' bias is one lower per field: a carry needs > ell",
        SECTORS, "bias = sum(tops) - sum(map(ell.__lshift__, shifts))",
        "bias = sum(tops) - sum(map((ell + 1).__lshift__, shifts))", (T_SECTORS,),
    ),
    Mutant(
        "carry_keys skips its check of a given logweight table",
        SECTORS, "if table is not None and column != [row[s] for row in table]:",
        "if False:", (T_RING,),
    ),
    Mutant(
        "obstruction_exponent ignores a given logweight table",
        SECTORS, "if d.table is None:", "if True:", (T_RING,),
    ),
    Mutant(
        "the logweight table built from the weights is one sector off",
        SECTORS, "tuple(tuple(residue_row(w, self.ell)) for",
        "tuple(tuple([*residue_row(w, self.ell)[1:], 0]) for", (T_SECTORS,),
    ),
    Mutant(
        "a residue row repeats the multiples of w below ell w - 1 times",
        SECTORS, "w << shift)) * w", "w << shift)) * (w - 1)", (T_SECTORS,),
    ),
    Mutant(
        "carry_keys skips its check of a given table when it packs every sector",
        SECTORS, "if table is not None and list(map(list, table))", "if False and list(map(list, table))",
        (T_SECTORS,),
    ),
    Mutant(
        "fixed_set loses the last coordinate",
        SECTORS, "for k, w in enumerate(d.b) if", "for k, w in enumerate(d.b[:-1]) if", (T_SECTORS,),
    ),
    Mutant(
        "by_class's strides start past sector 0",
        SECTORS, "range(0, ell, ell // w)", "range(ell // w, ell, ell // w)", (T_SECTORS,),
    ),
    Mutant(
        "by_class makes each fixed set's value from the last sector that reaches it",
        SECTORS, "    made = {}\n    for s, mask in masks.items():",
        "    made = {}\n    for s, mask in reversed(masks.items()):", (T_SECTORS,),
    ),
    Mutant(
        "by_class gives the sectors that fix nothing sector 0's value",
        SECTORS, "out = [made.get(0)] * ell", "out = [made[masks[0]]] * ell", (T_SECTORS,),
    ),
    Mutant(
        "by_class files coordinate k under bit k % 2",
        SECTORS, "masks.get(s, 0) | 1 << k", "masks.get(s, 0) | 1 << k % 2", (T_SECTORS,),
    ),
    Mutant(
        "euler_product loses a factor",
        SECTORS, "for w in weights:", "for w in weights[1:]:", (T_SECTORS,),
    ),
    Mutant(
        "the product table is shared by weight vectors of one ell and length",
        SECTORS, "return {}, {}, bias, sum(tops)",
        "return (*globals().setdefault((self.ell, len(self.b)), ({}, {})), bias, sum(tops))",
        (T_RING,),
    ),
    Mutant(
        "the product table's classes are shared by weight vectors of one ell",
        SECTORS, "return {}, {}, bias, sum(tops)",
        "return {}, globals().setdefault(self.ell, {}), bias, sum(tops)", (T_RING,),
    ),
    Mutant(
        "star_multiply stores each new carry key under the next new sector",
        RING, "keys.update(zip(new, carry_keys(d, new)[0]))",
        "keys.update(zip(new[1:] + new[:1], carry_keys(d, new)[0]))", (T_RING,),
    ),
    Mutant(
        "star_multiply reuses a packed coefficient at any digit width",
        RING, "pc = packed.get(w)", "pc = next(iter(packed.values()), None)", (T_RING,),
    ),
    Mutant(
        "star_multiply asks structure_coefficient again for every pair",
        RING, "if key not in classes:", "if True:", (T_RING,),
    ),
    Mutant(
        "_decimal's pattern accepts an underscore between digits",
        CLI, r'r"\s*[+-]?[0-9]+\s*"', r'r"\s*[+-]?[0-9_]+\s*"', (T_CLI,),
    ),
    Mutant(
        "a failing verify exits 0",
        CLI, "return body, 0 if rep.passed else 1", "return body, 0", (T_CLI,),
    ),
    Mutant(
        "a ValueError from a command exits 1, the status of a failing verify",
        CLI, 'print(f"error: {exc}", file=sys.stderr)\n        return 2',
        'print(f"error: {exc}", file=sys.stderr)\n        return 1', (T_CLI,),
    ),
    Mutant(
        "the separator between streamed rows is dropped",
        CLI, "            yield sep\n", '            yield ""\n', (T_CLI,),
    ),
    Mutant(
        "a row's first line loses its head",
        CLI, "return head + (sep + head).join(", "return (sep + head).join(", (T_CLI,),
    ),
    Mutant(
        "a list member of a JSON row object is dumped without indent",
        CLI, "indent=2 if isinstance(v, list) else None", "indent=None", (T_CLI,),
    ),
    Mutant(
        "verify's text output drops its failure lines",
        CLI, 'body += "".join(f"\\n  - {f}" for f in rep.failures)', "pass", (T_CLI,),
    ),
    Mutant(
        "reduce's dense bound is 128 lower",
        RING, "(self.period + self.rank) + 64", "(self.period + self.rank) - 64", (T_RING,),
        equivalent="reach only chooses between the dense pass and the closed form,"
        " which give the same residue, so only the cost moves",
    ),
)


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def mutated(m: Mutant) -> str:
    """The text of m's file with m's edit made."""
    text = (ROOT / m.path).read_text()
    n = text.count(m.old)
    if n != 1:
        sys.exit(f"mutant {m.name!r}: {m.path} has {n} copies of {m.old!r}, not 1")
    return text.replace(m.old, m.new)


def run_tests(dest: Path, tests: tuple[str, ...]) -> tuple[str | None, float]:
    """The first failing test's id (None when all pass) and the seconds taken."""
    # no bytecode cache: an edit that keeps a file's size could reuse a stale one
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"the {TIMEOUT_S} s timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return None, seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if not failed:
        sys.exit(f"pytest exited {proc.returncode} with no failing test:\n{proc.stdout}{proc.stderr}")
    return failed[1], seconds


def main() -> int:
    texts = [mutated(m) for m in MUTANTS]  # checks every edit before any run
    all_tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "base")
        copy_tree(base)
        failed, seconds = run_tests(base, all_tests)
        if failed:
            sys.exit(f"the unmutated copy fails {failed}")
        print(f"unmutated: {len(all_tests)} test files pass ({seconds:.1f} s)", flush=True)
        survivors = 0
        for m, text in zip(MUTANTS, texts):
            if m.equivalent:
                print(f"equivalent  {m.name}: {m.equivalent}", flush=True)
                continue
            (base / m.path).write_text(text)
            failed, seconds = run_tests(base, m.tests)
            (base / m.path).write_text((ROOT / m.path).read_text())
            if failed:
                print(f"killed      {m.name}: by {failed} ({seconds:.1f} s)", flush=True)
            else:
                survivors += 1
                print(f"SURVIVED    {m.name}: {', '.join(m.tests)} pass ({seconds:.1f} s)", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
