"""Command line front end.

Every run is fully specified by its flags: a subcommand, a comma-separated
weight vector, and an output format (text, json, or latex).  Results go to
stdout, errors to stderr.  Exit status is 0 on success, 1 when `verify`
finds a failure, and 2 on bad input, even if the reader closes stdout early.
A new command is one more entry in `_COMMANDS`: its help, flags and handler.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections.abc import Iterator
from itertools import repeat
from math import gcd
from operator import floordiv

from .laurent import LaurentPoly, parse_laurent
from .ring import (
    build_sector_rings,
    element_from_residues,
    element_spec,
    reduce,
    star_multiply,
    torsion_report,
    total_rank,
    verify,
)
from .sectors import (
    WpsData,
    build_wps,
    by_class,
    check_sector,
    euler_product,
    fixed_set,
    fixed_weights,
    kernel_generator,
    sector_rows,
)


def _decimal(text: str) -> int:
    """int(text) when text is an optionally signed run of ASCII digits,
    spaces around it allowed; int() alone also takes '1_0' and '١'."""
    if re.fullmatch(r"\s*[+-]?[0-9]+\s*", text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(_decimal(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"weights must be comma-separated integers, got {text!r}"
        ) from None


# Rendering atoms.  Each takes latex=True for LaTeX and gives the text
# form otherwise; JSON fields use the text form.


def _residues(nums, ell: int, latex: bool) -> tuple[list[str], list[str]]:
    """(zetas, fractions) for each a in the sequence nums, 0 <= a < ell:
    the root of unity e^(2 pi i a/ell), with 1, -1, i and -i by name, and
    the fraction a/ell, both in lowest terms p/q.  One gcd g and one
    string p per a serve both, and one string q = ell/g per divisor g."""
    gs = list(map(gcd, nums, repeat(ell)))
    ps = list(map(str, map(floordiv, nums, gs)))
    qs = list(map({g: str(ell // g) for g in set(gs)}.__getitem__, gs))
    if latex:
        zetas = _concat(repeat("e^{2\\pi i\\,"), ps, repeat("/"), qs, repeat("}"))
        fracs = _concat(repeat("\\frac{"), ps, repeat("}{"), qs, repeat("}"))
    else:
        fracs = list(_concat(ps, repeat("/"), qs))
        zetas = _concat(repeat("e^(2*pi*i*"), fracs, repeat(")"))
    names = ((0, 1, "1"), (1, 2, "-1"), (1, 4, "i"), (3, 4, "-i"))
    named = {p * ell // q: z for p, q, z in names if ell % q == 0}
    return list(map(named.get, nums, zetas)), list(map({0: "0"}.get, nums, fracs))


def _fixed(ws: tuple[int, ...], n: int, latex: bool) -> str:
    """The fixed locus from the weights of the fixed coordinates."""
    if len(ws) == n:
        return f"\\mathbb{{C}}^{{{n}}}" if latex else f"C^{n}"
    if not ws:
        return "0"
    if latex:
        return " \\oplus ".join(f"\\mathbb{{C}}_{{({w})}}" for w in ws)
    return " + ".join(f"C_({w})" for w in ws)


def _factors(ws: tuple[int, ...], latex: bool) -> str:
    """The Euler-class product over ws, factored; 1 when empty."""
    if latex:
        return "".join(f"(1-u^{{-{w}}})" for w in ws) or "1"
    return "".join(f"(1-u^-{w})" for w in ws) or "1"


def _sub(base: str, idx: int) -> str:
    # TeX only needs subscript braces past one character
    return f"{base}_{idx}" if 0 <= idx <= 9 else f"{base}_{{{idx}}}"


def _subs(base: str, ell: int) -> list[str]:
    """_sub(base, s) for every sector s."""
    small = map((base + "_{}").format, range(min(ell, 10)))
    return [*small, *map((base + "_{{{}}}").format, range(10, ell))]


def _prefixes(latex: bool):
    """prefix(ws): what precedes alpha_s in the cell ws-factors times alpha_s,
    nothing when ws is empty.  Made per command call, it renders each
    weight class once, however many pairs share it."""
    sep = "" if latex else " "
    return functools.cache(lambda ws: _factors(ws, latex) + sep if ws else "")


def _concat(*columns):
    """The strings a[i] + b[i] + ... of the columns a, b, ..., for i in
    turn, joined in C."""
    return map("".join, zip(*columns))


def _row(head: str, sep: str, *columns) -> str:
    """The lines head + a[i] + b[i] + ... of the columns a, b, ..., joined
    by sep: the head is joined in as part of each separator, so each line
    is made by one join in C."""
    return head + (sep + head).join(_concat(*columns))


def _joined(first: str, rows, sep: str, last: str):
    """The chunks of first + sep.join(rows) + last, in turn: first, each
    row with sep before all but the first, then last.  main writes each
    chunk as it is made, so no more than one row is held at a time."""
    yield first
    for i, row in enumerate(rows):
        if i:
            yield sep
        yield row
    yield last


def _by_ring(rings, cell):
    """cell(s, r) for each sector's ring r in turn, made once per ring
    object from the first sector s that holds it: build_sector_rings
    shares a ring only between sectors with one fixed set.  Keyed by
    identity: hashing a SectorRing rehashes its generator."""
    ids = list(map(id, rings))
    firsts = map(ids.index, dict.fromkeys(ids))
    cells = {ids[s]: cell(s, rings[s]) for s in firsts}
    return map(cells.__getitem__, ids)


def _poly_latex(p: LaurentPoly) -> str:
    return re.sub(r"\^(-?\d+)", r"^{\1}", str(p).replace(" ", ""))


def _header_lines(d: WpsData) -> list[str]:
    return [f"weights: {','.join(map(str, d.b))}", f"ell: {d.ell}"]


def _json_doc(kind: str, d: WpsData, **fields):
    """json.dumps(doc, indent=2) of {kind, weights, ell, **fields}.

    Every list field is given as the laid-out text of its items: strings
    of one or more items, each indented by four spaces, joined by ",\\n".
    So a list of ell or ell^2/2 objects is built from row templates, with
    no dict per object.  Fields and rows are joined once, by the ",\\n"
    that separates both.  One list field may instead be a non-empty
    iterator of such strings, made as they are read: the document then
    comes back as the chunks of _joined, one per string of that field,
    and is never held whole.  Every other field is a scalar.
    """
    doc = {"kind": kind, "weights": [f"    {w}" for w in d.b], "ell": d.ell, **fields}
    out: list[str] = []
    rows = None
    for key, v in doc.items():
        name = f"  {json.dumps(key)}: "
        if isinstance(v, Iterator):
            # the fields so far open the lazy list; the rest close it
            out.append(name + "[\n")
            head, rows, out = out, v, ["\n  ]"]
        elif not isinstance(v, list):
            out.append(name + json.dumps(v))
        elif not v:
            out.append(name + "[]")
        else:
            out += v
            out[-len(v)] = name + "[\n" + v[0]
            out[-1] += "\n  ]"
    out[-1] += "\n}"
    if rows is None:
        out[0] = "{\n" + out[0]
        return ",\n".join(out)
    return _joined("{\n" + ",\n".join(head), rows, ",\n", ",\n".join(out))


def _json_members(**members) -> str:
    """The text ',\\n      "key": value' of members of an object in a list
    field, laid out at that depth as json.dumps(indent=2) does.  Only a
    list needs indent, which takes the pure-Python encoder; a scalar goes
    through the C one."""
    return "".join(
        f",\n      {json.dumps(k)}: "
        + json.dumps(v, indent=2 if isinstance(v, list) else None).replace("\n", "\n      ")
        for k, v in members.items()
    )


def _json_rows(sectors, *columns) -> list[str]:
    """The laid-out objects {"s": s, ...} of a list field, one per sector s,
    the rest of each from the columns' strings."""
    head = repeat('    {\n      "s": ')
    return list(_concat(head, map(str, sectors), *columns, repeat("\n    }")))


def _table_rows(d: WpsData):
    """tableI, one string per row s, made as it is read: its pairs s <= t
    in one fixed template, each class's coefficient dumped once."""
    heads = [f'    {{\n      "s": {s},\n      "t": ' for s in range(d.ell)]
    mids = [f'{t},\n      "target": ' for t in range(d.ell)]
    names = [f'{tgt},\n      "coeff": ' for tgt in range(d.ell)]
    coeff = lambda ws: json.dumps(str(euler_product(ws))) + "\n    }"
    return (
        _row(heads[s], ",\n", mids[s:], targets, coeffs)
        for s, coeffs, targets in sector_rows(d, 0, coeff, names)
    )


def cmd_chart(d: WpsData, args: argparse.Namespace) -> str:
    fmt, n, sectors = args.format, len(d.b), range(d.ell)
    latex = fmt == "latex"
    # a logweight b_k*s mod ell over ell is one of ell residues
    zetas, fracs = _residues(sectors, d.ell, latex)
    logws = [map(fracs.__getitem__, row) for row in d.logw]
    labels = list(map(str, sectors))
    if fmt == "json":
        # the text forms of zetas and logweights need no JSON escapes
        rows = _json_rows(
            labels,
            repeat(',\n      "zeta": "'), zetas, repeat('"'),
            by_class(d, lambda g: _json_members(fixed=list(fixed_set(d, g)))),
            repeat(',\n      "logweights": [\n        "'),
            map('",\n        "'.join, zip(*logws)),
            repeat('"\n      ],\n      "generator": "alpha_'),
            labels, repeat('"'),
        )
        return _json_doc("chart", d, sectors=rows)
    loci = by_class(d, lambda g: _fixed(fixed_weights(d, g), n, latex))
    if latex:
        cols = "c||" + "|".join("c" * d.ell) + "|"
        rows = [
            "s & " + " & ".join(labels) + " \\\\ \\hline \\hline",
            "\\zeta_s & " + " & ".join(zetas) + " \\\\ \\hline",
            "\\text{fixed locus} & " + " & ".join(loci) + " \\\\ \\hline",
        ]
        for k, row in enumerate(logws):
            rows.append(_sub("a", k) + "(\\zeta_s) & " + " & ".join(row) + " \\\\ \\hline")
        alphas = " & ".join(_subs("\\alpha", d.ell))
        rows.append("\\text{generator} & " + alphas + " \\\\ \\hline")
        body = "\n".join(rows)
        return f"\\begin{{array}}{{{cols}}}\n{body}\n\\end{{array}}"
    lines = _concat(
        repeat("sector "), labels, repeat(": zeta = "), zetas,
        repeat(", fixed = "), loci, repeat(", logweights = ("),
        map(", ".join, zip(*logws)), repeat("), generator = alpha_"), labels,
    )
    return "\n".join([*_header_lines(d), *lines])


def _display_rows(d: WpsData, render, names):
    """The rows the table and the I relations print: alpha_0 is the unit,
    so they start at sector 1 unless there is nothing else to show."""
    return sector_rows(d, 1 if d.ell > 1 else 0, render, names)


def _pair_lines(d: WpsData, heads, mids, render, names):
    """One string per displayed row s, made as it is read: for t =
    s..ell-1, the lines heads[s] + mids[t] + render(ws) + names[target],
    ws the pair's class."""
    return (
        _row(heads[s], "\n", mids[s:], classes, targets)
        for s, classes, targets in _display_rows(d, render, names)
    )


def cmd_table(d: WpsData, args: argparse.Namespace):
    fmt = args.format
    if fmt == "json":
        return _json_doc("table", d, tableI=_table_rows(d))
    prefix = _prefixes(fmt == "latex")
    if fmt == "latex":
        alphas = _subs("\\alpha", d.ell)
        # the rows _display_rows gives: all but alpha_0, unless it is alone
        shown = alphas[1:] or alphas
        cols = "c||" + "|".join("c" * len(shown)) + "|"
        header = " & " + " & ".join(shown) + " \\\\ \\hline \\hline"
        # the cells left of the diagonal stay empty
        rows = (
            alphas[s] + " & " * (i + 1) + " & ".join(_concat(classes, targets))
            + " \\\\ \\hline"
            for i, (s, classes, targets) in enumerate(_display_rows(d, prefix, alphas))
        )
        return _joined(f"\\begin{{array}}{{{cols}}}\n{header}\n", rows, "\n", "\n\\end{array}")
    names = [f"alpha_{s}" for s in range(d.ell)]
    heads = [f"{a} * " for a in names]
    mids = [f"{a} = " for a in names]
    header = "\n".join(_header_lines(d)) + "\n"
    return _joined(header, _pair_lines(d, heads, mids, prefix, names), "\n", "")


def cmd_kernels(d: WpsData, args: argparse.Namespace) -> str:
    fmt, sectors = args.format, range(d.ell)
    rings = build_sector_rings(d)
    if fmt == "json":
        cells = _by_ring(rings, lambda s, r: _json_members(
            fixed=list(fixed_set(d, s)), kernel=str(r.gen), rank=r.rank,
        ))
        return _json_doc("kernels", d, sectors=_json_rows(sectors, cells))
    if fmt == "latex":
        prods = _by_ring(rings, lambda s, r: _factors(fixed_weights(d, s), True))
        lines = _concat(
            repeat("\\ker("), _subs("\\kappa", d.ell), repeat(") &= \\langle "),
            _subs("\\alpha", d.ell), repeat(" "), prods, repeat(" \\rangle"),
        )
        return "\\begin{align*}\n" + " \\\\\n".join(lines) + "\n\\end{align*}"
    cell = lambda s, r: f": {_factors(fixed_weights(d, s), False)}  [rank {r.rank}]"
    lines = _concat(repeat("s="), map(str, sectors), _by_ring(rings, cell))
    return "\n".join([*_header_lines(d), *lines])


def cmd_present(d: WpsData, args: argparse.Namespace):
    fmt = args.format
    if fmt == "json":
        gens = by_class(d, lambda g: _json_members(gen=str(kernel_generator(d, g))))
        return _json_doc(
            "presentation", d, tableI=_table_rows(d),
            tableJ=_json_rows(range(d.ell), gens), unit="alpha_0 - 1",
        )
    prefix = _prefixes(fmt == "latex")
    if fmt == "latex":
        alphas = _subs("\\alpha", d.ell)
        heads = [f"{a} " for a in alphas]
        mids = [f"{a} &= " for a in alphas]
        ends = [f"{a} \\\\" for a in alphas]
        prods = by_class(d, lambda g: _factors(fixed_weights(d, g), True) + "\\,")
        tail = [*_concat(prods, alphas, repeat(" &= 0 \\\\")), "\\alpha_0 &= 1", "\\end{align*}"]
        rows = _pair_lines(d, heads, mids, prefix, ends)
        return _joined("\\begin{align*}\n", rows, "\n", "\n" + "\n".join(tail))
    names = [f"alpha_{s}" for s in range(d.ell)]
    heads = [f"  {a} " for a in names]
    mids = [f"{a} - " for a in names]
    head = [*_header_lines(d), "generators: " + ", ".join(names), "I relations:"]
    tail = ["J relations:"]
    tail += _concat(by_class(d, lambda g: "  " + prefix(fixed_weights(d, g))), names)
    tail.append("unit relation: alpha_0 - 1")
    rows = _pair_lines(d, heads, mids, prefix, names)
    return _joined("\n".join(head) + "\n", rows, "\n", "\n" + "\n".join(tail))


def cmd_rank(d: WpsData, args: argparse.Namespace) -> str:
    fmt = args.format
    rings = build_sector_rings(d)
    total = total_rank(rings)
    if fmt == "json":
        ranks = list(_by_ring(rings, lambda s, r: f"    {r.rank}"))
        return _json_doc("rank", d, ranks=ranks, total=total)
    if fmt == "latex":
        return f"\\operatorname{{rank}} = {total}"
    return str(total)


def cmd_torsion(d: WpsData, args: argparse.Namespace) -> str:
    fmt = args.format
    rings = build_sector_rings(d)
    status = "PASS" if torsion_report(rings).passed else "FAIL"
    if fmt == "json":
        cells = _by_ring(rings, lambda s, r: _json_members(
            rank=r.rank, monic=r.gmonic.monic, constant=r.gmonic.constant, free=r.free,
        ))
        rows = _json_rows(range(d.ell), cells)
        return _json_doc("torsion", d, sectors=rows, status=status)
    if fmt == "latex":
        ranks = ", ".join(_by_ring(rings, lambda s, r: str(r.rank)))
        return f"\\text{{torsion-free: {status} (ranks {ranks})}}"

    def cell(s, r):
        kind = "monic" if r.gmonic.monic else "not monic"
        verdict = "free" if r.free else "torsion risk"
        return f": rank {r.rank}, {kind}, constant term {r.gmonic.constant}: {verdict}"

    lines = _concat(repeat("s="), map(str, range(d.ell)), _by_ring(rings, cell))
    return "\n".join([*_header_lines(d), *lines, f"torsion-free: {status}"])


def cmd_verify(d: WpsData, args: argparse.Namespace) -> tuple[str, int]:
    fmt = args.format
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    rep = verify(d, trials=args.trials, seed=args.seed)
    if rep.passed:
        summary = f"PASS (cocycle exhaustive; {rep.trials} random associativity trials)"
    else:
        summary = f"FAIL ({len(rep.failures)} failures)"
    if fmt == "json":
        body = _json_doc(
            "verify",
            d,
            trials=rep.trials,
            seed=rep.seed,
            exponent_checks=rep.exponent_checks,
            status="PASS" if rep.passed else "FAIL",
            failures=[f"    {json.dumps(f)}" for f in rep.failures],
        )
    elif fmt == "latex":
        body = f"\\text{{{summary}}}"
    else:
        body = summary
        if not rep.passed:
            body += "".join(f"\n  - {f}" for f in rep.failures)
    return body, 0 if rep.passed else 1


def cmd_reduce(d: WpsData, args: argparse.Namespace) -> str:
    fmt, sector = args.format, args.sector
    check_sector(d, sector)
    p = parse_laurent(args.poly)
    rings = build_sector_rings(d)
    r = reduce(rings[sector], p)
    if fmt == "json":
        return _json_doc(
            "reduce", d, sector=sector, input=str(p), residue=str(r)
        )
    if fmt == "latex":
        return _poly_latex(r)
    return str(r)


def _parse_element_spec(text: str, rings, d: WpsData):
    residues: dict[int, LaurentPoly] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty component in element spec")
        if ":" not in chunk:
            raise ValueError(
                f"component {chunk!r} must look like 'sector:polynomial'"
            )
        stxt, ptxt = chunk.split(":", 1)
        try:
            s = _decimal(stxt)
        except ValueError:
            raise ValueError(f"bad sector index {stxt.strip()!r}") from None
        check_sector(d, s)
        if s in residues:
            raise ValueError(f"sector {s} assigned twice in element spec")
        residues[s] = parse_laurent(ptxt)
    return element_from_residues(rings, d, residues)


def cmd_mul(d: WpsData, args: argparse.Namespace) -> str:
    fmt, lhs, rhs = args.format, args.lhs, args.rhs
    rings = build_sector_rings(d)
    x = _parse_element_spec(lhs, rings, d)
    y = _parse_element_spec(rhs, rings, d)
    prod = star_multiply(rings, d, x, y)
    nonzero = [(s, c) for s, c in enumerate(prod.comps) if not c.is_zero]
    if fmt == "json":
        comps = _json_rows(
            [s for s, _ in nonzero], (_json_members(residue=str(c)) for _, c in nonzero)
        )
        return _json_doc("mul", d, lhs=lhs, rhs=rhs, components=comps)
    if fmt == "latex":
        if not nonzero:
            return "0"
        parts = []
        for s, c in nonzero:
            if c == 1:
                parts.append(_sub("\\alpha", s))
            else:
                parts.append(f"({_poly_latex(c)})\\," + _sub("\\alpha", s))
        return " + ".join(parts)
    if not nonzero:
        return "0"
    return element_spec(prod)


# name -> (help, extra flags, handler).  Every command also takes the weights
# and --format; its handler returns the text to print, or (text, exit status).
_COMMANDS = {
    "chart": ("sector chart: roots of unity, fixed loci, logweights", {}, cmd_chart),
    "table": ("multiplication table of the sector generators", {}, cmd_table),
    "kernels": ("kernel generator and rank of every sector", {}, cmd_kernels),
    "present": ("generators-and-relations presentation of the ring", {}, cmd_present),
    "rank": ("total free rank over Z", {}, cmd_rank),
    "torsion": ("per-sector torsion-freeness certificate", {}, cmd_torsion),
    "verify": ("exhaustive exponent checks plus randomized ring laws", {
        "--trials": dict(type=int, default=500),
        "--seed": dict(type=int, default=0),
    }, cmd_verify),
    "reduce": ("canonical residue of a polynomial in one sector", {
        "--sector": dict(type=int, required=True),
        "--poly": dict(required=True),
    }, cmd_reduce),
    "mul": ("star-product of two ring elements", {
        "--lhs": dict(required=True),
        "--rhs": dict(required=True),
    }, cmd_mul),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and then shared: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="korb",
        description=(
            "Exact orbifold K-theory of weighted projective spaces: "
            "charts, multiplication tables, kernels, presentations, and "
            "ring arithmetic over Z[u,u^-1]."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, handler) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        # type=int flags take the weights' grammar; argparse still names it int
        sp.register("type", int, _decimal)
        sp.add_argument(
            "weights", help="comma-separated positive integers, e.g. 1,2,4"
        )
        sp.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )
        for flag, kwargs in flags.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        d = build_wps(_parse_weights(args.weights))
        result = args.handler(d, args)
        body, code = result if isinstance(result, tuple) else (result, 0)
        try:
            # a string is the whole output; chunks are made as they are
            # written, so a ValueError can still come after some of them
            sys.stdout.writelines((body,) if isinstance(body, str) else body)
            # flush now, so a closed pipe raises here; the unwritten rest
            # then goes to /dev/null, so the exit flush cannot raise
            print(flush=True)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
