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
from itertools import repeat
from math import gcd

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


def _weights_str(d: WpsData) -> str:
    return ",".join(str(w) for w in d.b)


# Rendering atoms.  Each takes latex=True for LaTeX and gives the text
# form otherwise; JSON fields use the text form.


def _lowest_terms(a: int, ell: int) -> tuple[int, int]:
    """a/ell as (numerator, denominator) in lowest terms, ell >= 1."""
    g = gcd(a, ell)
    return a // g, ell // g


def _zeta(s: int, ell: int, latex: bool) -> str:
    p, q = _lowest_terms(s, ell)
    if p == 0:
        return "1"
    if (p, q) == (1, 2):
        return "-1"
    if (p, q) == (1, 4):
        return "i"
    if (p, q) == (3, 4):
        return "-i"
    return f"e^{{2\\pi i\\,{p}/{q}}}" if latex else f"e^(2*pi*i*{p}/{q})"


def _fixed(ws: tuple[int, ...], n: int, latex: bool) -> str:
    """The fixed locus from the weights of the fixed coordinates."""
    if len(ws) == n:
        return f"\\mathbb{{C}}^{{{n}}}" if latex else f"C^{n}"
    if not ws:
        return "0"
    if latex:
        return " \\oplus ".join(f"\\mathbb{{C}}_{{({w})}}" for w in ws)
    return " + ".join(f"C_({w})" for w in ws)


def _logw(d: WpsData, k: int, s: int, latex: bool) -> str:
    p, q = _lowest_terms(d.logw[k][s], d.ell)
    if q == 1:
        return str(p)
    return f"\\frac{{{p}}}{{{q}}}" if latex else f"{p}/{q}"


def _factors(ws: tuple[int, ...], latex: bool) -> str:
    """The Euler-class product over ws, factored; 1 when empty."""
    if latex:
        return "".join(f"(1-u^{{-{w}}})" for w in ws) or "1"
    return "".join(f"(1-u^-{w})" for w in ws) or "1"


def _sub(base: str, idx: int) -> str:
    # TeX only needs subscript braces past one character
    return f"{base}_{idx}" if 0 <= idx <= 9 else f"{base}_{{{idx}}}"


def _alpha(s: int, latex: bool) -> str:
    return _sub("\\alpha", s) if latex else f"alpha_{s}"


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


def _poly_latex(p: LaurentPoly) -> str:
    return re.sub(r"\^(-?\d+)", r"^{\1}", str(p).replace(" ", ""))


def _header_lines(d: WpsData) -> list[str]:
    return [f"weights: {_weights_str(d)}", f"ell: {d.ell}"]


def _json_field(key: str, v) -> str:
    return f"  {json.dumps(key)}: " + json.dumps(v, indent=2).replace("\n", "\n  ")


def _json_doc(kind: str, d: WpsData, table: bool = False, **extra) -> str:
    """json.dumps(doc, indent=2) of {kind, weights, ell, tableI, **extra}.

    tableI, written only for table=True, has one entry per pair s <= t in
    one fixed template, built a table row at a time; each class's
    coefficient is dumped once.  Rows and fields are joined once, by the
    ",\n" that separates both.
    """
    head = {"kind": kind, "weights": list(d.b), "ell": d.ell}
    fields = [_json_field(k, v) for k, v in head.items()]
    if table:
        heads = [f'    {{\n      "s": {s},\n      "t": ' for s in range(d.ell)]
        mids = [f'{t},\n      "target": ' for t in range(d.ell)]
        names = [f'{tgt},\n      "coeff": ' for tgt in range(d.ell)]
        coeff = lambda ws: json.dumps(str(euler_product(ws))) + "\n    }"
        rows = [
            ",\n".join(_concat(repeat(heads[s]), mids[s:], targets, coeffs))
            for s, coeffs, targets in sector_rows(d, 0, coeff, names)
        ]
        rows[0] = '  "tableI": [\n' + rows[0]
        rows[-1] += "\n  ]"
        fields += rows
    fields += [_json_field(k, v) for k, v in extra.items()]
    fields[0] = "{\n" + fields[0]
    fields[-1] += "\n}"
    return ",\n".join(fields)


def cmd_chart(d: WpsData, args: argparse.Namespace) -> str:
    fmt = args.format
    n = len(d.b)
    if fmt == "json":
        sectors = [
            {
                "s": s,
                "zeta": _zeta(s, d.ell, False),
                "fixed": list(fixed_set(d, s)),
                "logweights": [_logw(d, k, s, False) for k in range(n)],
                "generator": f"alpha_{s}",
            }
            for s in range(d.ell)
        ]
        return _json_doc("chart", d, sectors=sectors)
    if fmt == "latex":
        cols = "c||" + "|".join("c" * d.ell) + "|"
        rows = [
            "s & " + " & ".join(str(s) for s in range(d.ell)) + " \\\\ \\hline \\hline",
            "\\zeta_s & "
            + " & ".join(_zeta(s, d.ell, True) for s in range(d.ell))
            + " \\\\ \\hline",
            "\\text{fixed locus} & "
            + " & ".join(_fixed(fixed_weights(d, s), n, True) for s in range(d.ell))
            + " \\\\ \\hline",
        ]
        for k in range(n):
            rows.append(
                _sub("a", k) + "(\\zeta_s) & "
                + " & ".join(_logw(d, k, s, True) for s in range(d.ell))
                + " \\\\ \\hline"
            )
        rows.append(
            "\\text{generator} & "
            + " & ".join(_alpha(s, True) for s in range(d.ell))
            + " \\\\ \\hline"
        )
        body = "\n".join(rows)
        return f"\\begin{{array}}{{{cols}}}\n{body}\n\\end{{array}}"
    lines = _header_lines(d)
    for s in range(d.ell):
        logw = ", ".join(_logw(d, k, s, False) for k in range(n))
        lines.append(
            f"sector {s}: zeta = {_zeta(s, d.ell, False)}, "
            f"fixed = {_fixed(fixed_weights(d, s), n, False)}, "
            f"logweights = ({logw}), generator = alpha_{s}"
        )
    return "\n".join(lines)


def _display_rows(d: WpsData, render, names):
    """The rows the table and the I relations print: alpha_0 is the unit,
    so they start at sector 1 unless there is nothing else to show."""
    return sector_rows(d, 1 if d.ell > 1 else 0, render, names)


def _pair_lines(d: WpsData, heads, mids, render, names) -> list[str]:
    """One string per displayed row s: for t = s..ell-1, the lines
    heads[s] + mids[t] + render(ws) + names[target], ws the pair's class."""
    return [
        "\n".join(_concat(repeat(heads[s]), mids[s:], classes, targets))
        for s, classes, targets in _display_rows(d, render, names)
    ]


def cmd_table(d: WpsData, args: argparse.Namespace) -> str:
    fmt = args.format
    if fmt == "json":
        return _json_doc("table", d, table=True)
    prefix = _prefixes(fmt == "latex")
    if fmt == "latex":
        alphas = [_alpha(s, True) for s in range(d.ell)]
        # the cells left of the diagonal stay empty
        rows = [
            alphas[s] + " & " * (i + 1) + " & ".join(_concat(classes, targets))
            + " \\\\ \\hline"
            for i, (s, classes, targets) in enumerate(_display_rows(d, prefix, alphas))
        ]
        header = " & " + " & ".join(alphas[-len(rows):])
        lines = [header + " \\\\ \\hline \\hline"] + rows
        cols = "c||" + "|".join("c" * len(rows)) + "|"
        body = "\n".join(lines)
        return f"\\begin{{array}}{{{cols}}}\n{body}\n\\end{{array}}"
    names = [f"alpha_{s}" for s in range(d.ell)]
    heads = [f"{a} * " for a in names]
    mids = [f"{a} = " for a in names]
    return "\n".join(_header_lines(d) + _pair_lines(d, heads, mids, prefix, names))


def cmd_kernels(d: WpsData, args: argparse.Namespace) -> str:
    fmt = args.format
    rings = build_sector_rings(d)
    if fmt == "json":
        sectors = [
            {
                "s": s,
                "fixed": list(fixed_set(d, s)),
                "kernel": str(r.gen),
                "rank": r.rank,
            }
            for s, r in enumerate(rings)
        ]
        return _json_doc("kernels", d, sectors=sectors)
    if fmt == "latex":
        lines = ["\\begin{align*}"]
        for s in range(d.ell):
            prod = _factors(fixed_weights(d, s), True)
            sep = " \\\\" if s < d.ell - 1 else ""
            lines.append(
                "\\ker(" + _sub("\\kappa", s) + ") &= \\langle "
                + _alpha(s, True) + f" {prod} \\rangle{sep}"
            )
        lines.append("\\end{align*}")
        return "\n".join(lines)
    lines = _header_lines(d)
    for s, r in enumerate(rings):
        prod = _factors(fixed_weights(d, s), False)
        lines.append(f"s={s}: {prod}  [rank {r.rank}]")
    return "\n".join(lines)


def cmd_present(d: WpsData, args: argparse.Namespace) -> str:
    fmt = args.format
    if fmt == "json":
        rows_j = [{"s": s, "gen": str(kernel_generator(d, s))} for s in range(d.ell)]
        return _json_doc(
            "presentation", d, table=True, tableJ=rows_j,
            unit="alpha_0 - 1",
        )
    prefix = _prefixes(fmt == "latex")
    if fmt == "latex":
        alphas = [_alpha(s, True) for s in range(d.ell)]
        heads = [f"{a} " for a in alphas]
        mids = [f"{a} &= " for a in alphas]
        ends = [f"{a} \\\\" for a in alphas]
        lines = ["\\begin{align*}"] + _pair_lines(d, heads, mids, prefix, ends)
        for s in range(d.ell):
            prod = _factors(fixed_weights(d, s), True)
            lines.append(prod + "\\," + alphas[s] + " &= 0 \\\\")
        lines.append("\\alpha_0 &= 1")
        lines.append("\\end{align*}")
        return "\n".join(lines)
    names = [f"alpha_{s}" for s in range(d.ell)]
    heads = [f"  {a} " for a in names]
    mids = [f"{a} - " for a in names]
    lines = _header_lines(d)
    lines.append("generators: " + ", ".join(names))
    lines.append("I relations:")
    lines += _pair_lines(d, heads, mids, prefix, names)
    lines.append("J relations:")
    lines += (f"  {prefix(fixed_weights(d, s))}alpha_{s}" for s in range(d.ell))
    lines.append("unit relation: alpha_0 - 1")
    return "\n".join(lines)


def cmd_rank(d: WpsData, args: argparse.Namespace) -> str:
    fmt = args.format
    rings = build_sector_rings(d)
    total = total_rank(rings)
    if fmt == "json":
        return _json_doc("rank", d, ranks=[r.rank for r in rings], total=total)
    if fmt == "latex":
        return f"\\operatorname{{rank}} = {total}"
    return str(total)


def cmd_torsion(d: WpsData, args: argparse.Namespace) -> str:
    fmt = args.format
    rings = build_sector_rings(d)
    status = "PASS" if torsion_report(rings).passed else "FAIL"
    if fmt == "json":
        sectors = [
            {
                "s": s,
                "rank": r.rank,
                "monic": r.gmonic.monic,
                "constant": r.gmonic.constant,
                "free": r.free,
            }
            for s, r in enumerate(rings)
        ]
        return _json_doc("torsion", d, sectors=sectors, status=status)
    if fmt == "latex":
        ranks = ", ".join(str(r.rank) for r in rings)
        return f"\\text{{torsion-free: {status} (ranks {ranks})}}"
    lines = _header_lines(d)
    for s, r in enumerate(rings):
        kind = "monic" if r.gmonic.monic else "not monic"
        verdict = "free" if r.free else "torsion risk"
        lines.append(
            f"s={s}: rank {r.rank}, {kind}, "
            f"constant term {r.gmonic.constant}: {verdict}"
        )
    lines.append(f"torsion-free: {status}")
    return "\n".join(lines)


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
            failures=list(rep.failures),
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
        comps = [{"s": s, "residue": str(c)} for s, c in nonzero]
        return _json_doc("mul", d, lhs=lhs, rhs=rhs, components=comps)
    if fmt == "latex":
        if not nonzero:
            return "0"
        parts = []
        for s, c in nonzero:
            if c == 1:
                parts.append(_alpha(s, True))
            else:
                parts.append(f"({_poly_latex(c)})\\," + _alpha(s, True))
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    body, code = result if isinstance(result, tuple) else (result, 0)
    try:
        # flush now, so a closed pipe raises here; the unwritten rest then
        # goes to /dev/null, so the interpreter's exit flush cannot raise
        print(body, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
