import argparse
import functools
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import korb.cli
from korb.cli import _COMMANDS, _poly_latex, main
from korb.laurent import LaurentPoly, MonicPoly, parse_laurent
from korb.ring import (
    SectorRing,
    VerifyReport,
    build_sector_rings,
    element_from_residues,
    element_spec,
    random_element,
    star_multiply,
    torsion_report,
)
from korb.sectors import (
    build_wps,
    euler_product,
    fixed_set,
    fixed_weights,
    kernel_generator,
    sector_pairs,
    structure_coefficient,
)


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


CHART_124 = """\
weights: 1,2,4
ell: 4
sector 0: zeta = 1, fixed = C^3, logweights = (0, 0, 0), generator = alpha_0
sector 1: zeta = i, fixed = C_(4), logweights = (1/4, 1/2, 0), generator = alpha_1
sector 2: zeta = -1, fixed = C_(2) + C_(4), logweights = (1/2, 0, 0), generator = alpha_2
sector 3: zeta = -i, fixed = C_(4), logweights = (3/4, 1/2, 0), generator = alpha_3
"""

TABLE_124 = """\
weights: 1,2,4
ell: 4
alpha_1 * alpha_1 = (1-u^-2) alpha_2
alpha_1 * alpha_2 = alpha_3
alpha_1 * alpha_3 = (1-u^-1)(1-u^-2) alpha_0
alpha_2 * alpha_2 = (1-u^-1) alpha_0
alpha_2 * alpha_3 = (1-u^-1) alpha_1
alpha_3 * alpha_3 = (1-u^-1)(1-u^-2) alpha_2
"""

KERNELS_124 = """\
weights: 1,2,4
ell: 4
s=0: (1-u^-1)(1-u^-2)(1-u^-4)  [rank 7]
s=1: (1-u^-4)  [rank 4]
s=2: (1-u^-2)(1-u^-4)  [rank 6]
s=3: (1-u^-4)  [rank 4]
"""

PRESENT_124 = """\
weights: 1,2,4
ell: 4
generators: alpha_0, alpha_1, alpha_2, alpha_3
I relations:
  alpha_1 alpha_1 - (1-u^-2) alpha_2
  alpha_1 alpha_2 - alpha_3
  alpha_1 alpha_3 - (1-u^-1)(1-u^-2) alpha_0
  alpha_2 alpha_2 - (1-u^-1) alpha_0
  alpha_2 alpha_3 - (1-u^-1) alpha_1
  alpha_3 alpha_3 - (1-u^-1)(1-u^-2) alpha_2
J relations:
  (1-u^-1)(1-u^-2)(1-u^-4) alpha_0
  (1-u^-4) alpha_1
  (1-u^-2)(1-u^-4) alpha_2
  (1-u^-4) alpha_3
unit relation: alpha_0 - 1
"""

TORSION_124 = """\
weights: 1,2,4
ell: 4
s=0: rank 7, monic, constant term -1: free
s=1: rank 4, monic, constant term -1: free
s=2: rank 6, monic, constant term 1: free
s=3: rank 4, monic, constant term -1: free
torsion-free: PASS
"""

LATEX_TABLE_124 = """\
\\begin{array}{c||c|c|c|}
 & \\alpha_1 & \\alpha_2 & \\alpha_3 \\\\ \\hline \\hline
\\alpha_1 & (1-u^{-2})\\alpha_2 & \\alpha_3 & (1-u^{-1})(1-u^{-2})\\alpha_0 \\\\ \\hline
\\alpha_2 &  & (1-u^{-1})\\alpha_0 & (1-u^{-1})\\alpha_1 \\\\ \\hline
\\alpha_3 &  &  & (1-u^{-1})(1-u^{-2})\\alpha_2 \\\\ \\hline
\\end{array}
"""


class TestTextGoldens:
    def test_chart(self):
        code, out, err = run("chart", "1,2,4")
        assert (code, err) == (0, "")
        assert out == CHART_124

    def test_table(self):
        code, out, _ = run("table", "1,2,4")
        assert code == 0
        assert out == TABLE_124

    def test_kernels(self):
        code, out, _ = run("kernels", "1,2,4")
        assert code == 0
        assert out == KERNELS_124

    def test_present(self):
        code, out, _ = run("present", "1,2,4")
        assert code == 0
        assert out == PRESENT_124

    def test_torsion(self):
        code, out, _ = run("torsion", "1,2,4")
        assert code == 0
        assert out == TORSION_124

    def test_rank_is_bare_total(self):
        code, out, _ = run("rank", "1,2,4")
        assert code == 0
        assert out == "21\n"

    def test_verify_default(self):
        code, out, _ = run("verify", "1,2,4")
        assert code == 0
        assert out == "PASS (cocycle exhaustive; 500 random associativity trials)\n"

    def test_reduce(self):
        code, out, _ = run("reduce", "1,2,4", "--sector", "1", "--poly", "u^-1")
        assert code == 0
        assert out == "u^3\n"

    def test_mul_plain(self):
        code, out, _ = run("mul", "1,2,4", "--lhs", "1:1", "--rhs", "2:1")
        assert code == 0
        assert out == "3:1\n"

    def test_mul_reduced_sector0(self):
        code, out, _ = run("mul", "1,2,4", "--lhs", "2:1", "--rhs", "2:1")
        assert code == 0
        assert out == "0:-u^6 + u^5 + u^4 - u^3 + u^2 - u\n"

    def test_mul_reduced_sector2(self):
        code, out, _ = run("mul", "1,2,4", "--lhs", "3:1", "--rhs", "3:1")
        assert code == 0
        assert out == "2:u^4 - u^3 - u^2 + u\n"

    def test_mul_collapsed_target_prints_zero(self):
        # in 2,3 the product lands in sector 5 which is collapsed
        code, out, _ = run("mul", "2,3", "--lhs", "2:1", "--rhs", "3:1")
        assert code == 0
        assert out == "0\n"

    def test_generic_zeta_and_empty_fixed_locus(self):
        _, out, _ = run("chart", "2,3")
        assert "sector 1: zeta = e^(2*pi*i*1/6), fixed = 0" in out
        _, out, _ = run("kernels", "2,3")
        assert "s=1: 1  [rank 0]" in out


class TestJsonFormat:
    def test_chart_schema(self):
        code, out, _ = run("chart", "1,2,4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "chart"
        assert doc["weights"] == [1, 2, 4]
        assert doc["ell"] == 4
        sec1 = doc["sectors"][1]
        assert sec1 == {
            "s": 1,
            "zeta": "i",
            "fixed": [2],
            "logweights": ["1/4", "1/2", "0"],
            "generator": "alpha_1",
        }

    def test_table_coeffs_roundtrip(self):
        _, out, _ = run("table", "1,2,4", "--format", "json")
        doc = json.loads(out)
        d = build_wps((1, 2, 4))
        assert len(doc["tableI"]) == 10
        for row in doc["tableI"]:
            want = structure_coefficient(d, row["s"], row["t"])
            assert parse_laurent(row["coeff"]) == want
            assert row["target"] == (row["s"] + row["t"]) % 4

    def test_kernels_roundtrip(self):
        _, out, _ = run("kernels", "2,3", "--format", "json")
        doc = json.loads(out)
        d = build_wps((2, 3))
        for sec in doc["sectors"]:
            assert parse_laurent(sec["kernel"]) == kernel_generator(d, sec["s"])

    def test_present_schema(self):
        _, out, _ = run("present", "1,2,4", "--format", "json")
        doc = json.loads(out)
        assert doc["kind"] == "presentation"
        assert len(doc["tableI"]) == 10
        assert [r["s"] for r in doc["tableJ"]] == [0, 1, 2, 3]
        assert doc["tableJ"][1]["gen"] == "1 - u^-4"
        assert doc["unit"] == "alpha_0 - 1"

    def test_rank_and_torsion(self):
        _, out, _ = run("rank", "1,2,4", "--format", "json")
        doc = json.loads(out)
        assert doc["ranks"] == [7, 4, 6, 4]
        assert doc["total"] == 21
        _, out, _ = run("torsion", "1,2,4", "--format", "json")
        doc = json.loads(out)
        assert doc["status"] == "PASS"
        assert all(sec["free"] for sec in doc["sectors"])

    def test_verify_schema(self):
        code, out, _ = run(
            "verify", "1,2,4", "--format", "json", "--trials", "5", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "PASS"
        assert doc["trials"] == 5
        assert doc["seed"] == 1
        assert doc["exponent_checks"] == 115
        assert doc["failures"] == []

    def test_reduce_and_mul(self):
        _, out, _ = run(
            "reduce", "1,2,4", "--format", "json", "--sector", "1", "--poly", "u^-1"
        )
        doc = json.loads(out)
        assert doc["input"] == "u^-1"
        assert doc["residue"] == "u^3"
        _, out, _ = run(
            "mul", "1,2,4", "--format", "json", "--lhs", "2:1", "--rhs", "2:1"
        )
        doc = json.loads(out)
        assert doc["components"] == [
            {"s": 0, "residue": "-u^6 + u^5 + u^4 - u^3 + u^2 - u"}
        ]

    def test_mul_multicomponent_matches_library(self):
        _, out, _ = run(
            "mul", "1,2,4", "--format", "json",
            "--lhs", "1:1;2:u", "--rhs", "1:1+u",
        )
        doc = json.loads(out)
        d = build_wps((1, 2, 4))
        rings = build_sector_rings(d)
        x = element_from_residues(
            rings, d, {1: parse_laurent("1"), 2: parse_laurent("u")}
        )
        y = element_from_residues(rings, d, {1: parse_laurent("1+u")})
        prod = star_multiply(rings, d, x, y)
        got = {c["s"]: parse_laurent(c["residue"]) for c in doc["components"]}
        for s, comp in enumerate(prod.comps):
            assert got.get(s, parse_laurent("0")) == comp


class TestLatexFormat:
    def test_table_golden(self):
        code, out, _ = run("table", "1,2,4", "--format", "latex")
        assert code == 0
        assert out == LATEX_TABLE_124
        assert "(1-u^{-1})\\alpha_1" in out

    def test_chart_pieces(self):
        _, out, _ = run("chart", "1,2,4", "--format", "latex")
        assert out.startswith("\\begin{array}{c||c|c|c|c|}")
        assert "\\zeta_s & 1 & i & -1 & -i \\\\ \\hline" in out
        assert "a_0(\\zeta_s) & 0 & \\frac{1}{4} & \\frac{1}{2} & \\frac{3}{4}" in out
        assert "\\mathbb{C}^{3}" in out
        assert "\\mathbb{C}_{(2)} \\oplus \\mathbb{C}_{(4)}" in out

    def test_kernels_pieces(self):
        _, out, _ = run("kernels", "1,2,4", "--format", "latex")
        assert out.startswith("\\begin{align*}")
        assert (
            "\\ker(\\kappa_0) &= \\langle \\alpha_0 "
            "(1-u^{-1})(1-u^{-2})(1-u^{-4}) \\rangle" in out
        )
        assert out.rstrip().endswith("\\end{align*}")

    def test_present_pieces(self):
        _, out, _ = run("present", "1,2,4", "--format", "latex")
        assert "\\alpha_1 \\alpha_1 &= (1-u^{-2})\\alpha_2 \\\\" in out
        assert "(1-u^{-4})\\,\\alpha_1 &= 0 \\\\" in out
        assert "\\alpha_0 &= 1" in out

    def test_scalar_commands(self):
        _, out, _ = run("rank", "1,2,4", "--format", "latex")
        assert out == "\\operatorname{rank} = 21\n"
        _, out, _ = run(
            "reduce", "1,2,4", "--format", "latex", "--sector", "1", "--poly", "u^-1"
        )
        assert out == "u^{3}\n"
        _, out, _ = run(
            "mul", "1,2,4", "--format", "latex", "--lhs", "1:1", "--rhs", "2:1"
        )
        assert out == "\\alpha_3\n"

    def test_verify_pass(self):
        assert run("verify", "1,2,4", "--format", "latex", "--trials", "3") == (
            0, "\\text{PASS (cocycle exhaustive; 3 random associativity trials)}\n", ""
        )

    def test_verify_fail(self, monkeypatch):
        report = VerifyReport((1, 2, 4), 4, 3, 0, 115, ("a fails", "b fails"), False)
        monkeypatch.setattr(korb.cli, "verify", lambda d, trials, seed: report)
        assert run("verify", "1,2,4", "--format", "latex", "--trials", "3") == (
            1, "\\text{FAIL (2 failures)}\n", ""
        )

    def test_mul_zero_product(self):
        # sector 1 of 2,3 fixes nothing, so alpha_1 is zero
        assert run("mul", "2,3", "--format", "latex", "--lhs", "1:1", "--rhs", "1:1") == (
            0, "0\n", ""
        )

    def test_mul_non_unit_coefficient(self):
        code, out, _ = run(
            "mul", "1,2,4", "--format", "latex", "--lhs", "1:1", "--rhs", "3:2u"
        )
        assert (code, out) == (0, "(2u^{5}-2u^{4}-2u^{3}+2u^{2})\\,\\alpha_0\n")


GOLDENS = Path(__file__).parent / "goldens"


def _poly_latex_by_terms(p: LaurentPoly) -> str:
    """Reference LaTeX printer, built term by term without LaurentPoly.__str__."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for e, c in p:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            upart = "u" if e == 1 else f"u^{{{e}}}"
            body = upart if mag == 1 else f"{mag}{upart}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


class TestPolyLatex:
    @given(
        st.dictionaries(
            st.integers(min_value=-40, max_value=40),
            st.one_of(
                st.sampled_from([1, -1]),
                st.integers(min_value=-9, max_value=9),
                st.integers(min_value=-(10**40), max_value=10**40),
            ),
            max_size=12,
        )
    )
    def test_matches_term_by_term_printer(self, terms):
        p = LaurentPoly(terms)
        assert _poly_latex(p) == _poly_latex_by_terms(p)

    def test_zero(self):
        assert _poly_latex(LaurentPoly()) == "0"


class TestByteGoldens:
    """Full stdout pinned byte for byte, one file per command, weights and
    format: goldens/<command>_<weights with '-'>.<format>.txt."""

    @pytest.mark.parametrize(
        "path", sorted(GOLDENS.glob("*.txt")), ids=lambda p: p.stem
    )
    def test_stdout(self, path):
        stem, fmt = path.stem.rsplit(".", 1)
        command, weights = stem.split("_")
        code, out, err = run(command, weights.replace("-", ","), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == path.read_text()

    def test_every_golden_is_collected(self):
        assert len(list(GOLDENS.glob("*.txt"))) == 14


class TestCrossFormatConsistency:
    def test_text_table_cells_multiply_to_json_coeffs(self):
        _, text_out, _ = run("table", "1,2,4")
        _, json_out, _ = run("table", "1,2,4", "--format", "json")
        doc = json.loads(json_out)
        coeffs = {(r["s"], r["t"]): parse_laurent(r["coeff"]) for r in doc["tableI"]}
        cell_re = re.compile(
            r"^alpha_(\d+) \* alpha_(\d+) = (.*?)\s*alpha_(\d+)$"
        )
        seen = 0
        for line in text_out.splitlines()[2:]:
            m = cell_re.match(line)
            assert m, line
            s, t = int(m.group(1)), int(m.group(2))
            prod = parse_laurent("1")
            for factor in re.findall(r"\(([^)]*)\)", m.group(3)):
                prod = prod * parse_laurent(factor)
            assert prod == coeffs[(s, t)]
            seen += 1
        assert seen == 6


# Flags for the commands that need more than weights and --format.
COMMAND_FLAGS = {
    "verify": ["--trials", "3"],
    "reduce": ["--sector", "0", "--poly", "3u^-7 + u^2 - 2"],
    "mul": ["--lhs", "0:1+u", "--rhs", "0:u^-1 - 4"],
}


class TestJsonWriter:
    """The JSON documents are written field by field, tables row by row:
    they must read back and re-dump to the same bytes."""

    @pytest.mark.parametrize("weights", ["1", "1,2,4", "2,2,3", "3,4,5"])
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_redumps_byte_identically(self, command, weights):
        code, out, err = run(
            command, weights, "--format", "json", *COMMAND_FLAGS.get(command, [])
        )
        assert (code, err) == (0, "")
        assert json.dumps(json.loads(out), indent=2) == out[:-1]


def reference_render(b, command, latex):
    """table/present from the weights alone: weight w is obstructed in the
    pair (s, t) when it carries, (w*s mod ell) + (w*t mod ell) >= ell."""
    ell = math.lcm(*b)
    first = 1 if ell > 1 else 0
    if latex:
        alpha = lambda s: f"\\alpha_{s}" if s < 10 else f"\\alpha_{{{s}}}"
        factor, sep = "(1-u^{{-{}}})", ""
    else:
        alpha, factor, sep = "alpha_{}".format, "(1-u^-{})", " "

    def cell(ws, s):
        return "".join(map(factor.format, ws)) + (sep if ws else "") + alpha(s)

    cells = {
        (s, t): cell([w for w in b if w * s % ell + w * t % ell >= ell], (s + t) % ell)
        for s in range(first, ell)
        for t in range(s, ell)
    }
    fixed = [[w for w in b if w * s % ell == 0] for s in range(ell)]
    head = [f"weights: {','.join(map(str, b))}", f"ell: {ell}"]
    if command == "table" and latex:
        sectors = range(first, ell)
        rows = [[alpha(s)] + [cells.get((s, t), "") for t in sectors] for s in sectors]
        lines = ["\\begin{array}{c||" + "|".join("c" * len(rows)) + "|}"]
        lines.append(" & " + " & ".join(r[0] for r in rows) + " \\\\ \\hline \\hline")
        lines += [" & ".join(r) + " \\\\ \\hline" for r in rows] + ["\\end{array}"]
    elif command == "table":
        lines = head + [f"alpha_{s} * alpha_{t} = {c}" for (s, t), c in cells.items()]
    elif latex:
        lines = ["\\begin{align*}"]
        lines += [f"{alpha(s)} {alpha(t)} &= {c} \\\\" for (s, t), c in cells.items()]
        for s in range(ell):
            prod = "".join(map(factor.format, fixed[s])) or "1"
            lines.append(f"{prod}\\,{alpha(s)} &= 0 \\\\")
        lines += ["\\alpha_0 &= 1", "\\end{align*}"]
    else:
        lines = head + ["generators: " + ", ".join(map(alpha, range(ell)))]
        lines += ["I relations:"]
        lines += [f"  alpha_{s} alpha_{t} - {c}" for (s, t), c in cells.items()]
        lines += ["J relations:"] + [f"  {cell(fixed[s], s)}" for s in range(ell)]
        lines += ["unit relation: alpha_0 - 1"]
    return "\n".join(lines) + "\n"


class TestPairTablesAgainstReference:
    @pytest.mark.parametrize("fmt", ["text", "latex"])
    @pytest.mark.parametrize("command", ["table", "present"])
    @pytest.mark.parametrize("b", [(2, 2, 3), (4, 6)])
    def test_matches_reference_renderer(self, b, command, fmt):
        code, out, err = run(command, ",".join(map(str, b)), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == reference_render(b, command, fmt == "latex")

    def test_reference_reproduces_the_124_goldens(self):
        assert reference_render((1, 2, 4), "table", False) == TABLE_124
        assert reference_render((1, 2, 4), "table", True) == LATEX_TABLE_124
        assert reference_render((1, 2, 4), "present", False) == PRESENT_124


def json_field(key, v):
    return f"  {json.dumps(key)}: " + json.dumps(v, indent=2).replace("\n", "\n  ")


def per_pair_render(d, command, fmt):
    """table/present as one f-string per pair over sector_pairs, the way
    the renderers wrote them before they built a row at a time."""
    cli = korb.cli
    if fmt == "json":
        coeff = functools.cache(lambda ws: json.dumps(str(euler_product(ws))))
        rows = ",\n".join(
            f'    {{\n      "s": {s},\n      "t": {t},\n      "target": {tgt},\n'
            f'      "coeff": {coeff(ws)}\n    }}'
            for s, t, tgt, ws in sector_pairs(d, 0)
        )
        head = {"kind": "table" if command == "table" else "presentation",
                "weights": list(d.b), "ell": d.ell}
        fields = [json_field(k, v) for k, v in head.items()]
        fields.append(f'  "tableI": [\n{rows}\n  ]')
        if command == "present":
            rows_j = [{"s": s, "gen": str(kernel_generator(d, s))} for s in range(d.ell)]
            fields.append(json_field("tableJ", rows_j))
            fields.append(json_field("unit", "alpha_0 - 1"))
        return "{\n" + ",\n".join(fields) + "\n}\n"
    prefix = cli._prefixes(fmt == "latex")
    pairs = list(sector_pairs(d, 1 if d.ell > 1 else 0))
    latex = fmt == "latex"
    alphas = [cli._sub("\\alpha", s) if latex else f"alpha_{s}" for s in range(d.ell)]
    if command == "table" and fmt == "latex":
        rows = []
        for s, t, tgt, ws in pairs:
            if t == s:
                rows.append([alphas[s]] + [""] * len(rows))
            rows[-1].append(prefix(ws) + alphas[tgt])
        lines = [" & " + " & ".join(row[0] for row in rows) + " \\\\ \\hline \\hline"]
        lines += [" & ".join(row) + " \\\\ \\hline" for row in rows]
        cols = "c||" + "|".join("c" * len(rows)) + "|"
        body = "\n".join(lines)
        return f"\\begin{{array}}{{{cols}}}\n{body}\n\\end{{array}}\n"
    if command == "table":
        lines = cli._header_lines(d)
        lines += (f"alpha_{s} * alpha_{t} = {prefix(ws)}alpha_{tgt}" for s, t, tgt, ws in pairs)
    elif fmt == "latex":
        lines = ["\\begin{align*}"]
        lines += (
            f"{alphas[s]} {alphas[t]} &= {prefix(ws)}{alphas[tgt]} \\\\"
            for s, t, tgt, ws in pairs
        )
        for s in range(d.ell):
            prod = cli._factors(fixed_weights(d, s), True)
            lines.append(prod + "\\," + alphas[s] + " &= 0 \\\\")
        lines += ["\\alpha_0 &= 1", "\\end{align*}"]
    else:
        lines = cli._header_lines(d)
        lines.append("generators: " + ", ".join(alphas))
        lines.append("I relations:")
        lines += (f"  alpha_{s} alpha_{t} - {prefix(ws)}alpha_{tgt}" for s, t, tgt, ws in pairs)
        lines.append("J relations:")
        lines += (f"  {prefix(fixed_weights(d, s))}alpha_{s}" for s in range(d.ell))
        lines.append("unit relation: alpha_0 - 1")
    return "\n".join(lines) + "\n"


class TestRowRenderersMatchPerPairRenderers:
    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("command", ["table", "present"])
    @pytest.mark.parametrize(
        "weights", ["1", "2,3", "1,2,4", "1,1,1,3,5", "6,10,15", "3,4,5", "5,7,8"]
    )
    def test_same_bytes(self, weights, command, fmt):
        code, out, err = run(command, weights, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == per_pair_render(build_wps(map(int, weights.split(","))), command, fmt)


def per_sector_render(d, command, fmt):
    """chart/kernels/torsion/rank one sector at a time, the way the
    renderers wrote them before they built rows from per-class cells: one
    fixed set, logweight and ring lookup per sector, JSON through the
    stdlib encoder.  Rings come from korb.cli.build_sector_rings, so a
    test that substitutes rings sees them here too."""
    n, ell, latex = len(d.b), d.ell, fmt == "latex"
    sub = lambda base, i: f"{base}_{i}" if 0 <= i <= 9 else f"{base}_{{{i}}}"

    def lowest(a):
        g = math.gcd(a, ell)
        return a // g, ell // g

    def zeta(s):
        p, q = lowest(s)
        named = {(0, 1): "1", (1, 2): "-1", (1, 4): "i", (3, 4): "-i"}
        if (p, q) in named:
            return named[p, q]
        return f"e^{{2\\pi i\\,{p}/{q}}}" if latex else f"e^(2*pi*i*{p}/{q})"

    def logw(k, s):
        p, q = lowest(d.logw[k][s])
        if q == 1:
            return str(p)
        return f"\\frac{{{p}}}{{{q}}}" if latex else f"{p}/{q}"

    def fixed(ws):
        if len(ws) == n:
            return f"\\mathbb{{C}}^{{{n}}}" if latex else f"C^{n}"
        if not ws:
            return "0"
        if latex:
            return " \\oplus ".join(f"\\mathbb{{C}}_{{({w})}}" for w in ws)
        return " + ".join(f"C_({w})" for w in ws)

    def factors(ws):
        form = "(1-u^{{-{}}})" if latex else "(1-u^-{})"
        return "".join(map(form.format, ws)) or "1"

    def doc(kind, **extra):
        fields = {"kind": kind, "weights": list(d.b), "ell": ell, **extra}
        return json.dumps(fields, indent=2) + "\n"

    head = [f"weights: {','.join(map(str, d.b))}", f"ell: {ell}"]
    if command == "chart":
        if fmt == "json":
            return doc("chart", sectors=[
                {"s": s, "zeta": zeta(s), "fixed": list(fixed_set(d, s)),
                 "logweights": [logw(k, s) for k in range(n)], "generator": f"alpha_{s}"}
                for s in range(ell)
            ])
        if latex:
            rows = [
                "s & " + " & ".join(str(s) for s in range(ell)) + " \\\\ \\hline \\hline",
                "\\zeta_s & " + " & ".join(zeta(s) for s in range(ell)) + " \\\\ \\hline",
                "\\text{fixed locus} & "
                + " & ".join(fixed(fixed_weights(d, s)) for s in range(ell)) + " \\\\ \\hline",
            ]
            for k in range(n):
                cells = " & ".join(logw(k, s) for s in range(ell))
                rows.append(sub("a", k) + "(\\zeta_s) & " + cells + " \\\\ \\hline")
            alphas = " & ".join(sub("\\alpha", s) for s in range(ell))
            rows.append("\\text{generator} & " + alphas + " \\\\ \\hline")
            cols = "c||" + "|".join("c" * ell) + "|"
            return f"\\begin{{array}}{{{cols}}}\n" + "\n".join(rows) + "\n\\end{array}\n"
        lines = head + [
            f"sector {s}: zeta = {zeta(s)}, fixed = {fixed(fixed_weights(d, s))}, "
            f"logweights = ({', '.join(logw(k, s) for k in range(n))}), generator = alpha_{s}"
            for s in range(ell)
        ]
        return "\n".join(lines) + "\n"
    rings = korb.cli.build_sector_rings(d)
    if command == "kernels":
        if fmt == "json":
            return doc("kernels", sectors=[
                {"s": s, "fixed": list(fixed_set(d, s)), "kernel": str(r.gen), "rank": r.rank}
                for s, r in enumerate(rings)
            ])
        if latex:
            lines = [
                "\\ker(" + sub("\\kappa", s) + ") &= \\langle " + sub("\\alpha", s)
                + f" {factors(fixed_weights(d, s))} \\rangle" + (" \\\\" if s < ell - 1 else "")
                for s in range(ell)
            ]
            return "\\begin{align*}\n" + "\n".join(lines) + "\n\\end{align*}\n"
        lines = head + [
            f"s={s}: {factors(fixed_weights(d, s))}  [rank {r.rank}]"
            for s, r in enumerate(rings)
        ]
        return "\n".join(lines) + "\n"
    if command == "rank":
        total = sum(r.rank for r in rings)
        if fmt == "json":
            return doc("rank", ranks=[r.rank for r in rings], total=total)
        return (f"\\operatorname{{rank}} = {total}" if latex else str(total)) + "\n"
    status = "PASS" if all(r.free for r in rings) else "FAIL"
    if fmt == "json":
        return doc("torsion", sectors=[
            {"s": s, "rank": r.rank, "monic": r.gmonic.monic,
             "constant": r.gmonic.constant, "free": r.free}
            for s, r in enumerate(rings)
        ], status=status)
    if latex:
        ranks = ", ".join(str(r.rank) for r in rings)
        return f"\\text{{torsion-free: {status} (ranks {ranks})}}\n"
    lines = head + [
        f"s={s}: rank {r.rank}, {'monic' if r.gmonic.monic else 'not monic'}, "
        f"constant term {r.gmonic.constant}: {'free' if r.free else 'torsion risk'}"
        for s, r in enumerate(rings)
    ]
    return "\n".join(lines + [f"torsion-free: {status}"]) + "\n"


CLASS_VECTORS = ["1", "2,3", "1,2,4", "4,6", "1,1,1,3,5", "6,10,15", "3,4,5", "5,7,8"]


class TestClassRenderersMatchPerSectorRenderers:
    """chart, kernels, torsion, rank and present's J relations are built
    from per-class, per-ring and per-residue cells; they must give the
    bytes of the per-sector renderers.  Several vectors have sectors that
    fix nothing ("fixed": [])."""

    def check(self, weights, command, fmt):
        code, out, err = run(command, weights, "--format", fmt)
        assert (code, err) == (0, "")
        d = build_wps(map(int, weights.split(",")))
        if command == "present":
            assert out == per_pair_render(d, command, fmt)
        else:
            assert out == per_sector_render(d, command, fmt)

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("command", ["chart", "kernels", "torsion", "rank", "present"])
    @pytest.mark.parametrize("weights", CLASS_VECTORS)
    def test_same_bytes(self, weights, command, fmt):
        self.check(weights, command, fmt)

    def test_some_sector_fixes_nothing(self):
        _, out, _ = run("chart", "2,3", "--format", "json")
        assert '"fixed": [],' in out

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("command", ["kernels", "torsion", "rank"])
    def test_same_bytes_with_substituted_rings(self, monkeypatch, command, fmt):
        # the rings are keyed by object, not by class: sectors 1 and 3 of
        # 1,2,4 share a class but get different rings here
        monkeypatch.setattr(
            korb.cli, "build_sector_rings", TestTorsionFailurePath.patched_rings
        )
        self.check("1,2,4", command, fmt)
        assert "torsion risk" in per_sector_render(build_wps((1, 2, 4)), "torsion", "text")


class TestOneFixedSetPerClass:
    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("command", ["chart", "kernels"])
    def test_at_most_one_call_per_divisor_class(self, monkeypatch, command, fmt):
        d = build_wps((8, 9, 11))
        calls = []
        real = korb.sectors.fixed_set
        counting = lambda d, s: calls.append(s) or real(d, s)
        monkeypatch.setattr(korb.sectors, "fixed_set", counting)
        monkeypatch.setattr(korb.cli, "fixed_set", counting)
        build_sector_rings(d)
        own = len(calls) if command == "kernels" else 0
        calls.clear()
        code, out, err = run(command, "8,9,11", "--format", fmt)
        assert (code, err) == (0, "")
        # the 792 sectors have 5 fixed sets: none, {8}, {9}, {11} and all
        assert len(calls) - own == 5


class TestOneClassWalk:
    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("command", ["kernels", "torsion", "rank"])
    def test_each_sector_class_read_once(self, monkeypatch, command, fmt):
        # a sector's class is its fixed set, found by striding over the
        # multiples of each ell/b_k with no gcd; each walk makes one value
        # per fixed set, from the least sector that has it
        assert not hasattr(korb.sectors, "gcd")
        gcds, walks = [], []
        for module in (korb.cli, korb.ring):
            monkeypatch.setattr(module, "gcd", lambda a, b: gcds.append(a) or math.gcd(a, b))
        real = korb.sectors.by_class

        def walk(d, make):
            walks.append([])
            return real(d, lambda g: walks[-1].append(g) or make(g))

        monkeypatch.setattr(korb.cli, "by_class", walk)
        monkeypatch.setattr(korb.ring, "by_class", walk)
        code, out, err = run(command, "8,9,11", "--format", fmt)
        assert (code, err) == (0, "")
        assert gcds == []
        # all three coordinates, none, {11}, {9} and {8}
        assert walks and all(sorted(w) == [0, 1, 72, 88, 99] for w in walks)


class TestLogweightTableOnlyWhereRead:
    """build_wps gives no logweight table: only chart and verify's exponent
    battery read d.logw, which builds it; every other command computes
    residues from the weights."""

    @pytest.fixture
    def reads(self, monkeypatch):
        reads = []
        built = korb.sectors.WpsData.logw
        monkeypatch.setattr(
            korb.sectors.WpsData, "logw", property(lambda d: reads.append(d.b) or built.__get__(d))
        )
        return reads

    @pytest.mark.parametrize(
        "argv",
        [
            *((command, "--format", fmt) for command in ("kernels", "rank", "torsion")
              for fmt in ("text", "latex", "json")),
            ("table",),
            ("present",),
            ("mul", "--lhs", "0:1 + u; 99:2", "--rhs", "198:u^-1; 0:3"),
            ("reduce", "--sector", "0", "--poly", "u^-100 + 7u^1000"),
        ],
        ids=" ".join,
    )
    def test_commands_on_8_9_11_never_read_it(self, reads, argv):
        code, out, err = run(argv[0], "8,9,11", *argv[1:])
        assert (code, err) == (0, "")
        assert reads == []

    @pytest.mark.parametrize("argv", [("chart",), ("verify", "--trials", "1")], ids=" ".join)
    def test_chart_and_verify_read_it(self, reads, argv):
        code, out, err = run(argv[0], "1,2,4", *argv[1:])
        assert (code, err) == (0, "")
        assert reads


class TestTableMemory:
    def test_text_table_8_9_11_is_joined_a_row_at_a_time(self):
        # the output is 14 MiB; one string per pair line peaked at 42-45 MiB
        # under tracemalloc (CPython 3.10-3.13), the whole output joined
        # from one string per row at 28 MiB.  Streamed a row at a time, the
        # chunks consumed and dropped, it peaks at 0.37 MiB (CPython 3.11):
        # the ell-long name, head, key and target lists, and one row of
        # up to 791 lines, about 32 KiB, with the lines it is joined from
        d = build_wps((8, 9, 11))
        args = argparse.Namespace(format="text")
        tracemalloc.start()
        try:
            newlines = sum(chunk.count("\n") for chunk in korb.cli.cmd_table(d, args))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert newlines == 2 + 791 * 792 // 2 - 1
        assert peak < 2**20


# (a, ell) with 0 <= a < ell
RESIDUES = st.integers(1, 10**6).flatmap(
    lambda ell: st.tuples(st.integers(0, ell - 1), st.just(ell))
)


def fraction_reference(a, ell, latex):
    f = Fraction(a, ell)
    if latex and f.denominator != 1:
        return f"\\frac{{{f.numerator}}}{{{f.denominator}}}"
    return str(f)


class TestLowestTerms:
    """_residues reduces a/ell by gcd for both its zetas and its fractions;
    Fraction gives the same text."""

    @given(RESIDUES, st.booleans())
    def test_logw_matches_fraction(self, a_ell, latex):
        a, ell = a_ell
        assert korb.cli._residues([a], ell, latex)[1] == [fraction_reference(a, ell, latex)]

    @given(RESIDUES, st.booleans())
    def test_zeta_matches_fraction(self, s_ell, latex):
        s, ell = s_ell
        f = Fraction(s, ell)
        p, q = f.numerator, f.denominator
        named = {(0, 1): "1", (1, 2): "-1", (1, 4): "i", (3, 4): "-i"}
        if (p, q) in named:
            expected = named[p, q]
        elif latex:
            expected = f"e^{{2\\pi i\\,{p}/{q}}}"
        else:
            expected = f"e^(2*pi*i*{p}/{q})"
        assert korb.cli._residues([s], ell, latex)[0] == [expected]


class TestFactorsRenderedOncePerClass:
    """A weight vector with 7 coordinates has at most 2^7 obstruction
    classes, against 87,990 displayed pairs on 1..7."""

    @pytest.mark.parametrize(
        "command, fmt", [("table", "text"), ("table", "latex"), ("present", "text")]
    )
    def test_at_most_one_render_per_class(self, monkeypatch, command, fmt):
        calls = []
        render = korb.cli._factors

        def counting(ws, latex):
            calls.append(ws)
            return render(ws, latex)

        monkeypatch.setattr(korb.cli, "_factors", counting)
        code, out, err = run(command, "1,2,3,4,5,6,7", "--format", fmt)
        assert (code, err) == (0, "")
        assert out.count("(1-u^") > 2**7
        assert len(calls) == len(set(calls)) <= 2**7


class TestErrorPaths:
    def test_bad_weight_named_by_index(self):
        code, out, err = run("chart", "1,0,4")
        assert code == 2
        assert out == ""
        assert err == "error: weight b_1 must be a positive integer, got 0\n"

    def test_non_integer_weights(self):
        code, _, err = run("chart", "a,b")
        assert code == 2
        assert err == "error: weights must be comma-separated integers, got 'a,b'\n"

    def test_sector_out_of_range(self):
        code, _, err = run("reduce", "1,2,4", "--sector", "9", "--poly", "1")
        assert code == 2
        assert err == "error: sector index 9 out of range [0, 4)\n"

    def test_malformed_poly_reports_position(self):
        code, _, err = run("reduce", "1,2,4", "--sector", "1", "--poly", "u^")
        assert code == 2
        assert err == "error: expected an integer (at position 2)\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ("rank", "1_0,2"),
                "error: weights must be comma-separated integers, got '1_0,2'\n",
            ),
            (
                ("mul", "1,2,4", "--lhs", "١:1", "--rhs", "0:1"),
                "error: bad sector index '١'\n",
            ),
            (
                ("reduce", "1,2,4", "--sector", "1", "--poly", "u^²"),
                "error: expected an integer (at position 2)\n",
            ),
        ],
        ids=["weights-1_0", "sector-arabic-indic-1", "poly-superscript-2"],
    )
    def test_integers_are_ascii_decimal(self, argv, err):
        assert run(*argv) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (("reduce", "1,2,4", "--poly", "u^-1"), "--sector", "١"),
            (("verify", "1,2,4"), "--trials", "1_0"),
            (("verify", "1,2,4", "--trials", "1"), "--seed", "٣"),
        ],
        ids=["sector-arabic-indic-1", "trials-1_0", "seed-arabic-indic-3"],
    )
    def test_integer_flags_are_ascii_decimal(self, argv, flag, value):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, value])
        assert (exc.value.code, out.getvalue()) == (2, "")
        assert f"argument {flag}: invalid int value: {value!r}" in err.getvalue()

    def test_integer_flags_take_signs_and_spaces(self):
        assert run("reduce", "1,2,4", "--sector", " +1 ", "--poly", "u^-1") == (
            0, "u^3\n", ""
        )

    @pytest.mark.parametrize(
        "lhs, err",
        [
            ("1:1;", "error: empty component in element spec\n"),
            ("u", "error: component 'u' must look like 'sector:polynomial'\n"),
        ],
        ids=["empty-component", "no-colon"],
    )
    def test_malformed_element_spec(self, lhs, err):
        assert run("mul", "1,2,4", "--lhs", lhs, "--rhs", "0:1") == (2, "", err)

    def test_duplicate_sector_in_spec(self):
        code, _, err = run("mul", "1,2,4", "--lhs", "1:1;1:u", "--rhs", "0:1")
        assert code == 2
        assert err == "error: sector 1 assigned twice in element spec\n"

    def test_trials_floor(self):
        code, _, err = run("verify", "1,2,4", "--trials", "0")
        assert code == 2
        assert err == "error: --trials must be >= 1\n"

    @pytest.mark.parametrize("command", ["table", "present"])
    @pytest.mark.parametrize(
        "fmt, patched", [("text", "_prefixes"), ("latex", "_prefixes"), ("json", "euler_product")]
    )
    def test_value_error_mid_stream_exits_2(self, monkeypatch, command, fmt, patched):
        # table and present are written a row at a time, and each row
        # renders the classes it meets first; on 3,4,5 the classes of two
        # obstructed weights first show after row 1.  A class renderer that
        # fails once two chunks are out fails mid-stream: exit 2, korb's
        # error line and no traceback, and what was written stays written
        class Chunks(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        _, whole, _ = run(command, "3,4,5", "--format", fmt)
        out, err = Chunks(), io.StringIO()

        def failing(render):
            def render_or_fail(ws):
                if out.writes >= 2:
                    raise ValueError("class renderer failed")
                return render(ws)
            return render_or_fail

        real = getattr(korb.cli, patched)
        if patched == "_prefixes":
            monkeypatch.setattr(korb.cli, patched, lambda latex: failing(real(latex)))
        else:
            monkeypatch.setattr(korb.cli, patched, failing(real))
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "3,4,5", "--format", fmt])
        assert (code, err.getvalue()) == (2, "error: class renderer failed\n")
        assert out.writes >= 2
        assert whole.startswith(out.getvalue()) and len(out.getvalue()) < len(whole)


class TestTorsionFailurePath:
    """Rings whose generators are not monic, or have constant term 2, are
    reported as torsion risks in every format, and the run still exits 0."""

    NOT_MONIC = SectorRing(LaurentPoly({0: 1, 1: 2}), MonicPoly((1, 2), 0, False), 1)
    CONSTANT_2 = SectorRing(LaurentPoly({0: 2, 1: 1}), MonicPoly((2, 1), 0, True), 1)

    @staticmethod
    def patched_rings(d):
        rings = build_sector_rings(d)
        bad = (TestTorsionFailurePath.NOT_MONIC, TestTorsionFailurePath.CONSTANT_2)
        return rings[:1] + bad + rings[3:]

    @pytest.fixture(autouse=True)
    def bad_rings(self, monkeypatch):
        monkeypatch.setattr(korb.cli, "build_sector_rings", self.patched_rings)

    def test_report_fails_and_neither_ring_is_free(self):
        rings = korb.cli.build_sector_rings(build_wps((1, 2, 4)))
        assert torsion_report(rings).passed is False
        assert self.NOT_MONIC.free is False
        assert self.CONSTANT_2.free is False

    def test_text(self):
        code, out, err = run("torsion", "1,2,4")
        assert (code, err) == (0, "")
        assert out.splitlines()[3:] == [
            "s=1: rank 1, not monic, constant term 1: torsion risk",
            "s=2: rank 1, monic, constant term 2: torsion risk",
            "s=3: rank 4, monic, constant term -1: free",
            "torsion-free: FAIL",
        ]

    def test_json(self):
        code, out, err = run("torsion", "1,2,4", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["status"] == "FAIL"
        assert doc["sectors"][1:3] == [
            {"s": 1, "rank": 1, "monic": False, "constant": 1, "free": False},
            {"s": 2, "rank": 1, "monic": True, "constant": 2, "free": False},
        ]

    def test_latex(self):
        assert run("torsion", "1,2,4", "--format", "latex") == (
            0, "\\text{torsion-free: FAIL (ranks 7, 1, 1, 4)}\n", ""
        )


class TestKernelsWithSubstitutedRings:
    """kernels renders each sector from its own ring: substituted rings
    show in their sectors, next to those sectors' fixed sets."""

    @pytest.fixture(autouse=True)
    def bad_rings(self, monkeypatch):
        monkeypatch.setattr(
            korb.cli, "build_sector_rings", TestTorsionFailurePath.patched_rings
        )

    def test_text(self):
        code, out, err = run("kernels", "1,2,4")
        assert (code, err) == (0, "")
        assert out.splitlines()[3:] == [
            "s=1: (1-u^-4)  [rank 1]",
            "s=2: (1-u^-2)(1-u^-4)  [rank 1]",
            "s=3: (1-u^-4)  [rank 4]",
        ]

    def test_json(self):
        code, out, err = run("kernels", "1,2,4", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["sectors"][1:] == [
            {"s": 1, "fixed": [2], "kernel": "2u + 1", "rank": 1},
            {"s": 2, "fixed": [1, 2], "kernel": "u + 2", "rank": 1},
            {"s": 3, "fixed": [2], "kernel": "1 - u^-4", "rank": 4},
        ]


class TestVerifyFailuresReplay:
    def test_printed_operands_rebuild_the_trial(self, monkeypatch):
        # doubling c(1,1) alone keeps every law but associativity:
        # (alpha_1 alpha_1) alpha_2 doubles, alpha_1 (alpha_1 alpha_2) does not
        real = korb.ring.structure_coefficient
        monkeypatch.setattr(
            korb.ring,
            "structure_coefficient",
            lambda d, s, t: real(d, s, t) * 2 if (s, t) == (1, 1) else real(d, s, t),
        )
        seed = 5
        code, out, _ = run("verify", "1,2,4", "--trials", "3", "--seed", str(seed))
        assert code == 1
        lines = [line[4:] for line in out.splitlines()[1:]]
        assert lines and all(line.startswith("associativity fails at trial ") for line in lines)
        d = build_wps((1, 2, 4))
        rings = build_sector_rings(d)
        rng = random.Random(seed)
        trials = [[random_element(rings, d, rng) for _ in "xyz"] for _ in range(3)]
        for line in lines:
            m = re.fullmatch(
                rf"associativity fails at trial (\d) of seed {seed}: "
                r"x='([^']*)' y='([^']*)' z='([^']*)'",
                line,
            )
            assert m, line
            operands = [korb.cli._parse_element_spec(spec, rings, d) for spec in m.groups()[1:]]
            assert operands == trials[int(m[1])]
            # the printed x and y are what korb mul takes
            code, out, _ = run("mul", "1,2,4", "--lhs", m[2], "--rhs", m[3])
            assert code == 0
            assert out == element_spec(star_multiply(rings, d, *operands[:2])) + "\n"


def usage_error(*args):
    """The exit status and stderr of a main call that argparse rejects."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(list(args))
    return exc.value.code, err.getvalue()


# The extra flags each subcommand takes besides the weights and --format.
EXTRA_FLAGS = {
    "chart": set(),
    "table": set(),
    "kernels": set(),
    "present": set(),
    "rank": set(),
    "torsion": set(),
    "verify": {"--trials", "--seed"},
    "reduce": {"--sector", "--poly"},
    "mul": {"--lhs", "--rhs"},
}


class TestParser:
    """The parser may be shared between main calls: these pin its shape and
    that one call leaves nothing behind for the next."""

    def test_top_level_usage_lists_commands_in_order(self):
        code, err = usage_error()
        assert code == 2
        assert "{chart,table,kernels,present,rank,torsion,verify,reduce,mul}" in err

    @pytest.mark.parametrize("command", sorted(EXTRA_FLAGS))
    def test_each_command_takes_exactly_its_flags(self, command):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[a-z]+", out.getvalue()))
        assert flags == {"--help", "--format"} | EXTRA_FLAGS[command]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("chart", "1,2,4", "--sector", "1"), "--sector"),
            (("rank", "1,2,4", "--trials", "3"), "--trials"),
            (("table", "1,2,4", "--lhs", "0:1"), "--lhs"),
            (("verify", "1,2,4", "--poly", "1"), "--poly"),
            (("reduce", "1,2,4", "--sector", "1"), "--poly"),
            (("mul", "1,2,4", "--lhs", "0:1"), "--rhs"),
            (("chart", "1,2,4", "--format", "html"), "--format"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "names " + v,
    )
    def test_foreign_or_missing_flag_is_usage_error(self, argv, named):
        code, err = usage_error(*argv)
        assert code == 2
        assert err.startswith("usage: korb ")
        assert named in err.splitlines()[-1]

    def test_defaults_do_not_carry_over(self):
        _, out, _ = run(
            "verify", "1,2,4", "--trials", "1", "--seed", "7", "--format", "json"
        )
        assert json.loads(out)["seed"] == 7
        _, out, _ = run("verify", "1,2,4", "--trials", "1", "--format", "json")
        assert json.loads(out)["seed"] == 0

    def test_usage_error_leaves_next_call_intact(self):
        assert usage_error("reduce", "1,2,4", "--sector", "1")[0] == 2
        assert run("rank", "1,2,4") == (0, "21\n", "")
        assert run("reduce", "1,2,4", "--sector", "1", "--poly", "1")[0] == 0

    def test_parser_is_built_once_per_process(self, monkeypatch):
        run("rank", "1,2,4")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for command in ("rank", "chart", "kernels"):
            assert run(command, "1,2,4")[0] == 0
        assert built == []


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# Runs korb.cli.main on argv under a 2 GiB address space cap, then writes
# the peak RSS of its own address space in KiB (VmHWM) to stderr.
PEAK_MEMORY_CHILD = r"""
import re, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from korb.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(re.search(r"VmHWM:\s+(\d+) kB", f.read())[1], file=sys.stderr)
sys.exit(code)
"""


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "korb.cli", "rank", "1,2,4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "21\n"

    def test_missing_required_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "korb.cli", "reduce", "1,2,4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "--sector" in proc.stderr

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            # the generator of sector 1 is 1 - u^-4, so u^4 = 1
            (("reduce", "1,2,4", "--sector", "1", "--poly", "u^-1000000000"), "1\n"),
            (("reduce", "1,2,4", "--sector", "1", "--poly", "u^1000000000"), "1\n"),
            (("reduce", "1,2,4", "--sector", "1", "--poly", "u^-1000000001"), "u^3\n"),
            # modulo (u - 1)^2, u^n = n*u - (n - 1) for every integer n
            (
                ("reduce", "1,1", "--sector", "0", "--poly", "u^-1000000000"),
                "-1000000000u + 1000000001\n",
            ),
            # what mul 1,2,4 --lhs 1:1 --rhs 3:1 prints, as u^4 = 1 in sector 1
            (
                ("mul", "1,2,4", "--lhs", "1:u^-1000000000", "--rhs", "3:1"),
                "0:u^4 - u^3 - u^2 + u\n",
            ),
        ],
        ids=["u^-1e9", "u^1e9", "u^-(1e9+1)", "1,1-u^-1e9", "mul-u^-1e9"],
    )
    def test_huge_exponent_answers_under_memory_cap(self, argv, stdout):
        proc = subprocess.run(
            [sys.executable, "-m", "korb.cli", *argv],
            capture_output=True,
            text=True,
            timeout=10,
            preexec_fn=cap_address_space,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

    @pytest.mark.parametrize(
        "poly, stderr",
        [
            # u^(10^4200 - 1) reduces at once, to coefficients of about
            # 8,400 digits, which str() refuses past the int digit limit
            (
                "u^" + "9" * 4200,
                r"error: an integer of about 8\d{3} decimal digits is too long"
                r" to print \(the limit is 4300\)\n",
            ),
            (
                "u^" + "9" * 4400,
                r"error: an integer of 4400 digits is too long to read"
                r" \(the limit is 4300\) \(at position 2\)\n",
            ),
            (
                "3 + " + "9" * 4400 + "u",
                r"error: an integer of 4400 digits is too long to read"
                r" \(the limit is 4300\) \(at position 4\)\n",
            ),
        ],
        ids=["residue", "exponent", "coefficient"],
    )
    def test_overlong_integers_get_korbs_message(self, poly, stderr):
        assert sys.get_int_max_str_digits() == 4300
        proc = subprocess.run(
            [sys.executable, "-m", "korb.cli", "reduce", "8,9,11", "--sector", "0", "--poly", poly],
            capture_output=True,
            text=True,
            timeout=5,
            preexec_fn=cap_address_space,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(stderr, proc.stderr), proc.stderr

    def test_large_ell_answers_under_memory_cap(self):
        # ell = 1009 * 1013 sectors, which share the rings of 4 fixed sets;
        # by_class walks only the 2,022 sectors that fix a coordinate, so
        # the answer comes within 1 s, the interpreter's start included
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "korb.cli", "rank", "1009,1013"],
            capture_output=True,
            text=True,
            timeout=10,
            preexec_fn=cap_address_space,
        )
        seconds = time.perf_counter() - start
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2044250\n", "")
        assert seconds < 1

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    @pytest.mark.parametrize(
        "argv, stdout, peak_mib",
        [
            (("rank", "1009,1013"), "2044250\n", 64),
            (("mul", "1009,1013", "--lhs", "1013:1", "--rhs", "1009:u"), "0\n", 96),
        ],
        ids=["rank", "mul"],
    )
    def test_large_ell_peak_memory(self, argv, stdout, peak_mib):
        # The child's ru_maxrss would not do: on Linux exec carries the
        # spawning process's peak over, so a child of this test process
        # reads at least this process's peak, whatever korb uses.  A table
        # of the logweights b_k*s mod ell alone would hold 2,044,234 ints.
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_MEMORY_CHILD, *argv],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (0, stdout), proc.stderr
        assert int(proc.stderr) < peak_mib * 1024

    def test_large_ell_torsion_under_memory_cap(self):
        proc = subprocess.run(
            [sys.executable, "-m", "korb.cli", "torsion", "1009,1013", "--format", "latex"],
            capture_output=True,
            text=True,
            timeout=10,
            preexec_fn=cap_address_space,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("\\text{torsion-free: PASS (ranks 2022, 0, ")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_large_ell_torsion_json_under_memory_cap(self, tmp_path):
        # 1,022,117 sector objects, about 130 MB of JSON: one dict per
        # sector through the stdlib encoder peaked at 1.3 GB.  The child
        # reports its own peak, as in test_large_ell_peak_memory
        out = tmp_path / "torsion.json"
        argv = "torsion", "1009,1013", "--format", "json"
        with open(out, "wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_MEMORY_CHILD, *argv],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert proc.returncode == 0, proc.stderr
        with open(out, "rb") as f:
            f.seek(-2, os.SEEK_END)
            assert f.read() == b"}\n"
        assert int(proc.stderr) < 800 * 1024

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    @pytest.mark.parametrize("command", ["table", "present"])
    def test_json_pair_table_8_9_11_peak_memory(self, tmp_path, command):
        # about 32 MB of JSON, written a row at a time: the child peaked at
        # 78 MB of VmHWM when the whole document was joined and printed,
        # and at 17 MB streamed (CPython 3.11).  The child reports its own
        # peak, as in test_large_ell_peak_memory
        out = tmp_path / f"{command}.json"
        with open(out, "wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_MEMORY_CHILD, command, "8,9,11", "--format", "json"],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert proc.returncode == 0, proc.stderr
        assert out.stat().st_size > 32_000_000
        with open(out, "rb") as f:
            f.seek(-2, os.SEEK_END)
            assert f.read() == b"}\n"
        assert int(proc.stderr) < 40 * 1024

    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            # about 1.7 MB, far more than a pipe buffer holds
            (("table", "5,7,8"), 1),
            # a few bytes, which a buffered stdout keeps until its last flush
            (("rank", "1,2,4"), 0),
            # 32 MB and 15 MB, written a row at a time: the pipe closes while
            # rows are still being made
            (("table", "8,9,11", "--format", "json"), 1),
            (("present", "8,9,11"), 1),
        ],
        ids=["table-5,7,8", "rank-1,2,4", "table-8,9,11-json", "present-8,9,11"],
    )
    def test_closed_pipe_keeps_exit_status(self, argv, lines_read):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "korb.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
