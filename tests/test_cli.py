import argparse
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import korb.cli
from korb.cli import _COMMANDS, _poly_latex, main
from korb.laurent import LaurentPoly, parse_laurent
from korb.ring import build_sector_rings, star_multiply, element_from_residues
from korb.sectors import build_wps, kernel_generator, structure_coefficient


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

    def test_duplicate_sector_in_spec(self):
        code, _, err = run("mul", "1,2,4", "--lhs", "1:1;1:u", "--rhs", "0:1")
        assert code == 2
        assert err == "error: sector 1 assigned twice in element spec\n"

    def test_trials_floor(self):
        code, _, err = run("verify", "1,2,4", "--trials", "0")
        assert code == 2
        assert err == "error: --trials must be >= 1\n"


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
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "korb.cli", *argv],
            capture_output=True,
            text=True,
            timeout=10,
            preexec_fn=cap_address_space,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            # about 1.7 MB, far more than a pipe buffer holds
            (("table", "5,7,8"), 1),
            # a few bytes, which a buffered stdout keeps until its last flush
            (("rank", "1,2,4"), 0),
        ],
        ids=["table-5,7,8", "rank-1,2,4"],
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
