"""Command-line surface: parsing, output shape, exit codes."""

import ast
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from as90 import cli
from as90.fields import make_ctx
from as90.polys import PrimePoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_process(*argv, flags=(), timeout=120, address_space=None):
    """Run the CLI of this checkout in a fresh interpreter, its address
    space capped at ``address_space`` bytes when given."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *flags, "-m", "as90.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=cap if address_space else None,
    )


# -- element parsing -----------------------------------------------------------

def test_parse_elem_forms():
    ctx = make_ctx(2, 4, modulus="t^4+t^3+1")
    t = ctx.gen()
    assert cli.parse_elem("t^2+t", ctx) == t * t + t
    assert cli.parse_elem("0,1,1,0", ctx) == t + t * t
    assert cli.parse_elem("6", ctx) == t + t * t  # 6 = 0+1*2+1*4
    assert cli.parse_elem(" 1 ", ctx) == ctx.one()
    # polynomials reduce mod the field modulus
    assert cli.parse_elem("t^4", ctx) == t**4


def test_parse_elem_range_and_garbage():
    ctx = make_ctx(2, 2)
    with pytest.raises(Exception):
        cli.parse_elem("4", ctx)
    with pytest.raises(Exception):
        cli.parse_elem("banana", ctx)


def test_fmt_elem():
    ctx = make_ctx(3, 2)
    e = ctx.gen() + ctx.one()
    assert cli.fmt_elem(e, "coeffs") == "1,1"
    assert cli.fmt_elem(e, "human") == str(e)


# -- root subcommand -------------------------------------------------------------

def test_root_coprime_text(capsys):
    code, out, _ = run(capsys, "root", "--p", "2", "--n", "3", "--y", "t+t^2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field: GF(2^3) mod t^3+t^2+1"
    assert "method: coprime" in lines
    assert "base root: t+1" in lines  # y^2 reduced mod t^3+t^2+1
    assert "verified: true" in lines


def test_root_undetermined_line(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "2", "--n", "2", "--f", "2", "--y", "1"
    )
    assert code == 0
    assert "conclusion: no root; irreducibility undetermined" in out.splitlines()


def test_root_irreducible_line(capsys):
    code, out, _ = run(capsys, "root", "--p", "2", "--n", "3", "--y", "t")
    assert code == 0
    assert "conclusion: irreducible" in out.splitlines()


def test_root_json_schema(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "2", "--n", "3", "--y", "t+t^2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "base_root", "coset_size", "field", "method", "notes",
        "polynomial", "seed", "status", "verified",
    }
    assert payload["status"] == "root"
    assert payload["base_root"] == "t+1"
    assert payload["coset_size"] == 2
    assert payload["verified"] is True


def test_root_json_no_root(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "2", "--n", "2", "--f", "2", "--y", "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "undetermined"
    assert payload["conclusion"] == "no root; irreducibility undetermined"
    assert payload["polynomial"] == "t^4-t-(1)"


def test_root_byte_determinism(capsys):
    args = ("root", "--p", "2", "--n", "12", "--y", "0", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_root_all_roots_listed(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "2", "--n", "2", "--y", "0", "--all"
    )
    assert code == 0
    # the coset of 0 is GF(2) = {0, 1}
    assert out.splitlines()[-1] == "all roots: 0; 1"


def test_root_methods_agree(capsys):
    outs = []
    for method in ("auto", "table", "p2mod3", "general", "brute"):
        code, out, _ = run(
            capsys, "root", "--p", "2", "--n", "6", "--y", "t+t^4",
            "--method", method, "--json",
        )
        assert code == 0, method
        outs.append(json.loads(out))
    # all constructions verify; methods differ, roots may differ by GF(2)
    assert all(o.get("verified", True) for o in outs)


def test_root_prime_r_needs_r(capsys):
    code, _, err = run(
        capsys, "root", "--p", "2", "--n", "6", "--y", "0", "--method",
        "prime-r",
    )
    assert code == 2
    assert "error:" in err and "--r" in err


def test_root_elem_format_coeffs(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "2", "--n", "6", "--y", "0", "--method",
        "prime-r", "--r", "3", "--elem-format", "coeffs",
    )
    assert code == 0
    assert "base root: 0,0,0,0,0,0" in out.splitlines()
    assert "method: prime_r" in out.splitlines()


def test_root_brute_on_big_field_refused(capsys):
    code, _, err = run(
        capsys, "root", "--p", "2", "--n", "32", "--y", "0", "--method",
        "brute",
    )
    assert code == 2
    assert "error:" in err


# -- error reporting -------------------------------------------------------------

def test_nonprime_p_is_domain_error(capsys):
    code, _, err = run(capsys, "root", "--p", "4", "--n", "2", "--y", "1")
    assert code == 2
    assert err.startswith("error: 4 is not prime")


def test_garbage_element_is_domain_error(capsys):
    code, _, err = run(capsys, "root", "--p", "2", "--n", "4", "--y", "x+y")
    assert code == 2
    assert err.startswith("error: cannot read")


def test_bad_subfield_step(capsys):
    code, _, err = run(
        capsys, "root", "--p", "2", "--n", "5", "--f", "3", "--y", "0"
    )
    assert code == 2


# -- period subcommand -------------------------------------------------------------

def test_period_explicit_z(capsys):
    code, out, _ = run(capsys, "period", "--p", "2", "--n", "4", "--z", "t")
    assert code == 0
    lines = out.splitlines()
    assert "period: 8 (expected 8)" in lines
    assert "pass: true" in lines
    assert "z: t (explicit)" in lines


def test_period_searched_witness(capsys):
    code, out, _ = run(
        capsys, "period", "--p", "3", "--n", "3", "--seed", "7"
    )
    assert code == 0
    assert "pass: true" in out.splitlines()
    assert "seed: 7" in out.splitlines()


@pytest.mark.parametrize("argv, line", [
    (("period", "--p", "2", "--n", "56", "--f", "28"), "pass: true"),
    (("root", "--p", "2", "--n", "64", "--f", "32", "--y", "0"), "verified: true"),
])
def test_witness_in_a_large_subfield_is_solved_not_scanned(argv, line):
    # m_p = 2 over GF(2^28) and GF(2^32): the witness's subfield is the
    # whole field, far beyond any scan of its elements
    proc = run_process(*argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_period_json(capsys):
    code, out, _ = run(
        capsys, "period", "--p", "2", "--n", "4", "--z", "t", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 8
    assert payload["expected_period"] == 8
    assert payload["pass"] is True


def test_period_trace_not_one(capsys):
    code, _, err = run(capsys, "period", "--p", "2", "--n", "4", "--z", "0")
    assert code == 2
    assert "error:" in err


# -- h90 subcommand ----------------------------------------------------------------

def test_h90_roundtrip(capsys):
    code, out, _ = run(
        capsys, "h90", "--p", "2", "--n", "4", "--y", "0", "--z", "t",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["symmetry_defect"] == "0"
    assert payload["x"] == "0"


def test_h90_text(capsys):
    code, out, _ = run(
        capsys, "h90", "--p", "2", "--n", "4", "--y", "0", "--z", "t"
    )
    assert code == 0
    assert "verified=true" in out
    assert "symmetry defect R(y,z)+R(z,y)+Tr(yz): 0" in out


# -- table subcommand ----------------------------------------------------------------

def test_table_verify_all_rows(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_2 | symbol | m_z(t) | checks"
    assert len(lines) == 7  # header + five rows + summary
    assert lines[-1] == "all rows pass: true"
    assert all("=ok" in line for line in lines[1:6])


def test_table_verify_json(capsys):
    code, out, _ = run(capsys, "table", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert [row["n_2"] for row in payload["rows"]] == [2, 4, 8, 16, 32]
    for row in payload["rows"]:
        assert row["pass"] is True


def test_table_regen(capsys):
    code, out, _ = run(capsys, "table", "--regen")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_2 | symbol | m_z(t)"
    assert lines[1] == "2 | ω | t^2+t+1"
    assert len(lines) == 6


# -- cyclotomic / tensor / bigsearch ---------------------------------------------------

def test_cyclotomic_text(capsys):
    code, out, _ = run(capsys, "cyclotomic", "--r", "7", "--p", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Phi_7 over F_2: 2 irreducible factors of degree 3 = ord_7(2)"
    assert "  t^3+t^2+1  [big]" in lines
    assert "  t^3+t+1  [small]" in lines
    assert lines[-1] == "product matches Phi_7: true"


def test_cyclotomic_json(capsys):
    code, out, _ = run(capsys, "cyclotomic", "--r", "11", "--p", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == 10
    assert payload["count"] == 1
    assert payload["factors"][0]["class"] == "big"
    assert payload["product_matches"] is True


def test_cyclotomic_equal_primes(capsys):
    code, _, err = run(capsys, "cyclotomic", "--r", "5", "--p", "5")
    assert code == 2


def test_cyclotomic_pseudoprime_index_is_domain_error():
    # psi_12 passes Miller-Rabin to bases 2..37; psi_13 lies beyond the
    # range where bases 2..41 are proven.  Taken for primes, either one
    # would send ord_mod on a walk of about r steps.
    for r, message in (("318665857834031151167461", "is not prime"),
                       ("3317044064679887385961981", "beyond")):
        proc = run_process("cyclotomic", "--r", r, "--p", "2", "--json")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert proc.stdout == ""


def test_tensor_text(capsys):
    code, out, _ = run(
        capsys, "tensor", "--p", "2", "--a", "t^2+t+1", "--b", "t^3+t^2+1"
    )
    assert code == 0
    assert "degree 6" in out
    assert "[big]" in out.splitlines()[-1]


def test_bigsearch(capsys):
    code, out, _ = run(capsys, "bigsearch", "--e", "4")
    assert code == 0
    assert out.splitlines()[0].endswith("t^4+t^3+1")
    assert out.splitlines()[1] == "root order: 15"


def test_bigsearch_json(capsys):
    code, out, _ = run(capsys, "bigsearch", "--e", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == 6
    assert payload["order"] == 63
    assert payload["poly"] == "t^6+t^5+1"
    assert payload["class"] == "big"


def test_bigsearch_skips_constants_no_primitive_has(capsys):
    # the generators of F_5^* are 2 and 3, and (-1)^9 c is one of them only
    # for c in {2, 3}: the constant 1 is not searched
    code, out, _ = run(capsys, "bigsearch", "--e", "9", "--p", "5", "--budget", "64")
    assert code == 0
    assert out.splitlines()[0].endswith("t^9+4t^8+2t^7+2")


# -- misc ---------------------------------------------------------------------------

def test_optimized_interpreter_same_output():
    # no check that guards an output may vanish under python -O; one
    # command per constructor that auto dispatch reaches, then the ones
    # only --method reaches
    commands = {
        "table": ("--p", "2", "--n", "16", "--y", "t+t^2"),
        "coprime": ("--p", "2", "--n", "3", "--y", "t+t^2"),
        "np_p": ("--p", "3", "--n", "3", "--y", "t^3-t"),
        "general": ("--p", "3", "--n", "9", "--y", "t^3-t"),
        "prime_r": ("--p", "2", "--n", "6", "--y", "0", "--method", "prime-r",
                    "--r", "3"),
        "p2mod3": ("--p", "2", "--n", "6", "--y", "t+t^4", "--method", "p2mod3"),
        "brute": ("--p", "2", "--n", "16", "--y", "t+t^2", "--method", "brute"),
    }
    for method, args in commands.items():
        argv = ("root", *args, "--json")
        plain = run_process(*argv)
        optimized = run_process(*argv, flags=("-O",))
        assert plain.returncode == optimized.returncode == 0, method
        assert optimized.stdout == plain.stdout, method
        payload = json.loads(plain.stdout)
        assert payload["method"] == method
        if method == "brute":
            assert "verified" not in payload and payload["count"] == 2
        else:
            assert payload["verified"] is True
    # R(y, z) by doubling: m = 2^6 runs every doubling step, and h90
    # evaluates both orientations R(y, z) and R(z, y); over GF(3^2) the
    # trace criterion and the solved witness sum conjugates by doubling too
    for argv in (("root", "--p", "2", "--n", "64", "--y", "t+t^2", "--json"),
                 ("root", "--p", "3", "--n", "12", "--f", "2", "--y", "t^9-t", "--json"),
                 ("h90", "--p", "2", "--n", "6", "--y", "t+t^4", "--z", "t^3", "--json"),
                 # the prime-r witness check reads the period off orbit sums
                 ("root", "--p", "4294967291", "--n", "2", "--y", "0", "--method", "prime-r",
                  "--r", "3", "--json")):
        plain = run_process(*argv)
        optimized = run_process(*argv, flags=("-O",))
        assert plain.returncode == optimized.returncode == 0, argv
        assert optimized.stdout == plain.stdout, argv
        assert json.loads(plain.stdout)["verified"] is True
    # arithmetic mod a fixed polynomial: equal-degree splitting (cyclotomic),
    # the order of t mod each candidate (bigsearch) and every table check
    # the period statement, whose guards read the zeros of the partial sums
    for argv in (("cyclotomic", "--r", "257", "--p", "2", "--json"),
                 ("bigsearch", "--e", "16", "--json"),
                 ("table", "--regen", "--json"),
                 ("period", "--p", "2", "--n", "4", "--z", "t", "--json"),
                 ("period", "--p", "3", "--n", "6", "--seed", "5", "--json"),
                 # witness paths: sampled, built in a subfield with f > 1, scalar
                 ("period", "--p", "3", "--n", "6", "--target-e", "6", "--randomize",
                  "--seed", "3", "--json"),
                 ("period", "--p", "3", "--n", "12", "--f", "2", "--json"),
                 ("period", "--p", "2", "--n", "6", "--f", "2", "--json"),
                 ("period", "--p", "4294967291", "--n", "2", "--json"),
                 # the period's guards on orbit sums: m = 64, and a base of degree 4
                 ("period", "--p", "2", "--n", "64", "--json"),
                 ("period", "--p", "2", "--n", "12", "--f", "4", "--json")):
        plain = run_process(*argv)
        optimized = run_process(*argv, flags=("-O",))
        assert plain.returncode == optimized.returncode == 0, argv
        assert optimized.stdout == plain.stdout, argv
        assert json.loads(plain.stdout), argv
    # tensor products from power sums: degree 256 >= p, so coefficients are
    # recovered mod 2^256, and a large p, where they are recovered mod p
    for argv, degree in ((("tensor", "--p", "2", "--a", "t^16+t^15+t^4+t+1",
                           "--b", "t^16+t^15+t^8+t+1", "--json"), 256),
                         (("tensor", "--p", "4294967291", "--a", "t^3+2*t+5",
                           "--b", "3*t^2+t+7", "--json"), 6)):
        plain = run_process(*argv)
        optimized = run_process(*argv, flags=("-O",))
        assert plain.returncode == optimized.returncode == 0, argv
        assert optimized.stdout == plain.stdout, argv
        assert json.loads(plain.stdout)["degree"] == degree, argv


def test_optimized_interpreter_same_text_for_f2_residue_commands():
    # the plain-text reports of the commands that run on F_2 residues held
    # as bits: the order of t per candidate (bigsearch), the trace map of
    # equal-degree splitting (cyclotomic) and every table check
    for argv in (("bigsearch", "--e", "16"), ("cyclotomic", "--r", "257", "--p", "2"),
                 ("table",)):
        plain = run_process(*argv)
        optimized = run_process(*argv, flags=("-O",))
        assert plain.returncode == optimized.returncode == 0, argv
        assert plain.stdout and optimized.stdout == plain.stdout, argv
        assert optimized.stderr == plain.stderr == "", argv


#: stdout of commands whose answers come from Gauss periods (cyclotomic),
#: Ben-Or's test and the order of t (bigsearch, table --regen), as the
#: seeded equal-degree splitting and the per-degree Ben-Or gave them
FACTORING_OUTPUTS = {
    ("cyclotomic", "--r", "31", "--p", "5"): """\
Phi_31 over F_5: 10 irreducible factors of degree 3 = ord_31(5)
  t^3+3t^2+4  [big]
  t^3+4t^2+4  [big]
  t^3+t+4  [small]
  t^3+t^2+t+4  [big]
  t^3+2t^2+t+4  [big]
  t^3+2t+4  [small]
  t^3+t^2+3t+4  [big]
  t^3+4t^2+3t+4  [big]
  t^3+2t^2+4t+4  [big]
  t^3+4t^2+4t+4  [big]
product matches Phi_31: true
""",
    ("cyclotomic", "--r", "13", "--p", "65521"): """\
Phi_13 over F_65521: 12 irreducible factors of degree 1 = ord_13(65521)
  t+2170  [big]
  t+2659  [big]
  t+3228  [big]
  t+4983  [big]
  t+5987  [big]
  t+8612  [big]
  t+33042  [big]
  t+44355  [big]
  t+46889  [big]
  t+50966  [big]
  t+61339  [big]
  t+63376  [big]
product matches Phi_13: true
""",
    ("bigsearch", "--e", "12"): """\
lex-first big primitive of degree 12 over F_2: t^12+t^11+t^8+t^6+1
root order: 4095
""",
    ("table", "--regen"): """\
n_2 | symbol | m_z(t)
2 | ω | t^2+t+1
4 | α | t^4+t^3+1
8 | β | t^8+t^7+t^5+t^3+1
16 | γ | t^16+t^15+t^14+t^13+t^12+t^11+1
32 | δ | t^32+t^31+t^30+t^29+t^27+t^25+1
""",
}


@pytest.mark.parametrize("argv", sorted(FACTORING_OUTPUTS))
def test_factoring_commands_under_optimize(argv):
    optimized = run_process(*argv, flags=("-O",))
    assert optimized.returncode == 0, argv
    assert optimized.stdout == FACTORING_OUTPUTS[argv], argv
    if argv[0] == "cyclotomic":
        r, p = int(argv[2]), int(argv[4])
        product = PrimePoly.one(p)
        for line in optimized.stdout.splitlines()[1:-1]:
            product = product * PrimePoly.parse(line.split()[0], p)
        assert product == PrimePoly(p, (1,) * r)


def test_source_has_no_assert_statements():
    # assert vanishes under -O; every check in the package must raise
    src = Path(__file__).resolve().parents[1] / "src" / "as90"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"


def _broad_handlers(tree):
    """The scopes (dotted def and class names) of the except clauses that
    catch everything: bare, Exception or BaseException."""
    found = []

    def broad(kind):
        names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        return kind is None or any(
            isinstance(n, ast.Name) and n.id in ("Exception", "BaseException") for n in names)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.ExceptHandler) and broad(child.type):
                found.append(".".join(scope))
            visit(child, inner)

    visit(tree, ())
    return found


def test_source_catches_everything_only_in_cli_main():
    # a catch-all turns a defect into a wrong answer; only the CLI's
    # last-resort diagnostic may have one
    src = Path(__file__).resolve().parents[1] / "src" / "as90"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.stem}.{scope}" for scope in _broad_handlers(tree)]
    assert found == ["cli.main"]


def test_polynomial_layer_imports_no_field_layer():
    # polys, intfactor and bigpoly work on integers and polynomials alone
    src = Path(__file__).resolve().parents[1] / "src" / "as90"
    upper = {"fields", "periodicity", "hilbert90", "artin_schreier"}
    for name in ("polys", "intfactor", "bigpoly"):
        tree = ast.parse((src / f"{name}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(part for a in node.names for part in a.name.split("."))
        assert not imported & upper, (name, sorted(imported & upper))


def fields_tree_and_names():
    """The AST of fields.py and every name it imports, reads or looks up."""
    src = Path(__file__).resolve().parents[1] / "src" / "as90"
    tree = ast.parse((src / "fields.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return tree, names


def test_field_layer_builds_no_reducer_of_its_own():
    # fields takes its tables of a modulus from the polys builders and
    # reaches residues mod a polynomial only through polys._reducer
    _, names = fields_tree_and_names()
    assert "_Reducer" not in names
    assert {"_fold_columns", "_frobenius_columns", "_t_conjugates"} <= names


def test_field_layer_applies_columns_only_through_the_map():
    # polys._Map owns the packed columns: fields composes no matrix and
    # combines no columns of its own, and its only sum(map(...)) dot
    # products are the trace's power sums and the X-fold of _mod_g
    tree, names = fields_tree_and_names()
    assert "_Map" in names and not names & {"_mat_mul", "combine"}
    dots = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum" and node.args
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "map"):
                dots.add(top.name)
    assert dots == {"trace", "_mod_g"}


def test_reference_exponents_checked_under_optimize():
    # the data check of table_exponent_sequence, and the check by powering
    # that a table root runs, both raise under -O
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = (
        "from as90 import artin_schreier as a\n"
        "from as90.fields import make_ctx\n"
        "a.KNOWN_EXPONENTS[4] = [None, 1, 13, 6, 0, 12, 7, 9]\n"
        "try:\n"
        "    a.table_exponent_sequence(4)\n"
        "except RuntimeError:\n"
        "    print('refused')\n"
        "else:\n"
        "    print('accepted')\n"
        "a.KNOWN_EXPONENTS[16][-1] += 1\n"
        "try:\n"
        "    a.root_char2_table(a.ArtinSchreierInstance(make_ctx(2, 16), 0))\n"
        "except RuntimeError:\n"
        "    print('refused')\n"
        "else:\n"
        "    print('accepted')\n"
    )
    probe = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["refused", "refused"]


def test_prime_r_with_huge_r_is_domain_error():
    # r = 2^61 - 1: ord_r(3) is far from dividing 4, and finding that out
    # must not take r multiplications
    proc = run_process("root", "--p", "3", "--n", "4", "--y", "0", "--method", "prime-r",
                       "--r", str(2**61 - 1), timeout=30)
    assert proc.returncode == 2, proc.stderr


def test_brute_coset_too_large_is_domain_error(capsys):
    code, out, _ = run(capsys, "root", "--p", "1048583", "--n", "1", "--y", "0",
                       "--method", "brute", "--json")
    assert code == 2 and out == ""


def test_factor_bound_variable_is_ignored(monkeypatch):
    plain = run_process("bigsearch", "--e", "8", "--json")
    monkeypatch.setenv("AS90_FACTOR_BOUND", "abc")
    with_variable = run_process("bigsearch", "--e", "8", "--json")
    assert plain.returncode == with_variable.returncode == 0, with_variable.stderr
    assert with_variable.stdout == plain.stdout


def test_cli_import_loads_no_numpy():
    # nor dataclasses, which pulls in inspect, ast and dis
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, as90.cli; "
         "print([m for m in ('numpy', 'inspect', 'dataclasses') if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["root", "--p", "2"])  # missing --n/--y
    assert exc.value.code == 2


def test_main_no_args_shows_help():
    with pytest.raises(SystemExit):
        cli.main([])


def test_huge_exponent_in_element_text_is_reduced():
    # t^(10^9) = t^160 in GF(2^8), whose unit group has order 255
    huge = run_process("root", "--p", "2", "--n", "8", "--y", "t^1000000000", "--json",
                       timeout=60, address_space=2**30)
    small = run_process("root", "--p", "2", "--n", "8", "--y", "t^160", "--json")
    assert huge.returncode == small.returncode == 0, huge.stderr
    assert huge.stdout == small.stdout


@pytest.mark.parametrize("argv", [
    ("period", "--p", "4294967291", "--n", "2"),
    ("period", "--p", "18446744073709551557", "--n", "1"),
    ("root", "--p", "4294967291", "--n", "2", "--y", "0", "--method", "prime-r", "--r", "3"),
])
def test_period_at_huge_primes(argv):
    # the period p*e is read off orbit sums x_d at the divisors d of p*m; no term is stored
    proc = run_process(*argv, "--json", timeout=60, address_space=2**30)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    if argv[0] == "period":
        assert payload["period"] == int(argv[2]) and payload["pass"] is True
    else:
        assert payload["method"] == "prime_r" and payload["verified"] is True


@pytest.mark.parametrize("argv", [
    ("root", "--p", "2", "--n", "31", "--y", "0", "--method", "prime-r", "--r", str(2**31 - 1)),
    ("cyclotomic", "--r", str(2**31 - 1), "--p", "2"),
])
def test_huge_cyclotomic_index_is_domain_error(argv):
    proc = run_process(*argv, timeout=60, address_space=2**30)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("argv", [
    ("root", "--p", "2", "--n", "8", "--modulus", "t^1000000000", "--y", "1"),
    ("root", "--p", "2", "--n", "8", "--modulus", "t^1000000000+t^8+t^4+t^3+t^2+1", "--y", "1"),
    ("tensor", "--p", "2", "--a", "t^1000000000", "--b", "t+1"),
    ("tensor", "--p", "2", "--a", "t+1", "--b", "p:2;coeffs:" + ",".join(["1"] * 40000)),
    # numbers past the interpreter's 4300-digit limit on int text
    ("root", "--p", "2", "--n", "8", "--modulus", "t^" + "1" * 5000, "--y", "1"),
    ("tensor", "--p", "2", "--a", "t^" + "1" * 5000, "--b", "t"),
])
def test_huge_polynomial_text_is_domain_error(argv):
    # the degree is read off the text before any coefficient list is built
    proc = run_process(*argv, timeout=60, address_space=2**30)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("argv", [
    ("root", "--p", "2", "--n", "1000000000", "--y", "1"),
    ("root", "--p", "2", "--n", "100000000000", "--y", "1"),
    ("period", "--p", "3", "--n", "1000000000"),
    ("bigsearch", "--e", "20000"),
    ("bigsearch", "--e", "1000000000"),
])
def test_huge_degree_is_domain_error(argv):
    # refused from the degree alone, before p^n is built
    proc = run_process(*argv, timeout=60, address_space=2**30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("root", "--p", "2", "--n", "8", "--modulus", "garbage", "--y", "1"),
    ("tensor", "--p", "2", "--a", "x+1", "--b", "t"),
    ("root", "--p", "2", "--n", "8", "--modulus", "p:3;coeffs:1,1", "--y", "1"),
    ("root", "--p", "2", "--n", "2", "--modulus", "p:2;coeffs:1,a", "--y", "1"),
    ("root", "--p", "2", "--n", "0", "--y", "1"),
    ("bigsearch", "--e", "0"),
    ("bigsearch", "--e", "3", "--p", "1"),
])
def test_bad_input_is_domain_error(argv):
    proc = run_process(*argv, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stdout == ""


def test_general_method_ignores_seed(capsys):
    outs = []
    for seed in ("0", "5"):
        for fmt in ((), ("--json",)):
            code, out, _ = run(capsys, "root", "--p", "3", "--n", "12", "--f", "2",
                               "--y", "t^9-t", "--method", "general", "--seed", seed, *fmt)
            assert code == 0
            outs.append(out.replace(f"seed: {seed}", "seed: S")
                        .replace(f'"seed": {seed}', '"seed": S'))
    assert outs[:2] == outs[2:]
