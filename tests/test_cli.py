import argparse
import json
import re
import sys
from pathlib import Path

import pytest

from monoideal import cli
from monoideal.cli import (
    COMMANDS,
    main,
    parse_cnf_file,
    parse_monomial_file,
    parse_nae_file,
)
from monoideal.core import Monomial, ParseError, format_monomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


EXAMPLE = "letters: a b c\norder: b a c\na b^2 c\na^3 b\n"


def test_parse_monomial_file():
    alphabet, monomials, ordering = parse_monomial_file(EXAMPLE)
    assert alphabet.names == ("a", "b", "c")
    assert monomials == (Monomial((1, 2, 1)), Monomial((3, 1, 0)))
    assert ordering.sequence() == (1, 0, 2)


def test_parse_auto_letters_and_vectors():
    alphabet, monomials, ordering = parse_monomial_file("x y\ny z\n")
    assert alphabet.names == ("x", "y", "z")
    assert monomials == (Monomial((1, 1, 0)), Monomial((0, 1, 1)))
    assert ordering is None

    alphabet, monomials, _ = parse_monomial_file("[2,0]\n[0,2]\n")
    assert alphabet.names == ("x1", "x2")
    assert monomials == (Monomial((2, 0)), Monomial((0, 2)))

    alphabet, monomials, _ = parse_monomial_file("letters: x y\n[1, 2]\nx\n")
    assert monomials == (Monomial((1, 2)), Monomial((1, 0)))


def test_parse_round_trip():
    alphabet, monomials, _ = parse_monomial_file(EXAMPLE)
    text = "letters: " + " ".join(alphabet.names) + "\n"
    text += "\n".join(format_monomial(m, alphabet) for m in monomials)
    _, again, _ = parse_monomial_file(text)
    assert set(again) == set(monomials)


@pytest.mark.parametrize(
    "bad",
    [
        "a^\n",
        "a^-1\n",
        "letters: a a\n",
        "letters: a b\nletters: c\n",
        "letters: a b\n[1,2,3]\n",
        "letters: a b\norder: a\na\n",
        "",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_monomial_file(bad)


def test_parse_nae_and_cnf():
    inst = parse_nae_file("p nae 3 2\n1 2 3\n-1 2 -3 0\n")
    assert inst.variable_count == 3 and len(inst.clauses) == 2
    cnf = parse_cnf_file("c comment\np cnf 3 2\n1 -2 0\n3 0\n")
    assert cnf.variable_count == 3 and cnf.clauses == ((1, -2), (3,))
    cnf = parse_cnf_file("# comment\np cnf 3 2 # header\n1 -2 0 # first\n3 0\n")
    assert cnf.variable_count == 3 and cnf.clauses == ((1, -2), (3,))
    with pytest.raises(ParseError):
        parse_nae_file("1 2\n")
    for parse, text in (
        (parse_cnf_file, "c comment\np cnf x 1\n1 0\n"),
        (parse_nae_file, "c comment\np nae x 2\n1 2 3\n"),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == 2 and "non-integer header fields" in str(info.value)


def test_cli_check_fg(tmp_path, capsys):
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    code, payload = run(capsys, "check-fg", str(f))
    assert code == 0 and payload == {"verdict": True}

    code, payload = run(capsys, "check-fg", str(f), "--order", "a b c")
    assert code == 1
    assert payload["verdict"] is False
    assert payload["witness"] == {"monomial": "a b^2 c", "letter": "b"}

    code, payload = run(capsys, "check-fg", str(f), "--order", "a c b")
    assert code == 1
    assert payload["witness"] == {"monomial": "a^3 b", "letter": "c"}


def test_cli_generators_and_lift(tmp_path, capsys):
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    code, payload = run(capsys, "generators", str(f))
    assert code == 0
    assert payload["generators"] == ["b a^3", "b^2 a c", "b^2 a^2 c"]

    code, payload = run(capsys, "gb-lift", str(f))
    assert code == 0
    assert set(payload["leading_words"]) == {
        "a b", "c b", "c a", "b a^3", "b^2 a c", "b^2 a^2 c"
    }


def test_cli_cool_commands(tmp_path, capsys):
    f = tmp_path / "m.mon"
    f.write_text("letters: a b c\na b^2 c\na^3 b\n")
    code, payload = run(capsys, "find-cool", str(f))
    assert code == 0 and payload["found"] is True
    assert "nodes_explored" in payload

    # quadratic set whose graph is a five-cycle: no cool ordering exists
    g = tmp_path / "c5.mon"
    g.write_text(
        "letters: v w x y z\nv x\nv y\nw y\nw z\nx z\n"
    )
    code, payload = run(capsys, "find-cool", str(g))
    assert code == 1 and payload["found"] is False

    code, payload = run(capsys, "is-cool", str(f), "--order", "b a c")
    assert code == 0 and payload == {"cool": True}

    code, payload = run(capsys, "all-cool", str(f))
    assert code == 1 and payload == {"all_cool": False}


def test_cli_reduce_and_preimage(tmp_path, capsys):
    f = tmp_path / "m.mon"
    f.write_text("letters: a b\na\na b\nb^2\n")
    code, payload = run(capsys, "reduce", str(f))
    assert code == 0 and payload == {"monomials": ["b^2", "a"]}

    g = tmp_path / "p.mon"
    g.write_text("letters: x y\nx^2\n")
    code, payload = run(capsys, "preimage-fg", str(g))
    assert code == 1
    assert payload["witness"] == {"monomial": "x^2", "letter": "y"}
    assert payload["degree_bounds"] == [2, 0]


def test_cli_oracle(tmp_path, capsys):
    f = tmp_path / "m.mon"
    f.write_text("letters: x y\nx^2\n")
    code, payload = run(capsys, "oracle", str(f), "--target", "preimage", "--cap", "6")
    assert code == 0
    assert payload["minimal_generators"] == [
        "x^2", "x y x", "x y^2 x", "x y^3 x", "x y^4 x"
    ]
    assert payload["saturated"] is False

    f.write_text(EXAMPLE)
    code, payload = run(capsys, "oracle", str(f), "--target", "sorted", "--cap", "8")
    assert code == 0
    assert payload["minimal_generators"] == ["b a^3", "b^2 a c", "b^2 a^2 c"]
    assert payload["saturated"] is True


def test_cli_oracle_empty_set(tmp_path, capsys):
    # the empty ideal has no generators; the walk over every word is skipped
    f = tmp_path / "empty.mon"
    f.write_text("letters: a b c\norder: b a c\n")
    code, payload = run(capsys, "oracle", str(f), "--target", "sorted", "--cap", "40")
    assert code == 0
    assert payload == {"cap": 40, "minimal_generators": [], "saturated": True}


def test_cli_graph_pipeline(tmp_path, capsys):
    code, payload = run(capsys, "gen-tophat")
    assert code == 0 and payload["vertex_count"] == 7
    graph_file = tmp_path / "hat.tg"
    graph_file.write_text(payload["text"])
    code, payload = run(capsys, "torient", str(graph_file))
    assert code == 0 and payload["found"] is True

    code, payload = run(capsys, "gen-gadget")
    assert code == 0 and payload["vertex_count"] == 15

    nae = tmp_path / "inst.nae"
    nae.write_text("1 1 1\n")
    code, payload = run(capsys, "reduce-nae", str(nae))
    assert code == 0 and payload["vertex_count"] == 16
    graph_file.write_text(payload["text"])
    code, payload = run(capsys, "torient", str(graph_file))
    assert code == 1 and payload == {"found": False}


def test_cli_poly_commands(tmp_path, capsys):
    sys_file = tmp_path / "s.json"
    sys_file.write_text(json.dumps({"A": [[1, 1]], "W": [[3]]}))
    code, payload = run(capsys, "poly-member", str(sys_file), "--vector", "[1,2]")
    assert code == 0 and payload == {"member": True}
    code, payload = run(capsys, "poly-member", str(sys_file), "--vector", "[1,1]")
    assert code == 1

    code, payload = run(capsys, "poly-mingens", str(sys_file))
    assert code == 0 and len(payload["minimal_generators"]) == 4

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"A": [[1, 0]], "W": [[2]]}))
    b.write_text(json.dumps({"A": [[0, 1]], "W": [[2]]}))
    code, payload = run(capsys, "poly-union", str(a), str(b))
    assert code == 0
    assert payload["A"] == [[1, 0], [0, 1]]
    assert payload["W"] == [[2, 0], [0, 2]]

    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"kind": "support3", "generator": [1, 1, 1]}))
    sys3 = tmp_path / "s3.json"
    sys3.write_text(json.dumps({"A": [[1, 1, 1]], "W": [[3]]}))
    code, payload = run(capsys, "verify-cert", str(sys3), str(cert))
    assert code == 0 and payload == {"valid": True}


SYSTEM = {"A": [[1, 1, 1]], "W": [[3]]}


@pytest.mark.parametrize(
    "command, system, certificate, message",
    [
        ("poly-mingens", [], None, "JSON object"),
        ("poly-member", [], None, "JSON object"),
        ("poly-union", [], None, "JSON object"),
        ("verify-cert", [], {"kind": "support3", "generator": [1, 1, 1]}, "JSON object"),
        ("verify-cert", SYSTEM, [], "JSON object"),
        ("verify-cert", SYSTEM,
         {"kind": "preimage_not_fg", "generator": [1, 1, 1], "letter": "x"}, "not an integer"),
        ("verify-cert", SYSTEM, {"kind": "support3", "generator": ["a", 1, 1]}, "not an integer"),
        ("verify-cert", SYSTEM, {"kind": "support3", "generator": [1.5, 0.5, 1]}, "not an integer"),
        ("verify-cert", SYSTEM, {"kind": "support3", "generator": [True, 1, 1]}, "not an integer"),
        ("poly-mingens", {"A": [[1.5, 1]], "W": [[2]]}, None, "not an integer"),
        ("poly-mingens", {"A": [[1, 1]], "W": [[2.0]]}, None, "not an integer"),
        ("poly-mingens", {"A": [[True, 1]], "W": [[2]]}, None, "not an integer"),
        ("poly-mingens", {"A": [[1, 1]], "W": [[2]], "vars": "ab"}, None, "list of strings"),
        ("poly-mingens", {"A": [[1, 1]], "W": [[2]], "vars": [1, None]}, None, "list of strings"),
    ],
)
def test_cli_malformed_json(tmp_path, capsys, command, system, certificate, message):
    sys_file = tmp_path / "s.json"
    sys_file.write_text(json.dumps(system))
    argv = [command, str(sys_file)]
    if command == "poly-member":
        argv += ["--vector", "[1,1,1]"]
    if certificate is not None:
        cert_file = tmp_path / "c.json"
        cert_file.write_text(json.dumps(certificate))
        argv.append(str(cert_file))
    code, payload = run(capsys, *argv)
    assert code == 2 and list(payload) == ["error"]
    assert message in payload["error"]


def test_cli_reduce_sat_and_convexity(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, payload = run(capsys, "reduce-sat", str(cnf), "--target", "mdois")
    assert code == 0 and len(payload["A"][0]) == 6

    mon = tmp_path / "m.mon"
    mon.write_text("[2,0]\n[0,2]\n")
    code, payload = run(capsys, "convexity", str(mon))
    assert code == 1 and payload == {"convex": False}


def test_cli_input_errors(tmp_path, capsys):
    f = tmp_path / "bad.mon"
    f.write_text("a^\n")
    code, payload = run(capsys, "reduce", str(f))
    assert code == 2 and "error" in payload

    code, payload = run(capsys, "check-fg", str(tmp_path / "missing.mon"))
    assert code == 2

    f.write_text("letters: a b c\na b^2 c\n")
    code, payload = run(capsys, "check-fg", str(f))  # no ordering anywhere
    assert code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("letters: a b\norder: a b\na\na b\n", "M is not an antichain"),
        ("letters: a b\norder: a b\n[0,0]\n", "M contains the unit monomial"),
    ],
    ids=["non-antichain", "unit"],
)
@pytest.mark.parametrize(
    "command",
    ["check-fg", "generators", "gb-lift", "is-cool", "find-cool", "all-cool", "preimage-fg"],
)
def test_cli_refuses_sets_outside_the_criterion(tmp_path, capsys, command, text, message):
    f = tmp_path / "m.mon"
    f.write_text(text)
    assert run(capsys, command, str(f)) == (2, {"error": message})


@pytest.mark.parametrize("target", ["sorted", "preimage"])
def test_cli_oracle_accepts_a_non_antichain(tmp_path, capsys, target):
    # the word ideals are defined for any set of nonunits
    f = tmp_path / "m.mon"
    f.write_text("letters: a b\norder: a b\na\na b\n")
    code, payload = run(capsys, "oracle", str(f), "--target", target, "--cap", "3")
    assert code == 0 and payload["minimal_generators"] == ["a"]


def test_cli_budget_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MONOIDEAL_BUDGET", "10")
    f = tmp_path / "m.mon"
    f.write_text("letters: x y\nx^2\n")
    code, payload = run(capsys, "oracle", str(f), "--target", "preimage", "--cap", "9")
    assert code == 3 and "error" in payload


def test_cli_box_budget_exceeded(tmp_path, capsys, monkeypatch):
    # both commands count the points of their lattice box against the budget
    monkeypatch.setenv("MONOIDEAL_BUDGET", "1000")
    sys_file = tmp_path / "big.json"
    sys_file.write_text(json.dumps({"A": [[1] * 10], "W": [[9]]}))
    code, payload = run(capsys, "poly-mingens", str(sys_file))
    assert code == 3
    assert payload == {"error": "lattice box of 10000000000 points exceeds the budget 1000"}
    mon = tmp_path / "wide.mon"
    mon.write_text("letters: a b c\na^5 b^5 c^5\n")
    code, payload = run(capsys, "convexity", str(mon))
    assert code == 3
    assert payload == {"error": "lattice box of 4913 points exceeds the budget 1000"}


def test_cli_huge_exponents(tmp_path, capsys):
    f = tmp_path / "huge.mon"
    f.write_text("letters: a b c\norder: a b c\na c\nb^1000000000\n")
    code, payload = run(capsys, "check-fg", str(f))
    assert code == 0 and payload == {"verdict": True}
    g = tmp_path / "neg.mon"
    g.write_text("letters: a b c\norder: a b c\na^4611686018427387904 c\n")
    code, payload = run(capsys, "check-fg", str(g))
    assert code == 1
    assert payload["witness"] == {"monomial": "a^4611686018427387904 c", "letter": "b"}
    # the generating set of the positive instance would hold about 10^18
    # letters: refused before it is enumerated
    for command in ("generators", "gb-lift"):
        code, payload = run(capsys, command, str(f))
        assert code == 3 and "past the budget of 10000000" in payload["error"]


def test_cli_crosscheck_small(capsys):
    code, payload = run(
        capsys,
        "crosscheck",
        "--letters", "2",
        "--max-degree", "2",
        "--quadratic-letters", "3",
        "--nae-variables", "1",
        "--nae-clauses", "1",
        "--sat-variables", "3",
        "--sat-clauses", "1",
    )
    assert code == 0 and payload["ok"] is True


def test_cli_pretty(tmp_path, capsys):
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    code = main(["--pretty", "check-fg", str(f)])
    out = capsys.readouterr().out
    assert code == 0 and "\n  " in out


COMMAND_NAMES = [row[0] for row in COMMANDS]


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def full_parser_outcome(capsys, monkeypatch, argv):
    """The same call with the parser of every command, whatever ``main`` asks for."""
    full = cli.build_parser
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda command=None: full())
        return outcome(capsys, argv)


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_command_help_matches_full_parser(capsys, monkeypatch, command):
    got = outcome(capsys, [command, "-h"])
    assert got == full_parser_outcome(capsys, monkeypatch, [command, "-h"])
    assert got[0] == 0 and f"usage: monoideal {command}" in got[1]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["-h"], 0),
        ([], 2),
        (["nope"], 2),
        (["check-fg"], 2),
        (["oracle", "{f}", "--target", "x", "--cap", "3"], 2),
        (["check-fg", "{f}", "--pretty"], 2),
        (["--pre", "check-fg", "{f}"], 0),
        (["-h", "check-fg"], 0),
        (["-", "check-fg", "{f}"], 2),
        (["-1", "check-fg", "{f}"], 2),
        (["--", "check-fg", "{f}"], 2),
        (["gen-tophat", "extra"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_usage_matches_full_parser(tmp_path, capsys, monkeypatch, argv, code):
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    argv = [str(f) if token == "{f}" else token for token in argv]
    got = outcome(capsys, argv)
    assert got == full_parser_outcome(capsys, monkeypatch, argv)
    assert got[0] == code


def test_known_command_builds_one_subparser(tmp_path, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, *args, **kwargs):
        built.append(name)
        return add_parser(self, name, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    assert main(["check-fg", str(f), "--order", "a b c"]) == 1
    assert built == ["check-fg"]
    built.clear()
    # a top-level error from the one-command parser still lists every command
    with pytest.raises(SystemExit):
        main(["check-fg", str(f), "--pretty"])
    assert built == ["check-fg"]
    usage = capsys.readouterr().err
    assert "unrecognized arguments: --pretty" in usage
    assert "{" + ",".join(COMMAND_NAMES) + "}" in usage.replace("\n", "").replace(" ", "")
    built.clear()
    assert main(["generators", str(f)]) == 0
    assert built == ["generators"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["-h"])
    assert built == COMMAND_NAMES and len(built) == 20
    capsys.readouterr()


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    monkeypatch.setattr(sys, "argv", ["monoideal", "--pretty", "check-fg", str(f)])
    assert main() == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": True}


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^monoideal ([a-z-]+)", block, re.M)) == set(COMMAND_NAMES)
