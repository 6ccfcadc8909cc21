import argparse
import itertools
import json
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from monoideal import cli, sorted_ideal
from monoideal.cli import (
    COMMANDS,
    main,
    parse_cnf_file,
    parse_monomial_file,
    parse_nae_file,
)
from monoideal.core import (
    Alphabet,
    BudgetExceededError,
    ExponentOverflowError,
    Monomial,
    Ordering,
    ParseError,
    format_monomial,
    monomial_set,
)

from conftest import outcome as result_of


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
        "a\nletters: b a\n[1,0]\n",
        "",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_monomial_file(bad)


def test_parse_keeps_file_order():
    alphabet, monomials, _ = parse_monomial_file("letters: x y\nx\n[0, 1]\n")
    assert alphabet.names == ("x", "y")
    assert monomials == (Monomial((1, 0)), Monomial((0, 1)))


# The two-list reader that preceded the one-pass reader, verbatim but for
# its name and the helpers it called, kept as the referee of the corpus test.
_REF_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_REF_FACTOR_RE = re.compile(rf"^({_REF_NAME})(?:\^(-?\d+))?$")


def _ref_ordering_from_names(tokens, alphabet, lineno=None):
    if sorted(tokens) != sorted(alphabet.names):
        raise ParseError(
            "order must list every letter exactly once", lineno
        )
    return Ordering.from_sequence(tuple(alphabet.index(t) for t in tokens))


def referee_parse_monomial_file(text: str):
    names: list[str] = []
    declared = False
    name_monomials: list[tuple[dict[str, int], int]] = []
    vector_monomials: list[tuple[tuple[int, ...], int]] = []
    order_names: tuple[list[str], int] | None = None

    def add_letter(name: str) -> None:
        if name not in names:
            names.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("letters:"):
            if declared:
                raise ParseError("duplicate letters declaration", lineno)
            if name_monomials or vector_monomials:
                raise ParseError("letters declaration after a monomial", lineno)
            declared_names = line[len("letters:") :].split()
            if not declared_names:
                raise ParseError("empty letters declaration", lineno)
            if len(set(declared_names)) != len(declared_names):
                raise ParseError("duplicate letter declaration", lineno)
            for n in declared_names:
                if not _REF_FACTOR_RE.match(n) or "^" in n:
                    raise ParseError(f"bad letter name {n!r}", lineno)
                add_letter(n)
            declared = True
            continue
        if line.startswith("order:"):
            if order_names is not None:
                raise ParseError("duplicate order declaration", lineno)
            order_names = (line[len("order:") :].split(), lineno)
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated vector", lineno)
            body = line[1:-1].strip()
            try:
                entries = tuple(int(p) for p in body.split(",")) if body else ()
            except ValueError:
                raise ParseError("non-integer vector entry", lineno) from None
            if any(e < 0 for e in entries):
                raise ParseError("negative exponent", lineno)
            if not names and not name_monomials and not vector_monomials:
                for i in range(len(entries)):
                    add_letter(f"x{i + 1}")
            vector_monomials.append((entries, lineno))
            continue
        factors: dict[str, int] = {}
        for token in line.split():
            match = _REF_FACTOR_RE.match(token)
            if not match:
                raise ParseError(f"malformed factor {token!r}", lineno)
            name, exp = match.group(1), match.group(2)
            k = 1 if exp is None else int(exp)
            if k < 0:
                raise ParseError("negative exponent", lineno)
            add_letter(name)
            factors[name] = factors.get(name, 0) + k
        name_monomials.append((factors, lineno))

    if not names:
        raise ParseError("no letters and no monomials in input")
    alphabet = Alphabet(tuple(names))
    monomials: list[Monomial] = []
    for entries, lineno in vector_monomials:
        if len(entries) != alphabet.size:
            raise ParseError(
                f"vector length {len(entries)} does not match {alphabet.size} letters",
                lineno,
            )
        monomials.append(Monomial(entries))
    for factors, lineno in name_monomials:
        e = [0] * alphabet.size
        for name, k in factors.items():
            e[alphabet.index(name)] += k
        monomials.append(Monomial(tuple(e)))

    ordering = None
    if order_names is not None:
        tokens, lineno = order_names
        ordering = _ref_ordering_from_names(tokens, alphabet, lineno)
    return alphabet, monomial_set(monomials), ordering


LETTER_POOL = ("a", "b", "c", "x1", "x2", "y_0", "Z")
HUGE = 2**63


def corpus_file(rng):
    """A generated monomial file and the members its lines spell, in file order.

    Each member is ``("vec", entries)`` or ``("names", [(name, power), ...])``.
    Lines are mostly well formed; each kind of defect turns up now and then.
    A total degree past 2**63 - 1 is only ever the last member line: the
    referee checked every vector line before any name line, so it reports a
    vector line's error ahead of an earlier overflowing name line (see
    ``test_parse_reports_the_first_bad_member``).
    """
    letters = rng.sample(LETTER_POOL, rng.randint(1, 4))
    lines, members = [], []

    def odd(p=0.03):
        return rng.random() < p

    def letters_line():
        names = list(letters)
        if odd(0.05):
            names = []
        elif odd(0.05):
            names.append(names[0])
        elif odd(0.05):
            names.append(rng.choice(["1a", "a^2", "a-b", "b^"]))
        return "letters: " + " ".join(names)

    def order_line():
        names = list(letters)
        rng.shuffle(names)
        if odd(0.05):
            names.pop()
        elif odd(0.05):
            names.append(rng.choice(LETTER_POOL))
        return "order: " + " ".join(names)

    def vector_line():
        size = len(letters) if not odd(0.15) else rng.randint(0, 5)
        entries = [rng.randint(0, 3) for _ in range(size)]
        parts = [str(e) for e in entries]
        if parts and odd():
            parts[rng.randrange(len(parts))] = rng.choice(["-1", "1.5", "x", ""])
        text = "[" + rng.choice([", ", ",", " , "]).join(parts) + "]"
        if odd():
            text = text[:-1]
        members.append(("vec", tuple(entries)))
        return text

    def name_line():
        factors, tokens = [], []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(letters) if not odd(0.1) else rng.choice(LETTER_POOL)
            k = rng.choice([None, 0, 1, 2, 3])
            tokens.append(name if k is None else f"{name}^{k}")
            factors.append((name, 1 if k is None else k))
        if odd():
            tokens[-1] = rng.choice(["a^", "a^-1", "2a", "a^^2", "a*b"])
        members.append(("names", factors))
        return " ".join(tokens)

    if rng.random() < 0.6:
        lines.append(letters_line())
    for _ in range(rng.randint(0, 6) or rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(["", "   ", "# comment"]))
        elif roll < 0.09:
            lines.append(order_line())
        elif roll < 0.11:
            lines.append(letters_line())
        elif roll < 0.55:
            lines.append(vector_line())
        else:
            lines.append(name_line())
        if odd(0.1):
            lines[-1] += "  # trailing"
    if odd(0.2):
        lines.append(order_line())
    if odd():
        if rng.random() < 0.5:
            lines.append(f"{letters[0]}^{HUGE}")
            members.append(("names", [(letters[0], HUGE)]))
        else:
            entries = (HUGE,) + (0,) * (len(letters) - 1)
            lines.append("[" + ", ".join(map(str, entries)) + "]")
            members.append(("vec", entries))
    return "\n".join(lines) + rng.choice(["", "\n"]), members


def member_rows(members, alphabet):
    rows = []
    for kind, data in members:
        if kind == "vec":
            rows.append(data)
        else:
            e = [0] * alphabet.size
            for name, k in data:
                e[alphabet.names.index(name)] += k
            rows.append(tuple(e))
    return rows


def test_one_pass_reader_matches_two_list_referee():
    rng = random.Random(2024)
    errors, reordered, parsed = Counter(), 0, 0
    for _ in range(4000):
        text, members = corpus_file(rng)
        got = result_of(parse_monomial_file, text)
        want = result_of(referee_parse_monomial_file, text)
        if want[0] == "error":
            assert got == want, text
            errors[re.sub(r"^line \d+: |'.*'|\d+", "", want[2])] += 1
            continue
        assert got[0] == "value", (text, got)
        alphabet, monomials, ordering = got[1]
        assert (alphabet, ordering) == (want[1][0], want[1][2]), text
        rows = member_rows(members, alphabet)
        vectors_first = [r for (kind, _), r in zip(members, rows) if kind == "vec"]
        vectors_first += [r for (kind, _), r in zip(members, rows) if kind == "names"]
        # the same members; the referee put vector lines first
        assert monomials == monomial_set(Monomial(r) for r in rows), text
        assert want[1][1] == monomial_set(Monomial(r) for r in vectors_first), text
        reordered += monomials != want[1][1]
        parsed += 1
    # every error path is reached, and so is the new member order
    assert set(errors) == {
        "duplicate letters declaration", "letters declaration after a monomial",
        "empty letters declaration", "duplicate letter declaration", "bad letter name ",
        "duplicate order declaration", "unterminated vector", "non-integer vector entry",
        "negative exponent", "malformed factor ", "no letters and no monomials in input",
        "vector length  does not match  letters", "order must list every letter exactly once",
        "total degree  exceeds the -bit limit",
    }, errors
    assert reordered > 100 and parsed > 1000, (reordered, parsed)


def test_parse_reports_the_first_bad_member():
    # a name line past the 64-bit limit before a vector of the wrong length:
    # members are checked in file order
    text = f"letters: a b\na^{HUGE}\n[1]\n"
    with pytest.raises(ExponentOverflowError):
        parse_monomial_file(text)
    with pytest.raises(ParseError, match="line 3: vector length 1 does not match 2 letters"):
        referee_parse_monomial_file(text)


MONOMIAL_CALLS = (
    ["reduce"], ["check-fg"], ["generators"], ["generators", "--raw"], ["gb-lift"],
    ["is-cool"], ["find-cool"], ["all-cool"], ["preimage-fg"],
    ["oracle", "--target", "sorted", "--cap", "6"],
    ["oracle", "--target", "preimage", "--cap", "6"], ["convexity"],
)


@pytest.mark.parametrize(
    "header, members",
    [
        ("letters: a b c\norder: b a c", ["a b^2 c", "[3, 1, 0]", "c^2"]),
        ("letters: a b c\norder: c a b", ["a^2", "[0, 2, 0]", "b c", "[1, 0, 1]"]),
        ("letters: a b\norder: a b", ["a b", "[2, 0]", "b^3"]),
        ("letters: a b c\norder: a b c", ["a", "[1, 0, 0]", "b^2"]),  # not an antichain
    ],
)
def test_member_order_changes_no_command_output(tmp_path, capsys, header, members):
    f = tmp_path / "m.mon"
    seen = None
    for perm in itertools.permutations(members):
        f.write_text(header + "\n" + "\n".join(perm) + "\n")
        got = [outcome(capsys, [call[0], str(f), *call[1:]]) for call in MONOMIAL_CALLS]
        assert got == (seen or got), perm
        seen = got
    assert {code for code, _, _ in seen} <= {0, 1, 2}


def test_parse_nae_and_cnf(tmp_path, capsys):
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
    # a second header is an error, not a replacement of the first
    for parse, text in (
        (parse_cnf_file, "p cnf 5 1\np cnf 3 1\n1 2 3 0\n"),
        (parse_nae_file, "p nae 5 1\np nae 3 1\n1 2 3\n"),
    ):
        with pytest.raises(ParseError, match="line 2: duplicate header"):
            parse(text)
    # a header's clause count must match the clause lines, as a graph header's edge count does
    for parse, text, message in (
        (parse_cnf_file, "p cnf 3 5\n1 0\n", "header announces 5 clauses, found 1"),
        (parse_cnf_file, "p cnf 3 0\n1 0\n", "header announces 0 clauses, found 1"),
        (parse_nae_file, "p nae 3 4\n1 2 3\n", "header announces 4 clauses, found 1"),
        (parse_nae_file, "1 2 3\np nae 3 2\n", "header announces 2 clauses, found 1"),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message and info.value.line is None
    # a negative field is refused at its header line
    for parse, text, line in (
        (parse_cnf_file, "p cnf -2 0\n", 1),
        (parse_cnf_file, "c comment\np cnf 3 -1\n", 2),
        (parse_nae_file, "p nae -3 1\n1 2 3\n", 1),
        (parse_nae_file, "1 2 3\np nae 3 -1\n", 2),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line and str(info.value) == f"line {line}: negative header fields"
    assert parse_cnf_file("p cnf 3 0\n").clauses == ()
    assert len(parse_nae_file("1 2 3\np nae 3 1\n").clauses) == 1
    f = tmp_path / "short.cnf"
    for argv, text, count in (
        (("reduce-sat", str(f), "--target", "mdois"), "p cnf 3 5\n1 0\n", 5),
        (("reduce-nae", str(f)), "p nae 3 4\n1 2 3\n", 4),
    ):
        f.write_text(text)
        assert run(capsys, *argv) == (2, {"error": f"header announces {count} clauses, found 1"})
    for argv, text in (
        (("reduce-sat", str(f), "--target", "mdois"), "p cnf -2 0\n"),
        (("reduce-nae", str(f)), "p nae 3 -1\n1 2 3\n"),
        (("torient", str(f)), "p tgraph 2 -1\n"),
    ):
        f.write_text(text)
        assert run(capsys, *argv) == (2, {"error": "line 1: negative header fields"})


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


def test_cli_word_lists_decide_finite_generation_once(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((cli, "is_fg_sorted"), (sorted_ideal, "is_fg_sorted"),
                         (sorted_ideal, "_extremal_scan")):
        counting(module, name)
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    for argv, key, words in (
        (["generators", str(f)], "generators", ["b a^3", "b^2 a c", "b^2 a^2 c"]),
        (["generators", str(f), "--raw"], "generators", ["b a^3", "b^2 a c", "b^2 a^2 c"]),
        (["gb-lift", str(f)], "leading_words",
         ["a b", "c a", "c b", "b a^3", "b^2 a c", "b^2 a^2 c"]),
    ):
        calls.clear()
        assert run(capsys, *argv) == (0, {"verdict": True, key: words})
        assert calls == {"is_fg_sorted": 1, "_extremal_scan": 1}, argv
    # not finitely generated under a b c: the witness of check-fg, decided once
    calls.clear()
    refused = run(capsys, "check-fg", str(f), "--order", "a b c")
    assert refused[0] == 1
    for command in ("generators", "gb-lift"):
        calls.clear()
        assert run(capsys, command, str(f), "--order", "a b c") == refused
        assert calls == {"is_fg_sorted": 1}, command


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
    graph_file.write_text("p tgraph 3 2\ne 1 2\ne 2 3\nt 2\nt 1\n")
    code, payload = run(capsys, "torient", str(graph_file))
    assert code == 2 and payload == {"error": "line 5: duplicate t line"}


def test_cli_poly_commands(tmp_path, capsys):
    sys_file = tmp_path / "s.json"
    sys_file.write_text(json.dumps({"A": [[1, 1]], "W": [[3]]}))
    code, payload = run(capsys, "poly-member", str(sys_file), "--vector", "[1,2]")
    assert code == 0 and payload == {"member": True}
    code, payload = run(capsys, "poly-member", str(sys_file), "--vector", "[1,1]")
    assert code == 1
    for good in ("1 2", "1,2"):
        assert run(capsys, "poly-member", str(sys_file), "--vector", good) == (0, {"member": True})
    code, payload = run(capsys, "poly-member", str(sys_file), "--vector", "[]")
    assert code == 2 and "length 0" in payload["error"]
    # brackets are stripped only as a pair, and an empty entry is an error,
    # not skipped, as in a .mon file
    for bad in ("[1,2", "1,2]", "[1,,2]", "[,1,2]", "[1,2,]", "[,]"):
        code, payload = run(capsys, "poly-member", str(sys_file), "--vector", bad)
        assert code == 2 and payload == {"error": f"bad vector {bad!r}"}

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

    # ten members on two letters: the hull test tries them two at a time
    mon.write_text("".join(f"[{i},{2 * (10 - i) + i % 2}]\n" for i in range(10)))
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


@pytest.mark.parametrize(
    "command", [["generators"], ["oracle", "--target", "sorted", "--cap", "4"], ["convexity"]]
)
def test_cli_budget_must_be_a_nonnegative_integer(tmp_path, capsys, monkeypatch, command):
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    argv = [command[0], str(f), *command[1:]]
    for raw, message in (
        ("-1", "MONOIDEAL_BUDGET must be nonnegative, got -1"),
        ("-3", "MONOIDEAL_BUDGET must be nonnegative, got -3"),
        ("ten", "MONOIDEAL_BUDGET must be an integer, got 'ten'"),
    ):
        monkeypatch.setenv("MONOIDEAL_BUDGET", raw)
        assert run(capsys, *argv) == (2, {"error": message}), raw
    # a zero budget is legal: the command runs and exceeds it
    monkeypatch.setenv("MONOIDEAL_BUDGET", "0")
    assert run(capsys, *argv)[0] == 3


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


def test_cli_convexity_subset_budget_exceeded(tmp_path, capsys):
    # a box of 1296 points, with C(35, 4) member subsets to try at each
    mon = tmp_path / "quartics.mon"
    mon.write_text("letters: a b c d\n" + "".join(
        " ".join(f"{x}^{e}" for x, e in zip("abcd", row) if e) + "\n"
        for row in itertools.product(range(5), repeat=4) if sum(row) == 4))
    code, payload = run(capsys, "convexity", str(mon))
    assert code == 3 and "52360 member subsets" in payload["error"]


def test_cli_huge_exponents(tmp_path, capsys, monkeypatch):
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
    # the library refuses it alike at its default budget, before building a word
    _, monomials, ordering = parse_monomial_file(f.read_text())
    monkeypatch.setattr(sorted_ideal, "sigma", None)
    for entry in (sorted_ideal.fg_generating_set, sorted_ideal.groebner_lift):
        with pytest.raises(BudgetExceededError) as info:
            entry(monomials, ordering)
        assert str(info.value) == payload["error"]


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


@pytest.mark.parametrize(
    "flag",
    ["--letters", "--max-degree", "--quadratic-letters", "--nae-variables", "--nae-clauses",
     "--sat-variables", "--sat-clauses"],
)
def test_cli_crosscheck_refuses_a_negative_size(capsys, flag):
    code, payload = run(capsys, "crosscheck", flag, "-1")
    assert code == 2 and payload == {"error": f"{flag} must be nonnegative, got -1"}


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


def fresh_parser_outcome(capsys, monkeypatch, argv):
    """The same call with a newly built parser in place of the cached one."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)
        return outcome(capsys, argv)


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_command_help_matches_full_parser(capsys, monkeypatch, command):
    got = outcome(capsys, [command, "-h"])
    assert got == fresh_parser_outcome(capsys, monkeypatch, [command, "-h"])
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
    assert got == fresh_parser_outcome(capsys, monkeypatch, argv)
    assert got[0] == code


def test_one_parser_is_built_per_process(tmp_path, capsys, monkeypatch):
    cli._parser.cache_clear()
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, *args, **kwargs):
        built.append(name)
        return add_parser(self, name, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    assert main(["check-fg", str(f), "--order", "a b c"]) == 1
    assert built == COMMAND_NAMES and len(built) == 20
    built.clear()
    # every later call, help and usage errors included, reuses that parser
    assert main(["generators", str(f)]) == 0
    for argv in (["-h"], ["nope"], ["check-fg", str(f), "--pretty"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == []
    # a top-level error names every command
    usage = capsys.readouterr().err
    assert "unrecognized arguments: --pretty" in usage
    assert "{" + ",".join(COMMAND_NAMES) + "}" in usage.replace("\n", "").replace(" ", "")


def test_cached_parsers_leak_nothing_between_calls(tmp_path, capsys, monkeypatch):
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    f = str(f)
    sequence = [
        ["generators", f, "--raw"], ["generators", f],
        ["--pretty", "check-fg", f], ["check-fg", f],
        ["check-fg", f, "--order"], ["check-fg", f, "--order", "a b c"],
        ["nope"], ["gb-lift", f],
        ["oracle", f, "--target", "sorted", "--cap", "4"],
        ["oracle", f, "--target", "preimage", "--cap", "4"],
    ]
    for argv in sequence:
        got = outcome(capsys, argv)
        assert got == fresh_parser_outcome(capsys, monkeypatch, argv), argv
    assert [outcome(capsys, argv)[0] for argv in sequence] == [0, 0, 0, 0, 2, 1, 2, 0, 0, 0]
    # help text is laid out for the terminal width at the time of the call
    for columns in ("200", "40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["check-fg", "-h"], ["-h"], ["check-fg"]):
            assert outcome(capsys, argv) == fresh_parser_outcome(capsys, monkeypatch, argv)


def test_no_argument_spec_has_a_mutable_default():
    # the parsers are shared by every call of a process
    for name, _, _, arguments in COMMANDS:
        for flags, kwargs in arguments:
            assert kwargs.get("action") not in ("append", "append_const", "extend"), (name, flags)
            assert not isinstance(kwargs.get("default"), (list, dict, set)), (name, flags)


def test_check_fg_process_loads_only_the_modules_it_runs(tmp_path):
    # a fresh process decides check-fg with the package, cli, core and
    # sorted_ideal; dataclasses, and the inspect it imports, stay unloaded
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from monoideal.cli import main; "
        "code = main(sys.argv[2:]); print(*sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('monoideal', 'dataclasses', 'inspect'))); sys.exit(code)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", script, src, "check-fg", str(f)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == "", done
    verdict, loaded = done.stdout.splitlines()
    assert json.loads(verdict) == {"verdict": True}
    assert loaded.split() == [
        "monoideal", "monoideal.cli", "monoideal.core", "monoideal.sorted_ideal"]


def test_oracle_process_loads_no_dataclasses(tmp_path):
    # the word oracle's report is a slotted value class, as core's are
    f = tmp_path / "m.mon"
    f.write_text(EXAMPLE)
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from monoideal.cli import main; "
        "code = main(sys.argv[2:]); print(*sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('monoideal', 'dataclasses'))); sys.exit(code)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", script, src, "oracle", str(f),
                           "--target", "sorted", "--cap", "6"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == "", done
    report, loaded = done.stdout.splitlines()
    assert json.loads(report)["minimal_generators"] == ["b a^3", "b^2 a c", "b^2 a^2 c"]
    assert loaded.split() == ["monoideal", "monoideal.cli", "monoideal.core",
                              "monoideal.sorted_ideal", "monoideal.word_oracle"]


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # every value class is a core._Frozen subclass, so one process runs every
    # command without loading dataclasses, or the inspect it imports
    files = {
        "m.mon": EXAMPLE,
        "g.tg": "p tgraph 3 2\ne 1 2\ne 2 3\nt 2\n",
        "i.nae": "1 2 3\n",
        "f.cnf": "p cnf 3 1\n1 2 3 0\n",
        "s.json": json.dumps({"A": [[1, 1, 1]], "W": [[3]]}),
        "c.json": json.dumps({"kind": "support3", "generator": [1, 1, 1]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    mon, graph, nae, cnf, system, cert = (str(tmp_path / name) for name in files)
    runs = {
        "reduce": [mon], "check-fg": [mon], "generators": [mon], "gb-lift": [mon],
        "is-cool": [mon], "find-cool": [mon], "all-cool": [mon], "preimage-fg": [mon],
        "oracle": [mon, "--target", "preimage", "--cap", "4"], "torient": [graph],
        "gen-tophat": [], "gen-gadget": [], "reduce-nae": [nae],
        "poly-member": [system, "--vector", "1 1 1"], "poly-mingens": [system],
        "poly-union": [system, system], "verify-cert": [system, cert],
        "reduce-sat": [cnf, "--target", "pinfg"], "convexity": [mon],
        "crosscheck": ["--letters", "2", "--max-degree", "2", "--quadratic-letters", "3",
                       "--nae-variables", "1", "--nae-clauses", "1", "--sat-variables", "3",
                       "--sat-clauses", "1"],
    }
    assert list(runs) == [name for name, *_ in COMMANDS]
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from monoideal.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[2])]; "
        "print(json.dumps([codes, sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('monoideal', 'dataclasses', 'inspect'))]))"
    )
    argvs = [[name, *argv] for name, argv in runs.items()]
    done = subprocess.run([sys.executable, "-I", "-c", script, src, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert dict(zip(runs, codes)) == dict.fromkeys(runs, 0) | {
        "all-cool": 1, "preimage-fg": 1}
    assert loaded == sorted(["monoideal", "monoideal.cli", "monoideal.cool_orderings",
                             "monoideal.core", "monoideal.crosscheck", "monoideal.polyhedral",
                             "monoideal.preimage", "monoideal.sorted_ideal",
                             "monoideal.torientation", "monoideal.word_oracle"])


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
