"""Command-line front end: file parsing, dispatch, JSON output.

Exit codes: 0 computed, 1 negative decision, 2 input error, 3 enumeration
budget exceeded.  All machine output is a single JSON object on stdout;
``--pretty`` switches to indented rendering.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Sequence

from . import crosscheck
from .core import (
    Alphabet,
    BudgetExceededError,
    Monomial,
    MonoidealError,
    NotFinitelyGeneratedError,
    Ordering,
    ParseError,
    antichain_reduce,
    data_lines,
    format_monomial,
    format_ordering,
    format_word,
    monomial_set,
    sorted_monomials,
)
from .cool_orderings import all_orderings_cool, find_cool_ordering, is_cool
from .polyhedral import (
    DEFAULT_LATTICE_BUDGET,
    Certificate,
    IneqSystem,
    SatInstance,
    convexity_check,
    enumerate_minimal_generators as poly_minimal_generators,
    membership as poly_membership,
    sat_reduction,
    union as poly_union,
    verify_certificate,
)
from .preimage import preimage_degree_bounds, preimage_fg
from .sorted_ideal import (
    DEFAULT_LETTER_BUDGET,
    fg_generating_set,
    groebner_lift,
    is_fg_sorted,
    minimal_word_generators,
)
from .torientation import (
    NaeInstance,
    TGraph,
    format_tgraph,
    gadget3,
    nae3sat_reduce,
    parse_tgraph,
    t_orientation_search,
    top_hat,
)
from .word_oracle import (
    DEFAULT_MEMBERSHIP_BUDGET,
    preimage_report,
    sorted_ideal_report,
)

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_FACTOR_RE = re.compile(rf"^({_NAME})(?:\^(-?\d+))?$")


def parse_monomial_file(text: str) -> tuple[Alphabet, tuple[Monomial, ...], Ordering | None]:
    """Read a monomial list with optional `letters:` and `order:` lines.

    Monomial lines are whitespace-separated factors `name` or `name^k`, or
    a bracketed exponent vector `[1,2,1]`.  Letters used in name syntax
    without a declaration are appended in first-occurrence order; a file of
    bare vectors gets default names x1..xn.  A `letters:` line must come
    before every monomial line.
    """
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
                if not _FACTOR_RE.match(n) or "^" in n:
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
            match = _FACTOR_RE.match(token)
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
        ordering = _ordering_from_names(tokens, alphabet, lineno)
    return alphabet, monomial_set(monomials), ordering


def _ordering_from_names(
    tokens: Sequence[str], alphabet: Alphabet, lineno: int | None = None
) -> Ordering:
    if sorted(tokens) != sorted(alphabet.names):
        raise ParseError(
            "order must list every letter exactly once", lineno
        )
    return Ordering.from_sequence(tuple(alphabet.index(t) for t in tokens))


def _parse_clause_file(text: str, kind: str, make, clause_ok, clause_error: str):
    """Clause lines of signed integers, each optionally 0-terminated.

    An optional `p <kind> <vars> <clauses>` header fixes the variable
    count; without one it is the largest variable used.  `#` starts a
    comment, and so does a line starting with `c`.
    """
    variable_count = None
    clauses = []
    for lineno, line in data_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != kind:
                raise ParseError(f"expected header `p {kind} <vars> <clauses>`", lineno)
            try:
                variable_count, _ = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            continue
        try:
            lits = [int(p) for p in parts]
        except ValueError:
            raise ParseError("non-integer literal", lineno) from None
        if lits[-1] == 0:
            lits = lits[:-1]
        if not clause_ok(lits):
            raise ParseError(clause_error, lineno)
        clauses.append(tuple(lits))
    if variable_count is None:
        variable_count = max((abs(l) for c in clauses for l in c), default=0)
    try:
        return make(variable_count, tuple(clauses))
    except MonoidealError as exc:
        raise ParseError(str(exc)) from None


def parse_nae_file(text: str) -> NaeInstance:
    """Clause lines of three signed integers; optional `p nae <v> <k>` header."""
    return _parse_clause_file(
        text, "nae", NaeInstance, lambda c: len(c) == 3,
        "clauses must have exactly three literals",
    )


def parse_cnf_file(text: str) -> SatInstance:
    """DIMACS-style CNF: `p cnf <vars> <clauses>` then 0-terminated clauses."""
    return _parse_clause_file(text, "cnf", SatInstance, bool, "empty clause")


def _budget(default: int) -> int:
    raw = os.environ.get("MONOIDEAL_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise MonoidealError(f"MONOIDEAL_BUDGET must be an integer, got {raw!r}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_monomials(args) -> tuple[Alphabet, tuple[Monomial, ...], Ordering | None]:
    alphabet, monomials, ordering = parse_monomial_file(_read(args.file))
    if getattr(args, "order", None):
        ordering = _ordering_from_names(args.order.split(), alphabet)
    return alphabet, monomials, ordering


def _require_order(ordering: Ordering | None) -> Ordering:
    if ordering is None:
        raise ParseError("an ordering is required: add an `order:` line or --order")
    return ordering


def _witness_payload(witness, alphabet) -> dict:
    payload = {"verdict": witness.verdict}
    if witness.violator is not None:
        m, x = witness.violator
        payload["witness"] = {
            "monomial": format_monomial(m, alphabet),
            "letter": alphabet.names[x],
        }
    return payload


def _graph_payload(g: TGraph) -> dict:
    return {
        "vertex_count": g.vertex_count,
        "edges": [[u + 1, v + 1] for u, v in g.edges],
        "t": [t + 1 for t in sorted(g.tset)],
        "text": format_tgraph(g),
    }


# ---------------------------------------------------------------------------
# subcommand handlers, each returning (exit_code, payload)

def _cmd_reduce(args):
    alphabet, monomials, _ = _load_monomials(args)
    reduced = antichain_reduce(monomials)
    return 0, {
        "monomials": [format_monomial(m, alphabet) for m in sorted_monomials(reduced)]
    }


def _cmd_check_fg(args):
    alphabet, monomials, ordering = _load_monomials(args)
    witness = is_fg_sorted(monomials, _require_order(ordering))
    return (0 if witness.verdict else 1), _witness_payload(witness, alphabet)


def _word_list_command(args, key: str, words) -> tuple[int, dict]:
    """List ``words(M, ord, budget)``, or exit 1 with the witness of an
    ideal that is not finitely generated."""
    alphabet, monomials, ordering = _load_monomials(args)
    try:
        found = words(monomials, _require_order(ordering), _budget(DEFAULT_LETTER_BUDGET))
    except NotFinitelyGeneratedError as exc:
        return 1, _witness_payload(exc.witness, alphabet)
    return 0, {"verdict": True, key: [format_word(w, alphabet) for w in found]}


def _cmd_generators(args):
    def generators(M, ordering, budget):
        gens = fg_generating_set(M, ordering, budget)
        return gens if args.raw else minimal_word_generators(gens)

    return _word_list_command(args, "generators", generators)


def _cmd_gb_lift(args):
    return _word_list_command(args, "leading_words", groebner_lift)


def _cmd_is_cool(args):
    alphabet, monomials, ordering = _load_monomials(args)
    verdict = is_cool(monomials, _require_order(ordering))
    return (0 if verdict else 1), {"cool": verdict}


def _cmd_find_cool(args):
    alphabet, monomials, _ = _load_monomials(args)
    result = find_cool_ordering(monomials, alphabet.size)
    payload = {"found": result.found, "nodes_explored": result.nodes_explored}
    if result.found:
        payload["ordering"] = format_ordering(result.ordering, alphabet)
    return (0 if result.found else 1), payload


def _cmd_all_cool(args):
    _, monomials, _ = _load_monomials(args)
    verdict = all_orderings_cool(monomials)
    return (0 if verdict else 1), {"all_cool": verdict}


def _cmd_preimage_fg(args):
    alphabet, monomials, _ = _load_monomials(args)
    witness = preimage_fg(monomials)
    payload = _witness_payload(witness, alphabet)
    payload["degree_bounds"] = list(preimage_degree_bounds(monomials))
    return (0 if witness.verdict else 1), payload


def _cmd_oracle(args):
    alphabet, monomials, ordering = _load_monomials(args)
    budget = _budget(DEFAULT_MEMBERSHIP_BUDGET)
    if args.target == "sorted":
        report = sorted_ideal_report(
            monomials, _require_order(ordering), args.cap, budget
        )
    else:
        report = preimage_report(monomials, args.cap, budget)
    return 0, {
        "cap": report.cap,
        "minimal_generators": [
            format_word(w, alphabet) for w in report.minimal_generators
        ],
        "saturated": report.saturated,
    }


def _cmd_torient(args):
    g = parse_tgraph(_read(args.file))
    orientation = t_orientation_search(g)
    if orientation is None:
        return 1, {"found": False}
    return 0, {
        "found": True,
        "orientation": [[u + 1, v + 1] for u, v in orientation.arcs],
    }


def _cmd_gen_tophat(args):
    return 0, _graph_payload(top_hat())


def _cmd_gen_gadget(args):
    return 0, _graph_payload(gadget3())


def _cmd_reduce_nae(args):
    inst = parse_nae_file(_read(args.file))
    return 0, _graph_payload(nae3sat_reduce(inst))


def _load_system(path: str) -> IneqSystem:
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from None
    try:
        return IneqSystem.from_json_dict(data)
    except (MonoidealError, TypeError, KeyError) as exc:
        raise ParseError(f"bad inequality system in {path}: {exc}") from None


def _parse_vector(raw: str) -> tuple[int, ...]:
    body = raw.strip()
    if body.startswith("["):
        body = body[1:-1] if body.endswith("]") else body[1:]
    try:
        return tuple(int(p) for p in body.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"bad vector {raw!r}") from None


def _cmd_poly_member(args):
    sys_ = _load_system(args.file)
    verdict = poly_membership(sys_, _parse_vector(args.vector))
    return (0 if verdict else 1), {"member": verdict}


def _cmd_poly_mingens(args):
    sys_ = _load_system(args.file)
    gens = poly_minimal_generators(sys_, _budget(DEFAULT_LATTICE_BUDGET))
    return 0, {"minimal_generators": [list(g) for g in gens]}


def _cmd_poly_union(args):
    systems = [_load_system(p) for p in args.files]
    return 0, poly_union(systems).to_json_dict()


def _cmd_verify_cert(args):
    sys_ = _load_system(args.file)
    try:
        cert = Certificate.from_json_dict(json.loads(_read(args.certificate)))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad certificate: {exc}") from None
    valid = verify_certificate(sys_, cert)
    return (0 if valid else 1), {"valid": valid}


def _cmd_reduce_sat(args):
    inst = parse_cnf_file(_read(args.file))
    return 0, sat_reduction(inst, args.target).to_json_dict()


def _cmd_convexity(args):
    _, monomials, _ = _load_monomials(args)
    verdict = convexity_check(monomials, _budget(DEFAULT_LATTICE_BUDGET))
    return (0 if verdict else 1), {"convex": verdict}


def _cmd_crosscheck(args):
    results = crosscheck.run_all(
        letters=args.letters,
        max_degree=args.max_degree,
        quadratic_letters=args.quadratic_letters,
        nae_variables=args.nae_variables,
        nae_clauses=args.nae_clauses,
        sat_variables=args.sat_variables,
        sat_clauses=args.sat_clauses,
    )
    ok = all(v == 0 for v in results.values())
    return (0 if ok else 1), {"disagreements": results, "ok": ok}


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_FILE = _arg("file")
_ORDER = _arg("--order", help="letter names from smallest to largest")

# One row per subcommand: name, handler, help, and its argument specs in
# the order they are added.
COMMANDS = (
    ("reduce", _cmd_reduce, "divisibility-minimal members of a monomial list", (_FILE,)),
    ("check-fg", _cmd_check_fg, "finite generation of the sorted-word ideal", (_FILE, _ORDER)),
    ("generators", _cmd_generators, "generators of the sorted-word ideal",
     (_FILE, _ORDER, _arg("--raw", action="store_true", help="skip the minimality pass"))),
    ("gb-lift", _cmd_gb_lift, "leading words of the lifted Groebner basis", (_FILE, _ORDER)),
    ("is-cool", _cmd_is_cool, "test one ordering", (_FILE, _ORDER)),
    ("find-cool", _cmd_find_cool, "search for a cool ordering", (_FILE,)),
    ("all-cool", _cmd_all_cool, "test whether every ordering is cool", (_FILE,)),
    ("preimage-fg", _cmd_preimage_fg, "finite generation of the abelianization preimage",
     (_FILE,)),
    ("oracle", _cmd_oracle, "bounded enumeration of minimal word generators",
     (_FILE, _ORDER, _arg("--target", choices=("sorted", "preimage"), required=True),
      _arg("--cap", type=int, required=True))),
    ("torient", _cmd_torient, "search for an acyclic T-orientation", (_FILE,)),
    ("gen-tophat", _cmd_gen_tophat, "emit the seven-vertex hat gadget", ()),
    ("gen-gadget", _cmd_gen_gadget, "emit the three-hat clause gadget", ()),
    ("reduce-nae", _cmd_reduce_nae, "reduce a NAE-3SAT instance to a T-orientation graph",
     (_FILE,)),
    ("poly-member", _cmd_poly_member, "membership in an inequality-presented ideal",
     (_FILE, _arg("--vector", required=True))),
    ("poly-mingens", _cmd_poly_mingens, "minimal generators of an inequality-presented ideal",
     (_FILE,)),
    ("poly-union", _cmd_poly_union, "union of single-threshold systems",
     (_arg("files", nargs="+"),)),
    ("verify-cert", _cmd_verify_cert, "verify a negative certificate",
     (_FILE, _arg("certificate"))),
    ("reduce-sat", _cmd_reduce_sat, "reduce a CNF to an inequality-presented ideal",
     (_FILE, _arg("--target", choices=("mdois", "imfg", "pinfg"), required=True))),
    ("convexity", _cmd_convexity, "test convexity of a monomial ideal", (_FILE,)),
    ("crosscheck", _cmd_crosscheck, "run the invariant sweeps",
     tuple(_arg(flag, type=int, default=default) for flag, default in (
         ("--letters", 3), ("--max-degree", 2), ("--quadratic-letters", 4),
         ("--nae-variables", 2), ("--nae-clauses", 1), ("--sat-variables", 3),
         ("--sat-clauses", 1)))),
)
_COMMAND_NAMES = tuple(row[0] for row in COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` of that one alone.

    A one-command parser still names every command in its usage line, so
    its top-level errors print as the full parser's.  The full parser keeps
    the default metavar, because a set one also renames the action in the
    "invalid choice" and "required" errors.
    """
    parser = argparse.ArgumentParser(
        prog="monoideal",
        description="finite generation of word ideals from commutative monomial data",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    metavar = None if command is None else "{" + ",".join(_COMMAND_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, handler, help_, arguments in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(handler=handler)
    return parser


# Parsers hold argparse configuration only, and ``parse_args`` returns a new
# namespace on every call, so one parser per command serves every call of a
# process.  ``build_parser`` itself still returns a new parser each time.
_parser = functools.cache(build_parser)


def _requested_command(argv: Sequence[str]) -> str | None:
    """The command of ``[--pretty ...] <command> ...``, else None.

    Only spellings of ``--pretty`` may come before the command; any other
    leading token (``-h``, ``--``, ``-``, a negative number) may change how
    argparse reads the line, so it gets the full parser.
    """
    for token in argv:
        if not token.startswith("-"):
            return token if token in _COMMAND_NAMES else None
        if len(token) < 3 or not "--pretty".startswith(token):
            return None
    return None


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser(_requested_command(argv)).parse_args(argv)
    try:
        code, payload = args.handler(args)
    except ParseError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except BudgetExceededError as exc:
        print(json.dumps({"error": str(exc)}))
        return 3
    except (MonoidealError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    indent = 2 if args.pretty else None
    print(json.dumps(payload, indent=indent))
    return code


if __name__ == "__main__":
    sys.exit(main())
