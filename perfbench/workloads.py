"""The workloads: seeded inputs, the calls under test, and their referees.

Each workload builds a fixed list of instances from its seed (``build``),
takes one instance through the calls it measures (``run``, the timed part),
and then checks the outputs (``check``, untimed).  ``check`` returns the
instance's record, which enters the verdict digest, and its outcome:

* ``ok``: every output agrees with its referee;
* ``known``: the output is wrong in a documented way (the unsound pinfg
  reduction on unsatisfiable formulas; a huge ``decide-large`` instance
  stopped by its child's resource limits);
* ``fail``: anything else.

Inputs are built through the package's constructors, so validation cost
lands in set-up.  Every random choice comes from ``rng``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

NAMES = "abcdefgh"


@dataclass
class Plan:
    instances: list
    sizes: dict = field(default_factory=dict)


@dataclass
class Checked:
    """``sizes`` add to the sweep sizes of the gate; ``events`` are counted
    outside the verdict digest."""

    record: object
    outcome: str = "ok"
    note: str = ""
    sizes: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)


def _fail(record, note):
    return Checked(record, "fail", note)


def _witness(w):
    """A finite-generation witness as plain data."""
    if w.violator is None:
        return [w.verdict, None]
    mono, letter = w.violator
    return [w.verdict, list(mono.exponents), letter]


def _scaled(k):
    return max(1, round(k))


def stratified(rng, pool, key, count):
    """One random member from each of ``count`` equal slices of ``pool``
    sorted by ``key``.  Every seed draws another sample, but all samples
    share the pool's cost profile, which keeps the spread between seeds
    small."""
    ordered = sorted(pool, key=key)
    cuts = [round(i * len(ordered) / count) for i in range(count + 1)]
    return [ordered[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# probe part: the fast criteria against the word oracle

class ProbeSweep:
    """Every antichain over 3 letters (degree <= 3) and 4 letters (degree <= 2),
    deduplicated up to letter permutation; then seeded (representative,
    ordering) pairs through both finite-generation criteria and the oracle."""

    SHAPES = ((3, 3), (4, 2))
    PAIRS = 500
    REPORT_CAP = 4

    def build(self, m, rng, scale):
        cc, core = m.crosscheck, m.core
        reps, candidates = {}, 0
        for n, degree in self.SHAPES:
            seen, kept = set(), []
            for M in cc.antichains(n, degree):
                candidates += 1
                canon = cc.permutation_canonical(M, n)
                if canon not in seen:
                    seen.add(canon)
                    kept.append(M)
            reps[n] = kept
        # the oracle searches words up to the completeness bound, so the
        # bound orders the pairs by cost
        orderings = {n: [core.Ordering.from_sequence(seq)
                         for seq in itertools.permutations(range(n))] for n, _ in self.SHAPES}
        pool = [(M, o) for n, _ in self.SHAPES for M in reps[n] for o in orderings[n]]
        bound = m.sorted_ideal.complete_enumeration_bound
        instances = stratified(
            rng, pool, lambda p: (bound(*p), p[1].n, len(p[0])), _scaled(self.PAIRS * scale))
        rng.shuffle(instances)
        sizes = {
            "candidates": candidates,
            "representatives": sum(len(r) for r in reps.values()),
            "representatives_by_letters": {str(n): len(r) for n, r in reps.items()},
            "pairs": len(instances),
        }
        return Plan(instances, sizes)

    @staticmethod
    def key(inst):
        M, o = inst
        return [[list(x.exponents) for x in M], list(o.rank)]

    def new_state(self):
        return None

    def run(self, m, inst, state):
        M, o = inst
        return (
            m.sorted_ideal.is_fg_sorted(M, o),
            m.word_oracle.finiteness_probe(M, o),
            m.preimage.preimage_fg(M),
            m.preimage.preimage_fg_pairs(M),
            m.word_oracle.preimage_report(M, self.REPORT_CAP),
        )

    def check(self, m, inst, out, state):
        fg, probe, pre, pairs, report = out
        record = [_witness(fg), probe, _witness(pre), _witness(pairs),
                  [list(w.letters) for w in report.minimal_generators], report.saturated]
        if fg.verdict != probe:
            return _fail(record, f"is_fg_sorted {fg.verdict} but finiteness_probe {probe}")
        if pre.verdict != pairs.verdict:
            return _fail(record, "preimage_fg and preimage_fg_pairs disagree")
        return Checked(record)


# ---------------------------------------------------------------------------
# search part: coolness search, T-orientations and their referees

class SearchSweep:
    """Quadratic sets over 6 letters with letter-permuted copies, deduplicated
    and taken through search, exhaustive scan and graph orientation;
    non-quadratic antichains through the permutation search; NAE-3SAT
    instances through the reduction, refereed by brute force."""

    QUAD_LETTERS = 6
    QUAD_COOL = 50
    QUAD_NOT_COOL = 15
    QUAD_COPIES = 20
    QUAD_DRAWS = 1000
    SQUARE_P, PRODUCT_P = 0.1, 0.6
    NONQUAD_PER_SIZE = 5
    NAE_PER_CELL = 2
    NAE_DRAWS = 12

    def build(self, m, rng, scale):
        Monomial = m.core.Monomial
        n = self.QUAD_LETTERS

        def monomial(exps):
            return Monomial(tuple(exps))

        # pairwise non-isomorphic bases with fixed cool / not-cool quotas:
        # an ordering scan over a set with no cool ordering costs far more
        quota = {True: _scaled(self.QUAD_COOL * scale), False: _scaled(self.QUAD_NOT_COOL * scale)}
        bases = {True: [], False: []}
        invariants = set()
        # a fixed number of draws keeps the set-up work the same for every
        # seed; more follow only if a quota is still open
        draws = 0
        while draws < self.QUAD_DRAWS * scale or any(len(bases[c]) < quota[c] for c in quota):
            draws += 1
            exps = []
            for x in range(n):
                if rng.random() < self.SQUARE_P:
                    exps.append(tuple(2 if i == x else 0 for i in range(n)))
            for x, y in itertools.combinations(range(n), 2):
                if rng.random() < self.PRODUCT_P:
                    exps.append(tuple(1 if i in (x, y) else 0 for i in range(n)))
            inv = _quadratic_invariant(exps, n)
            if not exps or inv in invariants:
                continue
            M = tuple(map(monomial, exps))
            graph = m.cool_orderings.quadratic_graph(M, n)
            cool = m.torientation.t_orientation_search(graph) is not None
            if len(bases[cool]) < quota[cool]:
                invariants.add(inv)
                bases[cool].append(exps)
        bases = bases[True] + bases[False]
        instances = [("quad", b, tuple(map(monomial, e))) for b, e in enumerate(bases)]
        for _ in range(_scaled(self.QUAD_COPIES * scale)):
            b = rng.randrange(len(bases))
            perm = rng.sample(range(n), n)
            copy = [tuple(e[perm[i]] for i in range(n)) for e in bases[b]]
            rng.shuffle(copy)
            instances.append(("quad", b, tuple(map(monomial, copy))))

        for letters in (6, 7, 8):
            for _ in range(_scaled(self.NONQUAD_PER_SIZE * scale)):
                while True:
                    members = set()
                    for _ in range(rng.randint(3, 6)):
                        e = [0] * letters
                        for _ in range(rng.randint(2, 4)):
                            e[rng.randrange(letters)] += 1
                        members.add(tuple(e))
                    M = m.core.antichain_reduce(map(monomial, members))
                    if len(M) >= 2 and any(x.degree != 2 for x in M):
                        break
                instances.append(("nonquad", letters, M))

        # unsatisfiable instances cost the solver several times more
        for v in range(10, 14):
            cells = {True: [], False: []}
            draws = 0
            while draws < self.NAE_DRAWS or any(
                    len(c) < _scaled(self.NAE_PER_CELL * scale) for c in cells.values()):
                draws += 1
                clauses = []
                for _ in range(2 * v):
                    vs = rng.sample(range(1, v + 1), 3)
                    clauses.append(tuple(x if rng.random() < 0.5 else -x for x in vs))
                cell = cells[_nae_satisfiable(v, clauses)]
                if len(cell) < _scaled(self.NAE_PER_CELL * scale):
                    cell.append(m.torientation.NaeInstance(v, tuple(clauses)))
            instances += [("nae", v, inst) for cell in cells.values() for inst in cell]

        rng.shuffle(instances)
        kinds = [inst[0] for inst in instances]
        sizes = {
            "candidates": kinds.count("quad"),
            "bases": len(bases),
            "copies": _scaled(self.QUAD_COPIES * scale),
            "nonquadratic": kinds.count("nonquad"),
            "nae_instances": kinds.count("nae"),
        }
        return Plan(instances, sizes)

    @staticmethod
    def key(inst):
        kind, tag, data = inst
        if kind == "nae":
            return [kind, tag, [list(c) for c in data.clauses]]
        return [kind, tag, [list(x.exponents) for x in data]]

    def new_state(self):
        return {"seen": set(), "class_of_base": {}}

    def _scan(self, m, M, n):
        return any(m.cool_orderings.is_cool(M, o) for o in m.core.all_orderings(n))

    def run(self, m, inst, state):
        kind, tag, data = inst
        if kind == "quad":
            n = self.QUAD_LETTERS
            canon = m.crosscheck.permutation_canonical(data, n)
            if canon in state["seen"]:
                return ("dup", canon)
            state["seen"].add(canon)
            search = m.cool_orderings.find_cool_ordering(data)
            exhaustive = self._scan(m, data, n)
            graph = m.cool_orderings.quadratic_graph(data, n)
            return ("rep", canon, search, exhaustive, graph,
                    m.torientation.t_orientation_search(graph))
        if kind == "nonquad":
            search = m.cool_orderings.find_cool_ordering(data, tag)
            exhaustive = self._scan(m, data, tag) if tag == 6 and not search.found else None
            return (search, exhaustive)
        graph = m.torientation.nae3sat_reduce(data)
        return (graph, m.torientation.t_orientation_search(graph),
                m.torientation.nae3sat_brute(data))

    def check(self, m, inst, out, state):
        kind, tag, data = inst
        if kind == "quad":
            canon = out[1]
            record = [out[0], [list(e) for e in canon]]
            # a canonical form relabels letters, so each member keeps its
            # multiset of exponents
            if sorted(sorted(x.exponents) for x in data) != sorted(sorted(e) for e in canon):
                return _fail(record, "canonical form is not a relabeling of the set")
            known = state["class_of_base"].setdefault(tag, canon)
            if known != canon:
                return _fail(record, "a letter-permuted copy got another canonical form")
            if out[0] == "dup":
                return Checked(record)
            _, _, search, exhaustive, graph, orientation = out
            record += [search.found, _seq(search.ordering), search.nodes_explored,
                       exhaustive, _arcs(orientation)]
            sizes = {"representatives": 1}
            if not search.found == exhaustive == (orientation is not None):
                return Checked(record, "fail", "search, scan and orientation disagree", sizes)
            if search.found and not m.cool_orderings.is_cool(data, search.ordering):
                return Checked(record, "fail", "found ordering is not cool", sizes)
            if orientation is not None and not m.torientation.is_valid_t_orientation(
                    graph, orientation):
                return Checked(record, "fail", "invalid T-orientation", sizes)
            return Checked(record, sizes=sizes)
        if kind == "nonquad":
            search, exhaustive = out
            record = [search.found, _seq(search.ordering), search.nodes_explored, exhaustive]
            if search.found and not m.cool_orderings.is_cool(data, search.ordering):
                return _fail(record, "found ordering is not cool")
            if exhaustive:
                return _fail(record, "search missed a cool ordering")
            return Checked(record)
        graph, orientation, brute = out
        record = [brute, _arcs(orientation)]
        if (orientation is not None) != brute:
            return _fail(record, "NAE reduction disagrees with brute force")
        if orientation is not None and not m.torientation.is_valid_t_orientation(
                graph, orientation):
            return _fail(record, "invalid T-orientation")
        return Checked(record)


def _quadratic_invariant(exps, n):
    """Equal for letter-permuted copies of a quadratic set."""
    square = [any(e[x] == 2 for e in exps) for x in range(n)]
    nbrs = [[y for e in exps if e[x] == 1 for y in range(n) if y != x and e[y] == 1]
            for x in range(n)]
    return tuple(sorted(
        (square[x], len(nbrs[x]), tuple(sorted((len(nbrs[y]), square[y]) for y in nbrs[x])))
        for x in range(n)))


def _nae_satisfiable(v, clauses):
    """Not-all-equal satisfiability over all 2^v assignments at once, with
    one bit per assignment."""
    full = (1 << (1 << v)) - 1
    column = [(((1 << (1 << i)) - 1) << (1 << i)) * (full // ((1 << (1 << (i + 1))) - 1))
              for i in range(v)]
    ok = full
    for clause in clauses:
        a, b, c = (column[abs(l) - 1] if l > 0 else full ^ column[abs(l) - 1] for l in clause)
        ok &= (a | b | c) & ~(a & b & c)
    return ok != 0


def _seq(ordering):
    return None if ordering is None else list(ordering.sequence())


def _arcs(orientation):
    return None if orientation is None else [list(a) for a in orientation.arcs]


# ---------------------------------------------------------------------------
# poly part: inequality-presented ideals

def _satisfiable(variables, clauses):
    return any(
        all(any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in c) for c in clauses)
        for bits in range(1 << variables)
    )


def _brute_minimal_generators(rows, thresholds, ncols):
    """Minimal solutions of Ax >= w for some w, by scanning the box."""
    box = max((x for w in thresholds for x in w), default=0)

    def member(x):
        ax = [sum(a * v for a, v in zip(row, x)) for row in rows]
        return any(all(a >= b for a, b in zip(ax, w)) for w in thresholds)

    out = []
    for x in itertools.product(range(box + 1), repeat=ncols):
        if member(x) and not any(
            x[i] and member(x[:i] + (x[i] - 1,) + x[i + 1:]) for i in range(ncols)
        ):
            out.append(x)
    return sorted(out)


class PolySat:
    """CNFs through the three SAT reductions, random inequality systems
    through minimal generators and certificate checks, and small monomial
    sets through the convexity test."""

    CNF_VARIABLES = 3
    CNF = 14
    CNF_UNSAT = 2
    INEQ = 90
    CONVEX = 30
    TARGETS = ("mdois", "imfg", "pinfg")

    def build(self, m, rng, scale):
        poly = m.polyhedral
        v = self.CNF_VARIABLES
        cnfs = []
        n_cnf = _scaled(self.CNF * scale)
        n_unsat = min(n_cnf, _scaled(self.CNF_UNSAT * scale))
        for want_sat in [False] * n_unsat + [True] * (n_cnf - n_unsat):
            while True:
                clauses = []
                for _ in range(rng.randint(2, 5) if want_sat else rng.randint(3, 6)):
                    vs = rng.sample(range(1, v + 1), rng.randint(1, 3 if want_sat else 2))
                    clauses.append(tuple(sorted(x if rng.random() < 0.5 else -x for x in vs)))
                if _satisfiable(v, clauses) == want_sat:
                    break
            cnfs.append(("cnf", want_sat, poly.SatInstance(v, tuple(clauses))))

        # four columns and a threshold entry of 3: every scanned box has
        # 4^4 points, so the cost per system varies little
        systems, ncols = [], 4
        for _ in range(_scaled(self.INEQ * scale)):
            rows = [[rng.randint(0, 2) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
            thresholds = [[rng.randint(0, 3) for _ in rows] for _ in range(rng.randint(1, 3))]
            thresholds[0][rng.randrange(len(rows))] = 3
            systems.append(("ineq", None, poly.IneqSystem.make(rows, thresholds)))

        pool = []
        for _ in range(3 * _scaled(self.CONVEX * scale)):
            while True:
                members = {tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(3)}
                M = m.core.antichain_reduce(
                    m.core.Monomial(e) for e in members if any(e))
                if len(M) == 3:
                    break
            pool.append(M)
        # the convexity scan covers a box set by the largest degree
        sets = [("convex", None, M) for M in stratified(
            rng, pool, lambda M: (max(x.degree for x in M), sum(x.degree for x in M)),
            _scaled(self.CONVEX * scale))]

        instances = cnfs + systems + sets
        rng.shuffle(instances)
        sizes = {
            "cnf_instances": len(cnfs),
            "cnf_unsatisfiable": n_unsat,
            "ineq_systems": len(systems),
            "ineq_box_points": 4 ** ncols * len(systems),
            "convexity_sets": len(sets),
            "convexity_box_points": sum(
                (max(x.degree for x in M) + 2) ** M[0].n for _, _, M in sets),
        }
        return Plan(instances, sizes)

    @staticmethod
    def key(inst):
        kind, _, data = inst
        if kind == "cnf":
            return [kind, [list(c) for c in data.clauses]]
        if kind == "ineq":
            return [kind, [list(r) for r in data.rows], [list(w) for w in data.thresholds]]
        return [kind, [list(x.exponents) for x in data]]

    def new_state(self):
        return None

    def run(self, m, inst, state):
        poly = m.polyhedral
        kind, _, data = inst
        if kind == "cnf":
            sat = poly.brute_force_sat(data)
            return sat, [poly.reduction_is_negative(poly.sat_reduction(data, t), t)
                         for t in self.TARGETS]
        if kind == "ineq":
            gens = poly.enumerate_minimal_generators(data)
            verdicts = []
            for g in gens:
                verdicts.append(poly.verify_certificate(data, poly.Certificate("support3", g)))
                for z in range(data.ncols):
                    for kind_ in ("preimage_not_fg", "sorted_not_fg"):
                        verdicts.append(
                            poly.verify_certificate(data, poly.Certificate(kind_, g, z)))
            return gens, verdicts
        return poly.convexity_check(data)

    def check(self, m, inst, out, state):
        kind, expected, data = inst
        if kind == "cnf":
            sat, (mdois, imfg, pinfg) = out
            # the pinfg verdict stays out of the record, so a fix of the
            # known defect keeps the digest
            record = [sat, mdois, imfg]
            if sat != expected:
                return _fail(record, "brute_force_sat disagrees with the generator")
            if mdois != sat or imfg != sat:
                return _fail(record, "mdois or imfg reduction disagrees with SAT")
            if pinfg != sat:
                if sat:
                    return _fail(record, "pinfg reduction wrong on a satisfiable formula")
                return Checked(record, "known", "pinfg reduction unsound on unsatisfiable input")
            return Checked(record)
        if kind == "ineq":
            gens, verdicts = out
            record = [[list(g) for g in gens], verdicts]
            if [tuple(g) for g in gens] != _brute_minimal_generators(
                    data.rows, data.thresholds, data.ncols):
                return _fail(record, "minimal generators differ from the box-scan referee")
            per_gen = 1 + 2 * data.ncols
            for i, g in enumerate(gens):
                if verdicts[i * per_gen] != (sum(1 for x in g if x) >= 3):
                    return _fail(record, "support3 certificate verdict is wrong")
            return Checked(record)
        return Checked([out])


# ---------------------------------------------------------------------------
# decide-large: interactive decisions through the command line

_CHILD = "import sys; sys.path.insert(0, 'src'); from monoideal.cli import main; sys.exit(main(sys.argv[1:]))"
CHILD_CPU_S = 5
CHILD_ADDRESS_SPACE = 512 * 2**20
CHILD_WALL_S = 60


def _limit_child():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S + 1))
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def _fmt_monomial(exps):
    return " ".join(NAMES[i] if e == 1 else f"{NAMES[i]}^{e}"
                    for i, e in enumerate(exps) if e) or "1"


def _fmt_word(letters):
    if not letters:
        return "1"
    runs = ((x, len(list(g))) for x, g in itertools.groupby(letters))
    return " ".join(NAMES[x] if k == 1 else f"{NAMES[x]}^{k}" for x, k in runs)


def _mon_file(exps_list, n, order_seq=None):
    lines = ["letters: " + " ".join(NAMES[:n])]
    if order_seq is not None:
        lines.append("order: " + " ".join(NAMES[x] for x in order_seq))
    lines += [_fmt_monomial(e) for e in exps_list]
    return "\n".join(lines) + "\n"


class DecideLarge:
    """Antichains with exponents up to 2*10^5 through check-fg, preimage-fg,
    find-cool and, when the generating set is small, generators; plus huge
    scaled copies run by check-fg in a resource-limited child process."""

    CLI = 180
    HUGE = 2
    MAX_EXPONENT = 2 * 10**5
    GEN_MAX_COUNT = 10**4
    GEN_MAX_LETTERS = 2 * 10**4
    HUGE_LOG2_K = (30, 40)

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def build(self, m, rng, scale):
        core, si = m.core, m.sorted_ideal
        self.workdir.mkdir(parents=True, exist_ok=True)
        pool = []
        for _ in range(3 * _scaled(self.CLI * scale)):
            n = rng.randint(3, 6)
            members = set()
            for _ in range(rng.randint(1, 5)):
                e = [0] * n
                for x in rng.sample(range(n), rng.randint(1, min(3, n))):
                    e[x] = int(math.exp(rng.uniform(0, math.log(self.MAX_EXPONENT))))
                members.add(tuple(e))
            M = core.antichain_reduce(core.Monomial(e) for e in members)
            seq = rng.sample(range(n), n)
            o = core.Ordering.from_sequence(seq)
            count = si.generator_count_bound(M, o)
            length = si.complete_enumeration_bound(M, o)
            generators = count <= self.GEN_MAX_COUNT and count * length <= self.GEN_MAX_LETTERS
            # letters the sorted words take: check-fg sorts every member
            # once, generators again and then emits up to count words
            letters = sum(x.degree for x in M)
            if generators:
                letters += letters + count * length
            pool.append((M, o, n, seq, generators, letters))
        chosen = stratified(rng, pool, lambda c: c[5], _scaled(self.CLI * scale))
        instances = []
        for i, (M, o, n, seq, generators, _) in enumerate(chosen):
            path = self.workdir / f"cli{i}.mon"
            path.write_text(_mon_file([x.exponents for x in M], n))
            order = " ".join(NAMES[x] for x in seq)
            argvs = [["check-fg", str(path), "--order", order], ["preimage-fg", str(path)],
                     ["find-cool", str(path)]]
            if generators:
                argvs.append(["generators", str(path), "--order", order])
            instances.append(("cli", (M, o, n), argvs))

        for i in range(_scaled(self.HUGE * scale)):
            while True:
                n = rng.randint(3, 4)
                members = {tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(rng.randint(2, 4))}
                members.discard((0,) * n)
                M = core.antichain_reduce(core.Monomial(e) for e in members)
                seq = rng.sample(range(n), n)
                o = core.Ordering.from_sequence(seq)
                k = int(2 ** rng.uniform(*self.HUGE_LOG2_K))
                # keep instances whose witness scales with k at k = 2 and 3
                small = si.is_fg_sorted(M, o)
                if all(_scaled_witness(si.is_fg_sorted(_scale(core, M, j), o), 1)
                       == _scaled_witness(small, j) for j in (2, 3)):
                    break
            path = self.workdir / f"huge{i}.mon"
            path.write_text(_mon_file([tuple(k * e for e in x.exponents) for x in M], n, seq))
            expected = (0 if small.verdict else 1, _scaled_witness(small, k))
            instances.append(("huge", expected, ["check-fg", str(path)]))

        rng.shuffle(instances)
        sizes = {
            "cli_instances": sum(1 for i in instances if i[0] == "cli"),
            "generators_runs": sum(1 for i in instances if i[0] == "cli" and len(i[2]) == 4),
            "huge_instances": sum(1 for i in instances if i[0] == "huge"),
        }
        return Plan(instances, sizes)

    @staticmethod
    def key(inst):
        kind, data, argvs = inst
        if kind == "huge":
            return [kind, data[0], data[1], Path(argvs[1]).read_text()]
        M, o, n = data
        return [kind, [list(x.exponents) for x in M], list(o.rank), len(argvs)]

    def new_state(self):
        return None

    def run(self, m, inst, state):
        kind, _, argvs = inst
        if kind == "huge":
            try:
                done = subprocess.run(
                    [sys.executable, "-I", "-c", _CHILD, *argvs], capture_output=True,
                    text=True, timeout=CHILD_WALL_S, preexec_fn=_limit_child)
            except subprocess.TimeoutExpired:
                return None
            return done.returncode, done.stdout, done.stderr[-2000:]
        outputs = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = m.cli.main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(self, m, inst, out, state):
        kind, data, argvs = inst
        if kind == "huge":
            code, payload = data
            record = [code, payload]
            if out is None:
                return Checked(record, "known", "child exceeded its wall-clock limit",
                               events={"cli.child.killed": 1})
            rc, stdout, stderr = out
            if rc == code and _json(stdout) == payload:
                return Checked(record)
            if rc < 0 or "MemoryError" in stderr:
                return Checked(record, "known", "child stopped by its resource limits",
                               events={"cli.child.killed": 1})
            return _fail(record, f"child exit {rc}: {stdout.strip()[:200]}")
        M, o, n = data
        co, si, pre = m.cool_orderings, m.sorted_ideal, m.preimage
        fg = si.is_fg_sorted(M, o)
        pw = pre.preimage_fg(M)
        search = co.find_cool_ordering(M, n)
        expected = [(0 if fg.verdict else 1, _scaled_witness(fg, 1))]
        pre_payload = _scaled_witness(pw, 1)
        pre_payload["degree_bounds"] = list(pre.preimage_degree_bounds(M))
        expected.append((0 if pw.verdict else 1, pre_payload))
        cool = {"found": search.found, "nodes_explored": search.nodes_explored}
        if search.found:
            cool["ordering"] = " ".join(NAMES[x] for x in search.ordering.sequence())
        expected.append((0 if search.found else 1, cool))
        if len(argvs) == 4:
            if fg.verdict:
                words = m.core.sorted_words(
                    si.minimal_word_generators(si.fg_generating_set(M, o)))
                expected.append((0, {"verdict": True,
                                     "generators": [_fmt_word(w.letters) for w in words]}))
            else:
                expected.append(expected[0])
        got = [(code, _json(text)) for code, text in out]
        record = [[code, payload] for code, payload in expected]
        if got != expected:
            for argv, g, e in zip(argvs, got, expected):
                if g != e:
                    return _fail(record, f"{argv[0]}: got {str(g)[:200]}, library {str(e)[:200]}")
        if search.found and not co.is_cool(M, search.ordering):
            return _fail(record, "find-cool returned an ordering that is not cool")
        return Checked(record)


def _scale(core, M, k):
    return tuple(core.Monomial(tuple(k * e for e in x.exponents)) for x in M)


def _scaled_witness(w, k):
    payload = {"verdict": w.verdict}
    if w.violator is not None:
        mono, letter = w.violator
        payload["witness"] = {"monomial": _fmt_monomial(tuple(k * e for e in mono.exponents)),
                              "letter": NAMES[letter]}
    return payload


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# sweeps: the three refereed sweeps in one shuffled instance list

class Sweeps:
    """The probe, search and poly parts in one run.  One workload with long
    runs measures more steadily on a shared machine than three short ones,
    whose machine speed drifts between runs."""

    def __init__(self):
        self.parts = {"probe": ProbeSweep(), "search": SearchSweep(), "poly": PolySat()}

    def build(self, m, rng, scale):
        instances, sizes = [], {}
        for name, part in self.parts.items():
            plan = part.build(m, rng, scale)
            instances += [(name, inst) for inst in plan.instances]
            sizes.update({f"{name}.{k}": v for k, v in plan.sizes.items()})
        rng.shuffle(instances)
        return Plan(instances, sizes)

    def key(self, inst):
        name, sub = inst
        return [name, self.parts[name].key(sub)]

    def new_state(self):
        return {name: part.new_state() for name, part in self.parts.items()}

    def run(self, m, inst, state):
        name, sub = inst
        return self.parts[name].run(m, sub, state[name])

    def check(self, m, inst, out, state):
        name, sub = inst
        checked = self.parts[name].check(m, sub, out, state[name])
        checked.sizes = {f"{name}.{k}": v for k, v in checked.sizes.items()}
        return checked


def make(name: str, workdir: Path):
    return {"sweeps": Sweeps, "decide-large": lambda: DecideLarge(workdir)}[name]()


WORKLOAD_NAMES = ("sweeps", "decide-large")
