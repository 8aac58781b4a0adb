"""Cross-checks of the search engine against brute-force enumeration."""

import itertools
import random

import pytest

import shaclsat.containment as containment
import shaclsat.search as search
from corpus import CONTAINMENT_PAIRS, corpus_documents, doc_ttl, edge_graph, random_formula
from shaclsat.containment import check_containment
from shaclsat.gadgets import DOMINO_VARIANTS, INFINITY_KINDS, TilingSystem, gadget_domino, gadget_infinity
from shaclsat.scl import (
    AtConst,
    EqConst,
    ForClass,
    Not,
    OrderCmp,
    SclSentence,
    formula_filters,
    nodes,
    sentence_conj,
)
from shaclsat.search import (
    CANONICAL,
    UNINTERPRETED,
    _Cnf,
    _Grounder,
    _least_model,
    _Solver,
    _solve_once,
    bounded_sat,
)
from shaclsat.shapes import parse_document
from shaclsat.structures import Evaluator, FiniteStructure
from shaclsat.terms import iri
from shaclsat.translate import translate
from test_search import FILTERS8_TTL

EX = "http://corpus.example/"


def _random_cnf(rng: random.Random, n_vars: int, n_clauses: int, max_width: int = 3):
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, max_width)
        clause = []
        for _ in range(width):
            var = rng.randint(1, n_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return clauses


def _brute_force_models(n_vars: int, clauses) -> list[tuple[bool, ...]]:
    # bit v - 1 of an assignment is variable v; a clause holds when a
    # positive literal's bit is set or a negative literal's bit is clear
    masks = [
        (sum(1 << (l - 1) for l in set(clause) if l > 0),
         sum(1 << (-l - 1) for l in set(clause) if l < 0))
        for clause in clauses
    ]
    return [
        tuple(bool(bits >> v & 1) for v in range(n_vars))
        for bits in range(1 << n_vars)
        if all(bits & pos or ~bits & neg for pos, neg in masks)
    ]


def _random_tseitin_cnf(rng: random.Random, n_vars: int, n_clauses: int, max_width: int = 3):
    """Random clauses over variables 1..n_vars, plus a few auxiliaries
    a <-> l1 & l2 numbered from n_vars + 1, as the grounder defines them;
    later clauses sometimes use them.  Returns (total variables, clauses)."""
    clauses = _random_cnf(rng, n_vars, n_clauses, max_width)
    total = n_vars
    for _ in range(rng.randint(0, 3)):
        l1, l2 = (rng.choice((1, -1)) * rng.randint(1, total) for _ in range(2))
        total += 1
        a = total
        clauses += [[-a, l1], [-a, l2], [a, -l1, -l2]]
        if rng.random() < 0.5:
            clauses.append([rng.choice((a, -a))] + _random_cnf(rng, n_vars, 1)[0])
    return total, clauses


def _check_against_truth_table(rng: random.Random, trials: int, max_vars: int, max_width: int):
    for trial in range(trials):
        n = rng.randint(2, max_vars)
        total, clauses = _random_tseitin_cnf(rng, n, rng.randint(1, 30), max_width)
        # a shuffled static order over the non-auxiliary variables only
        decisions = rng.sample(range(1, n + 1), n)
        preferred = {v: rng.random() < 0.5 for v in decisions}
        model = _solve_once(total, clauses, decisions, preferred, None)
        reference = _brute_force_models(total, clauses)
        if model is None:
            assert not reference, (clauses, reference[:1])
            continue
        assert reference, clauses
        bits = tuple(model[v] == 1 for v in range(1, total + 1))
        assert bits in reference, (clauses, bits)

        # lexicographically least under the preference polarity, compared
        # on the decision variables in their order
        def key(assignment):
            return tuple(assignment[v - 1] != preferred[v] for v in decisions)

        best = min(reference, key=key)
        assert key(bits) == key(best), (clauses, decisions, preferred, bits, best)


def test_solver_agrees_with_truth_table_and_returns_lex_least():
    _check_against_truth_table(random.Random(31337), 1500, 9, 3)
    # wide clauses exercise the search for a new watch in clause[2:]
    _check_against_truth_table(random.Random(4242), 1000, 9, 6)


class _CountingSolver(_Solver):
    conflicts = 0

    def _analyze(self, conflict):
        self.conflicts += 1
        return super()._analyze(conflict)


# (propagations, conflicts) per domain size 1..6, over the clauses the
# search reads (`_Cnf.one_sided`).  Changes that keep the search (same
# clauses, decisions, watch order and learned clauses) keep these values;
# a change that alters the search, such as deleting learned clauses,
# re-pins them and says why.  Re-pinned, and extended from k = 4 to 5, when
# the lex-leader constraints moved from adjacent swaps with a seven-clause
# chain step to every slot transposition with a three-clause step: fewer
# clauses, and a smaller space to refute.  STD at k = 1 moved from 10 to 9
# propagations when `_Cnf.aux_and` stopped repeating an operand: a
# conjunction of one repeated operand is that operand, not a fresh
# variable to propagate.  Re-pinned, and extended to k = 6 (the size the
# benchmark refutes), when each gate kept only the half of its definition
# that its uses read: fewer clauses to propagate through and to learn from.
GADGET_SEARCH = {
    "C": [(9, 0), (77, 2), (321, 9), (1610, 33), (7930, 125), (39671, 502)],
    "STD": [(9, 0), (71, 3), (358, 9), (1976, 34), (14613, 178), (164510, 1342)],
    "O": [(10, 0), (189, 4), (1066, 28), (5021, 86), (21099, 263), (82116, 770)],
    "EOprime": [(10, 0), (138, 2), (678, 16), (3298, 58), (15084, 193), (68367, 649)],
}


def test_gadget_refutations_keep_their_search():
    for kind, expected in GADGET_SEARCH.items():
        got = []
        for k in range(1, len(expected) + 1):
            grounder = _Grounder(gadget_infinity(kind), k, UNINTERPRETED)
            solver = _CountingSolver(grounder.cnf.n_vars, grounder.cnf.one_sided(None), None)
            assert solver.solve(grounder.decision_vars, grounder.preferred) is None
            got.append((solver.propagations, solver.conflicts))
        assert got == expected, kind


def _enumerate_structures(relations, constants, size):
    """All structures over `size` abstract elements, as evaluator inputs."""
    terms = tuple(iri(f"{EX}e{i}") for i in range(size))
    pairs = [(a, b) for a in terms for b in terms]
    for assignment in itertools.product(
        *[itertools.chain.from_iterable([itertools.combinations(pairs, k) for k in range(len(pairs) + 1)])
          for _ in relations]
    ):
        graph = edge_graph(dict(zip(relations, assignment)))
        for denotations in itertools.product(terms, repeat=len(constants)):
            yield FiniteStructure(
                domain=terms,
                graph=graph,
                constants=dict(zip(constants, denotations)),
            )


def test_bounded_sat_agrees_with_structure_enumeration():
    rng = random.Random(2718)
    relations = [iri(EX + "r"), iri(EX + "q"), iri(EX + "p2"),
                 iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")]
    constant = iri(EX + "alice")
    checked = 0
    for trial in range(60):
        body = random_formula(rng, 2)
        from shaclsat.scl import formula_filters, nodes, OrderCmp

        # keep the enumeration oracle small: skip filters and order atoms
        if formula_filters(body) or any(
            isinstance(f, OrderCmp) for f in nodes(body)
        ):
            continue
        sentence: SclSentence = (
            AtConst(constant, body) if rng.random() < 0.7 else ForClass(constant, body)
        )
        from shaclsat.scl import node_constants, relation_names

        used = sorted(relation_names(sentence), key=lambda t: t.sort_key())
        constants = sorted(node_constants(sentence), key=lambda t: t.sort_key())
        if len(used) > 2 or len(constants) > 2:
            continue
        checked += 1
        brute_sat = False
        for size in (1, 2):
            for structure in _enumerate_structures(used, constants, size):
                if Evaluator(structure).sentence(sentence):
                    brute_sat = True
                    break
            if brute_sat:
                break
        verdict = bounded_sat(sentence, max_domain=2, budget=30, mode=UNINTERPRETED)
        assert verdict.is_sat == brute_sat, (sentence, verdict.outcome)
    assert checked >= 25


def _tiling_systems() -> list[TilingSystem]:
    def pairs(*ps):
        return frozenset(tuple(p) for p in ps)

    return [
        TilingSystem(("t",), pairs("tt"), pairs("tt")),
        TilingSystem(("a", "b"), pairs("ab", "ba"), pairs("ab", "ba")),
        TilingSystem(("a", "b"), pairs("aa", "ab", "ba", "bb"), pairs("aa", "ab", "ba", "bb")),
        TilingSystem(("t",), pairs(), pairs("tt")),  # empty H: no tiling
    ]


class _NoLeaderGrounder(_Grounder):
    def _symmetry_leader(self) -> None:
        pass


def _random_sentences() -> list[SclSentence]:
    """Seeds 7 (300 of depth 3) and 11 (120 of depth 4); every other one
    also needs two distinct elements."""
    alice, bob = iri(EX + "alice"), iri(EX + "bob")
    sentences = []
    for seed, count, depth in ((7, 300, 3), (11, 120, 4)):
        rng = random.Random(seed)
        for n in range(count):
            body = random_formula(rng, depth)
            sentence = AtConst(alice, body) if rng.random() < 0.7 else ForClass(alice, body)
            if n % 2:
                sentence = sentence_conj([sentence, AtConst(bob, Not(EqConst(alice)))])
            sentences.append(sentence)
    return sentences


def test_leader_constraints_keep_the_least_model(monkeypatch):
    """The lex-leader constraints only cut symmetric copies: with and
    without them, the uninterpreted search returns the same least model,
    or none."""
    sentences = _random_sentences()
    assert sum(bool(formula_filters(s)) for s in sentences) >= 50
    assert sum(any(isinstance(f, OrderCmp) for f in nodes(s)) for s in sentences) >= 50
    cases = [(sentence, 4) for sentence in sentences]
    cases += [(gadget_domino(v, system), 3) for system in _tiling_systems() for v in DOMINO_VARIANTS]
    cases += [(gadget_infinity(kind), 3) for kind in INFINITY_KINDS]

    led = [_least_model(sentence, k, 0, UNINTERPRETED) for sentence, k in cases]
    monkeypatch.setattr(search, "_Grounder", _NoLeaderGrounder)
    free = [_least_model(sentence, k, 0, UNINTERPRETED) for sentence, k in cases]
    for (sentence, _), a, b in zip(cases, led, free):
        assert a == b, sentence
    # the leader matters only where a model has two or more elements
    assert sum(a is not None and len(a.domain) >= 2 for a in led) >= 150
    assert all(a is None for a in led[-len(INFINITY_KINDS):])


def _containment_searches() -> list[tuple[tuple, dict]]:
    """The arguments of the `_least_model` call that `check_containment`
    makes on each of the corpus's containment pairs, at 4 elements."""
    calls = []

    def least_model(*args, **kwargs):
        calls.append((args, kwargs))
        return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(containment, "_least_model", least_model)
        for _, first, second, _ in CONTAINMENT_PAIRS:
            check_containment(parse_document(first), parse_document(second), 4, budget=0)
    return calls


def test_one_sided_gates_keep_the_least_model(monkeypatch):
    """`_Cnf.one_sided` drops only the gate halves that no use reads: with
    it and with every clause, `_least_model` returns the same least model,
    or none.  The random sentences and the corpus documents run in both
    modes; the dominos on every tiling system and the four gadgets at
    k <= 4, and the 8-filter document at k <= 5, run as the benchmark asks
    them; so do the five containment questions, with their refuted parts."""
    searches = [
        ((sentence, 4, 0, mode), {}) for sentence in _random_sentences()
        for mode in (CANONICAL, UNINTERPRETED)
    ]
    searches += [
        ((translate(parse_document(text)), 4, 0, mode), {})
        for _, text in corpus_documents() for mode in (CANONICAL, UNINTERPRETED)
    ]
    searches += [
        ((gadget_domino(v, system), 4, 0, UNINTERPRETED), {})
        for system in _tiling_systems() for v in DOMINO_VARIANTS
    ]
    searches += [((gadget_infinity(kind), 4, 0, UNINTERPRETED), {}) for kind in INFINITY_KINDS]
    searches.append(((translate(parse_document(doc_ttl(FILTERS8_TTL))), 5, 0, CANONICAL), {}))
    searches += _containment_searches()
    assert len(searches) == 976

    pruned = [_least_model(*args, **kwargs) for args, kwargs in searches]
    monkeypatch.setattr(_Cnf, "one_sided", lambda self, deadline: self.clauses)
    full = [_least_model(*args, **kwargs) for args, kwargs in searches]
    for (args, _), a, b in zip(searches, pruned, full):
        assert a == b, args
    assert sum(a is not None for a in pruned) >= 850
    assert sum(a is None for a in pruned) >= 50


def _clauses_hold(model: list[int], clauses) -> bool:
    return all(any(model[abs(l)] == (1 if l > 0 else -1) for l in clause) for clause in clauses)


def _random_gate_cnf(rng: random.Random, n_vars: int) -> tuple[_Cnf, list[int]]:
    """A `_Cnf` over `n_vars` decision variables, with random conjunctions,
    disjunctions and equivalences over them and over earlier gates, and a
    few random clauses over all of these.  Returns it and the decisions."""
    cnf = _Cnf()
    decisions = [cnf.new_var() for _ in range(n_vars)]
    pool = list(decisions)

    def pick() -> int:
        return rng.choice(pool) * rng.choice((1, -1))

    for _ in range(rng.randint(1, 12)):
        operands = [pick() for _ in range(rng.randint(2, 3))]
        kind = rng.randrange(3)
        if kind == 2:
            gate = cnf.aux_iff(operands[0], operands[1])
        else:
            gate = (cnf.aux_and if kind else cnf.aux_or)(operands)
        pool.append(abs(gate))
    for _ in range(rng.randint(1, 8)):
        cnf.add([pick() for _ in range(rng.randint(1, 3))])
    return cnf, decisions


def test_returned_assignments_meet_every_clause(monkeypatch):
    """Every assignment `_solve_once` returns satisfies every clause it was
    given, gates left open by propagation included: over the 8-filter
    document, the dominos with a tiling, the containment questions with a
    counterexample, and random gate-built CNFs.  On the random CNFs the
    one-sided clauses also give the same least model over the decisions
    as every clause."""
    returned = []
    real = search._solve_once

    def solve_once(n_vars, clauses, *args):
        model = real(n_vars, clauses, *args)
        if model is not None:
            assert _clauses_hold(model, clauses)
            returned.append(model)
        return model

    monkeypatch.setattr(search, "_solve_once", solve_once)
    assert bounded_sat(translate(parse_document(doc_ttl(FILTERS8_TTL))), max_domain=5).is_sat
    for system in _tiling_systems()[:-1]:
        for v in DOMINO_VARIANTS:
            assert bounded_sat(gadget_domino(v, system), 4, mode=UNINTERPRETED).is_sat
    for _, first, second, contained in CONTAINMENT_PAIRS:
        if not contained:
            verdict = check_containment(parse_document(first), parse_document(second), 4)
            assert verdict.outcome == "NotContained"
    assert len(returned) == 1 + 3 * len(DOMINO_VARIANTS) + 3

    rng = random.Random(2024)
    for _ in range(1500):
        cnf, decisions = _random_gate_cnf(rng, rng.randint(2, 8))
        preferred = {v: rng.random() < 0.5 for v in decisions}
        one_sided = cnf.one_sided(None)
        model = solve_once(cnf.n_vars, one_sided, decisions, preferred, None, cnf.gates)
        reference = real(cnf.n_vars, cnf.clauses, decisions, preferred, None)
        if model is None or reference is None:
            assert model is reference
        else:
            assert [model[v] for v in decisions] == [reference[v] for v in decisions]
    assert len(returned) >= 1000


# --------------------------------------------------------------------------
# UNSAT answers checked by reverse unit propagation
# --------------------------------------------------------------------------


class _RecordingSolver(_Solver):
    """Keeps a copy of every learned clause, in the order it was learned."""

    def __init__(self, *args):
        self.learned = []
        super().__init__(*args)

    def _analyze(self, conflict):
        learned, level = super()._analyze(conflict)
        self.learned.append(list(learned))
        return learned, level


def _unit_propagation_conflicts(clauses, occurs, assumed) -> bool:
    """Whether unit propagation over `clauses` from the literals `assumed`
    reaches a conflict.  `occurs[lit]` lists the indices of the clauses
    that contain `lit`.  A plain queue over occurrence lists, sharing no
    code with the solver."""
    true: set[int] = set()
    queue: list[int] = []

    def make_true(lit) -> bool:
        if -lit in true:
            return False
        if lit not in true:
            true.add(lit)
            queue.append(lit)
        return True

    def visit(clause) -> bool:
        """False on a conflict; sets the last open literal of a unit clause."""
        open_lits = {l for l in clause if -l not in true}
        if not open_lits:
            return False
        if len(open_lits) == 1:
            return make_true(open_lits.pop())
        return True

    if not all(make_true(lit) for lit in assumed):
        return True
    if not all(visit(clause) for clause in clauses):
        return True
    while queue:
        lit = queue.pop()
        for index in occurs.get(-lit, ()):
            if not visit(clauses[index]):
                return True
    return False


def _check_refutation(n_vars, clauses, decisions, preferred):
    """Solves the clauses, which must be unsatisfiable, and confirms every
    learned clause by reverse unit propagation (RUP: assuming its negation
    propagates to a conflict) over the input clauses and the clauses
    learned before it; then confirms that the empty clause is RUP over all
    of them (Goldberg & Novikov, DATE 2003)."""
    solver = _RecordingSolver(n_vars, clauses, None)
    assert solver.solve(decisions, preferred) is None
    known: list[list[int]] = []
    occurs: dict[int, list[int]] = {}

    def learn(clause):
        for lit in set(clause):
            occurs.setdefault(lit, []).append(len(known))
        known.append(clause)

    for clause in clauses:
        learn(clause)
    for clause in solver.learned:
        assert _unit_propagation_conflicts(known, occurs, [-lit for lit in clause]), clause
        learn(clause)
    assert _unit_propagation_conflicts(known, occurs, [])
    return len(solver.learned)


def test_unsat_answers_are_reverse_unit_propagation_refutations():
    """The infinity gadgets and the dominos on the empty-H system, k = 1..4,
    over the one-sided clauses the search reads, and unsatisfiable random
    CNFs: Tseitin-style ones as in the truth-table check (seed 1618, mostly
    refuted by level-0 propagation) and random 3-SAT at 4.5 clauses per
    variable (seed 1619, refuted by learning)."""
    learned = 0
    empty_h = _tiling_systems()[-1]
    for k in range(1, 5):
        sentences = [gadget_infinity(kind) for kind in INFINITY_KINDS]
        sentences += [gadget_domino(v, empty_h) for v in DOMINO_VARIANTS]
        for sentence in sentences:
            g = _Grounder(sentence, k, UNINTERPRETED)
            clauses = g.cnf.one_sided(None)
            learned += _check_refutation(g.cnf.n_vars, clauses, g.decision_vars, g.preferred)
    assert learned >= 300
    refuted = 0
    rng = random.Random(1618)
    for _ in range(300):
        n = rng.randint(2, 9)
        total, clauses = _random_tseitin_cnf(rng, n, rng.randint(10, 40), 3)
        decisions = rng.sample(range(1, n + 1), n)
        preferred = {v: rng.random() < 0.5 for v in decisions}
        if _solve_once(total, clauses, decisions, preferred, None) is None:
            _check_refutation(total, clauses, decisions, preferred)
            refuted += 1
    rng = random.Random(1619)
    learned = 0
    for _ in range(200):
        n = rng.randint(10, 18)
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(round(4.5 * n))
        ]
        decisions = rng.sample(range(1, n + 1), n)
        preferred = {v: rng.random() < 0.5 for v in decisions}
        if _solve_once(n, clauses, decisions, preferred, None) is None:
            learned += _check_refutation(n, clauses, decisions, preferred)
            refuted += 1
    assert refuted >= 300 and learned >= 500
