"""Cross-checks of the search engine against brute-force enumeration."""

import itertools
import random

from corpus import random_formula
from shaclsat.scl import AtConst, ForClass, SclSentence, sentence_conj
from shaclsat.search import UNINTERPRETED, _solve_once, bounded_sat
from shaclsat.structures import Evaluator, FiniteStructure
from shaclsat.terms import iri

EX = "http://corpus.example/"


def _random_cnf(rng: random.Random, n_vars: int, n_clauses: int):
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, 3)
        clause = []
        for _ in range(width):
            var = rng.randint(1, n_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return clauses


def _brute_force_models(n_vars: int, clauses) -> list[tuple[int, ...]]:
    models = []
    for bits in itertools.product((False, True), repeat=n_vars):
        ok = True
        for clause in clauses:
            if not any((bits[abs(l) - 1]) == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            models.append(bits)
    return models


def _random_tseitin_cnf(rng: random.Random, n_vars: int, n_clauses: int):
    """Random clauses over variables 1..n_vars, plus a few auxiliaries
    a <-> l1 & l2 numbered from n_vars + 1, as the grounder defines them;
    later clauses sometimes use them.  Returns (total variables, clauses)."""
    clauses = _random_cnf(rng, n_vars, n_clauses)
    total = n_vars
    for _ in range(rng.randint(0, 3)):
        l1, l2 = (rng.choice((1, -1)) * rng.randint(1, total) for _ in range(2))
        total += 1
        a = total
        clauses += [[-a, l1], [-a, l2], [a, -l1, -l2]]
        if rng.random() < 0.5:
            clauses.append([rng.choice((a, -a))] + _random_cnf(rng, n_vars, 1)[0])
    return total, clauses


def test_solver_agrees_with_truth_table_and_returns_lex_least():
    rng = random.Random(31337)
    for trial in range(1500):
        n = rng.randint(2, 9)
        total, clauses = _random_tseitin_cnf(rng, n, rng.randint(1, 30))
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


def _enumerate_structures(relations, constants, size):
    """All structures over `size` abstract elements, as evaluator inputs."""
    terms = tuple(iri(f"{EX}e{i}") for i in range(size))
    pairs = [(a, b) for a in terms for b in terms]
    for assignment in itertools.product(
        *[itertools.chain.from_iterable([itertools.combinations(pairs, k) for k in range(len(pairs) + 1)])
          for _ in relations]
    ):
        rel_map = {
            name: frozenset(chosen) for name, chosen in zip(relations, assignment) if chosen
        }
        for denotations in itertools.product(terms, repeat=len(constants)):
            yield FiniteStructure(
                domain=terms,
                relations=rel_map,
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
