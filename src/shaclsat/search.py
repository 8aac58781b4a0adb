"""Exact bounded finite-model search.

The sentence is grounded over a fixed domain size into CNF and decided by
a small conflict-driven solver with a static branching order, so the
first model found is the least one in the canonical enumeration order
(domain assignments before relation edges, absent before present).

Two modes:

* ``canonical`` — domain elements are RDF terms.  Constants occupy fixed
  slots; every free slot picks a term from a generated catalog (fresh
  IRIs, filter-combination witnesses, orderable literals), so filters,
  equalities and orders are computed, never guessed.
* ``uninterpreted`` — elements are abstract.  Constants may co-denote,
  filters are free monadic relations, and orders are enumerated as a
  partition into blocks carrying strict total orders.

hasShape is always defined by its definition, never enumerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from . import namespaces as ns
from .filter_semantics import term_satisfies
from .filters import CapExceeded, FilterCombination, canonical_key, gamma_with_witnesses
from .scl import (
    Alt,
    And,
    AtConst,
    AtMostGlobal,
    CountExists,
    Disjoint,
    EqConst,
    Equals,
    Filter,
    ForClass,
    ForSubjectsOf,
    HasShape,
    IllFormedSentence,
    Not,
    Opt,
    OrderCmp,
    PathExpr,
    Rel,
    SclFormula,
    SclSentence,
    Seq,
    ShapeDef,
    Star,
    Top,
    check_well_formed,
    conjuncts,
    formula_filters,
    node_constants,
    nodes,
    relation_names,
    shape_definitions,
)
from .structures import FiniteStructure, OrderBlock, shape_evaluator
from .terms import ComparisonVerdict, Term, compare_terms, iri, literal
from .translate import extract_definitions

CANONICAL = "canonical"
UNINTERPRETED = "uninterpreted"
CATALOG_CAP = 1 << 12  # most filter combinations the canonical catalog enumerates


class SearchBudgetExceeded(Exception):
    pass


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise SearchBudgetExceeded()


class ModelConfirmationError(RuntimeError):
    """The decoded structure failed re-evaluation; an engine invariant broke."""


@dataclass
class SatVerdict:
    outcome: str  # "Sat" | "UnsatUpTo" | "Aborted"
    model: Optional[FiniteStructure] = None
    bound: Optional[int] = None
    reason: Optional[str] = None

    @property
    def is_sat(self) -> bool:
        return self.outcome == "Sat"

    def to_json(self) -> dict:
        out: dict = {"outcome": self.outcome}
        if self.model is not None:
            out["model"] = self.model.to_json()
        if self.bound is not None:
            out["bound"] = self.bound
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# --------------------------------------------------------------------------
# CDCL solver with static branching
# --------------------------------------------------------------------------


class _Solver:
    """CDCL over a fixed static branching order, with two watched literals
    per clause and first-UIP learning; no restarts and no clause deletion.

    The search is a contract, because `_solve_once` returns its first model
    as the least one and the benchmark pins its counters.  A change that
    keeps the search keeps the visit order: `_propagate` visits a literal's
    watchers in list order; a clause whose watch moves is swapped with the
    last watcher, removed, and appended at the end of its new literal's
    list; a learned clause is sorted by decreasing level before it is
    watched.  `solve`, `_analyze` and the `propagations` attribute keep
    their names, because the benchmark's tracer wraps or reads them.

    `assign` and `watches` are indexed by the literal itself: a negative
    literal wraps to the upper half of the 2n + 1 entries, so `assign[lit]`
    is 1, -1 or 0 for true, false or unassigned, and `assign[1:n + 1]` is
    the assignment of the variables.
    """

    def __init__(self, n_vars: int, clauses: list[list[int]], deadline: Optional[float]):
        self.n = n_vars
        self.assign = [0] * (2 * n_vars + 1)
        self.level = [0] * (n_vars + 1)
        self.reason: list[Optional[list[int]]] = [None] * (n_vars + 1)
        self.seen = [False] * (n_vars + 1)  # scratch of `_analyze`, all False between calls
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n_vars + 1)]
        self.deadline = deadline
        self.propagations = 0
        self.ok = True
        for clause in clauses:
            self.add_clause(clause)

    # clause plumbing -------------------------------------------------

    def add_clause(self, lits: list[int]) -> None:
        if not self.ok:
            return
        clause = list(dict.fromkeys(lits))
        if any(-lit in clause for lit in clause):
            return  # tautology
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
            return
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        value = self.assign[lit]
        if value:
            return value == 1
        self.assign[lit] = 1
        self.assign[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[list[int]]:
        assign, level, reason = self.assign, self.level, self.reason
        watches, trail = self.watches, self.trail
        depth = len(self.trail_lim)
        qhead, propagations = self.qhead, self.propagations
        try:
            while qhead < len(trail):
                falsified = -trail[qhead]
                qhead += 1
                propagations += 1
                if not propagations & 4095:
                    _check_deadline(self.deadline)
                watchers = watches[falsified]
                i = 0
                end = len(watchers)
                while i < end:
                    clause = watchers[i]
                    # normalize: watched literals are clause[0], clause[1]
                    first = clause[0]
                    if first == falsified:
                        first = clause[0] = clause[1]
                        clause[1] = falsified
                    value = assign[first]
                    if value == 1:
                        i += 1
                        continue
                    for j in range(2, len(clause)):
                        other = clause[j]
                        if assign[other] != -1:
                            clause[1] = other
                            clause[j] = falsified
                            watches[other].append(clause)
                            end -= 1
                            watchers[i] = watchers[end]
                            watchers.pop()
                            break
                    else:
                        # unit or conflict on clause[0]
                        if value == -1:
                            return clause
                        assign[first] = 1
                        assign[-first] = -1
                        var = first if first > 0 else -first
                        level[var] = depth
                        reason[var] = clause
                        trail.append(first)
                        i += 1
            return None
        finally:
            self.qhead = qhead
            self.propagations = propagations

    # conflict analysis ------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        level, reason, trail, seen = self.level, self.reason, self.trail, self.seen
        learned: list[int] = []
        counter = 0
        p = 0  # trail literal currently being expanded; 0 is no literal
        clause = conflict
        index = len(trail) - 1
        current_level = len(self.trail_lim)
        while True:
            for q in clause:
                if q == p:
                    continue
                var = abs(q)
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                p = trail[index]
                index -= 1
                if seen[abs(p)]:
                    break
            counter -= 1
            seen[abs(p)] = False
            if counter == 0:
                break
            clause = reason[abs(p)] or []
        for q in learned:
            seen[abs(q)] = False
        learned.append(-p)
        if len(learned) == 1:
            return learned, 0
        return learned, max(level[abs(q)] for q in learned[:-1])

    def _backjump(self, target_level: int) -> None:
        mark = self.trail_lim[target_level]
        del self.trail_lim[target_level:]
        assign, trail = self.assign, self.trail
        for lit in trail[mark:]:
            assign[lit] = 0
            assign[-lit] = 0
        del trail[mark:]
        self.qhead = min(self.qhead, mark)

    # main loop ----------------------------------------------------------

    def solve(self, decisions: list[int], preferred: dict[int, bool]) -> Optional[list[int]]:
        """Returns assignment list (index by var, -1/1) or None if unsat."""
        if not self.ok:
            return None
        conflict = self._propagate()
        if conflict is not None:
            return None
        assign = self.assign
        cursor = 0
        while True:
            # pick the first unassigned decision variable in static order
            while cursor < len(decisions) and assign[decisions[cursor]] != 0:
                cursor += 1
            if cursor >= len(decisions):
                # aux variables are determined by the decisions; propagate
                # has already run, so anything unassigned is unconstrained
                model = assign[: self.n + 1]
                for var in range(1, self.n + 1):
                    if model[var] == 0:
                        model[var] = -1
                return model
            var = decisions[cursor]
            lit = var if preferred.get(var, False) else -var
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)
            while True:
                conflict = self._propagate()
                if conflict is None:
                    break
                if not self.trail_lim:
                    return None
                learned, target = self._analyze(conflict)
                self._backjump(target)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        return None
                else:
                    learned.sort(key=lambda q: -self.level[abs(q)])
                    self.watches[learned[0]].append(learned)
                    self.watches[learned[1]].append(learned)
                    self._enqueue(learned[0], learned)
                cursor = 0
        # unreachable


def _solve_once(
    n_vars: int,
    clauses: list[list[int]],
    decisions: list[int],
    preferred: dict[int, bool],
    deadline: Optional[float],
) -> Optional[list[int]]:
    """The lex-least model over `decisions` (each compared under its
    preferred polarity), or None if the clauses are unsatisfiable.

    No minimisation pass is needed as long as `_Solver` keeps this
    condition: it decides the first unassigned variable of `decisions`,
    always on its preferred polarity, and never restarts.  A variable
    assigned at level l by propagation or by a learned clause was still
    unassigned when each decision at levels <= l was picked, so all of
    those decisions come earlier in the order, and the clauses plus those
    decisions imply its value.  Hence a variable takes its non-preferred
    value only when no model agreeing on the earlier variables has the
    preferred one: the first model found is the least one.  Learned
    clauses are implied by the input clauses, so the argument rests on the
    input clauses and the earlier decisions alone and does not depend on
    which learned clauses the solver keeps; deleting some of them keeps
    the least model.  A faster existence check (VSIDS, restarts) must
    still answer SAT with a static-order pass like this one.
    """
    return _Solver(n_vars, clauses, deadline).solve(decisions, preferred)


# --------------------------------------------------------------------------
# Grounding
# --------------------------------------------------------------------------


class _Cnf:
    def __init__(self) -> None:
        self.n_vars = 0
        self.clauses: list[list[int]] = []
        self.true_lit = self.new_var()
        self.add([self.true_lit])

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add(self, clause: list[int]) -> None:
        self.clauses.append(list(clause))

    @property
    def false_lit(self) -> int:
        return -self.true_lit

    def aux_and(self, lits: list[int]) -> int:
        lits = [l for l in lits if l != self.true_lit]
        if any(l == self.false_lit for l in lits):
            return self.false_lit
        if not lits:
            return self.true_lit
        if len(lits) == 1:
            return lits[0]
        v = self.new_var()
        for l in lits:
            self.add([-v, l])
        self.add([v] + [-l for l in lits])
        return v

    def aux_or(self, lits: list[int]) -> int:
        return -self.aux_and([-l for l in lits])

    def aux_iff(self, a: int, b: int) -> int:
        if a == self.true_lit:
            return b
        if b == self.true_lit:
            return a
        if a == self.false_lit:
            return -b
        if b == self.false_lit:
            return -a
        v = self.new_var()
        self.add([-v, -a, b])
        self.add([-v, a, -b])
        self.add([v, a, b])
        self.add([v, -a, -b])
        return v

    def at_most(self, lits: list[int], bound: int) -> None:
        if bound >= len(lits):
            return
        for subset in combinations(lits, bound + 1):
            self.add([-l for l in subset])


def _order_witnesses(count: int) -> list[Term]:
    out: list[Term] = []
    for i in range(count):
        out.append(literal(str(7100 + i), ns.XSD_INTEGER))
    for i in range(count):
        out.append(literal(f"ow{i}"))
    for i in range(min(count, 27)):
        out.append(literal(f"2021-03-{(i % 27) + 1:02d}T12:00:00", ns.XSD_DATETIME))
    out.append(literal("true", ns.XSD_BOOLEAN))
    out.append(literal("false", ns.XSD_BOOLEAN))
    return out


def _build_catalog(
    constants: list[Term],
    filters: list,
    fresh_count: int,
    order_needed: bool,
    deadline: Optional[float] = None,
) -> list[Term]:
    """Candidate terms for free domain slots in canonical mode.  Raises
    SearchBudgetExceeded once `deadline` has passed, checked before each
    filter combination."""
    taken = {canonical_key(c) for c in constants}
    catalog: list[Term] = []

    def push(term: Term) -> None:
        key = canonical_key(term)
        if key not in taken:
            taken.add(key)
            catalog.append(term)

    for i in range(fresh_count):
        push(iri(f"{ns.GEN_NS}elem:{i}"))
    if filters:
        if 2 ** len(filters) > CATALOG_CAP:
            raise CapExceeded(f"filter alphabet too large for catalog ({len(filters)} filters)")
        for signs in product((True, False), repeat=len(filters)):
            _check_deadline(deadline)
            combo = FilterCombination(
                positive_filters=frozenset(f for f, s in zip(filters, signs) if s),
                negative_filters=frozenset(f for f, s in zip(filters, signs) if not s),
                negative_eq=frozenset(constants),
            )
            _, witnesses = gamma_with_witnesses(combo, fresh_count)
            for term in witnesses:
                push(term)
    if order_needed:
        for term in _order_witnesses(fresh_count):
            push(term)
    return catalog


class _Grounder:
    def __init__(
        self,
        sentence: SclSentence,
        k: int,
        mode: str,
        scan: Optional[SclSentence] = None,
        deadline: Optional[float] = None,
    ):
        self.sentence = sentence
        self.k = k
        self.mode = mode
        self.deadline = deadline
        self.cnf = _Cnf()
        scan = scan if scan is not None else sentence
        self.relations = sorted(relation_names(scan), key=Term.sort_key)
        self.constants = sorted(node_constants(scan), key=Term.sort_key)
        self.filters = sorted(formula_filters(scan), key=lambda f: f.sort_key())
        seen_defs: dict[Term, ShapeDef] = {}
        for d in shape_definitions(scan):
            seen_defs.setdefault(d.name, d)
        self.defs = list(seen_defs.values())
        self.order_needed = any(isinstance(n, OrderCmp) for n in nodes(scan))

        self.decision_vars: list[int] = []
        self.preferred: dict[int, bool] = {}

        self.const_slot = {c: i for i, c in enumerate(self.constants)}
        self.catalog: list[Term] = []
        self.ch: dict[tuple[int, int], int] = {}
        self.den: dict[tuple[Term, int], int] = {}
        self.rel: dict[tuple[Term, int, int], int] = {}
        self.filt: dict[tuple[object, int], int] = {}
        self.inb: dict[int, int] = {}
        self.sb: dict[tuple[int, int], int] = {}
        self.lt: dict[tuple[int, int], int] = {}
        self.hs: dict[tuple[Term, int], int] = {}
        self._formula_lit: dict[tuple[SclFormula, int], int] = {}
        self._path_mat: dict[PathExpr, list[list[int]]] = {}
        self._sigma_cache: dict[tuple[int, int, bool], int] = {}

        if mode == CANONICAL:
            self._setup_canonical()
        else:
            self._setup_uninterpreted()
        self._setup_relations()
        if mode == UNINTERPRETED and self.filters:
            self._setup_filter_vars()
        if mode == UNINTERPRETED and self.order_needed:
            self._setup_order_vars()
        self._setup_shape_vars()
        self._assert_sentence()
        if mode == UNINTERPRETED:
            self._symmetry_leader()

    # ---- variable setup -------------------------------------------------

    def _decide(self, preferred: bool) -> int:
        """A new decision variable, branched on first at `preferred`."""
        v = self.cnf.new_var()
        self.decision_vars.append(v)
        self.preferred[v] = preferred
        return v

    def _setup_canonical(self) -> None:
        m = len(self.constants)
        if m > self.k:
            raise ValueError("domain too small for the constants")
        fresh = self.k - m
        self.catalog = _build_catalog(
            self.constants, self.filters, fresh, self.order_needed, self.deadline
        )
        # not enough distinct candidate terms; extend with plain IRIs
        self.catalog += [iri(f"{ns.GEN_NS}extra:{i}") for i in range(fresh - len(self.catalog))]
        for s in range(m, self.k):
            row = [self._decide(t == 0) for t in range(len(self.catalog))]
            self.ch.update(((s, t), v) for t, v in enumerate(row))
            self.cnf.add(row)  # at least one
            self.cnf.at_most(row, 1)
        for t in range(len(self.catalog)):
            col = [self.ch[(s, t)] for s in range(m, self.k)]
            self.cnf.at_most(col, 1)
        # fixed slot order: catalog indices ascend across free slots
        for s in range(m, self.k - 1):
            for a in range(len(self.catalog)):
                for b in range(a + 1):
                    self.cnf.add([-self.ch[(s, a)], -self.ch[(s + 1, b)]])

    def _setup_uninterpreted(self) -> None:
        for c in self.constants:
            row = [self._decide(i == 0) for i in range(self.k)]
            self.den.update(((c, i), v) for i, v in enumerate(row))
            self.cnf.add(row)
            self.cnf.at_most(row, 1)

    def _setup_relations(self) -> None:
        for r in self.relations:
            for i in range(self.k):
                for j in range(self.k):
                    self.rel[(r, i, j)] = self._decide(False)

    def _setup_filter_vars(self) -> None:
        for f in self.filters:
            for i in range(self.k):
                self.filt[(f, i)] = self._decide(False)

    def _setup_order_vars(self) -> None:
        k = self.k
        for i in range(k):
            self.inb[i] = self._decide(False)
        for i in range(k):
            for j in range(i + 1, k):
                self.sb[(i, j)] = self._decide(False)
        for i in range(k):
            for j in range(k):
                if i != j:
                    self.lt[(i, j)] = self._decide(False)
        sb = lambda i, j: self.sb[(min(i, j), max(i, j))]
        for i in range(k):
            for j in range(i + 1, k):
                self.cnf.add([-sb(i, j), self.inb[i]])
                self.cnf.add([-sb(i, j), self.inb[j]])
                # same block is total: one strict direction
                self.cnf.add([-sb(i, j), self.lt[(i, j)], self.lt[(j, i)]])
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                self.cnf.add([-self.lt[(i, j)], sb(i, j)])
                if i < j:
                    self.cnf.add([-self.lt[(i, j)], -self.lt[(j, i)]])
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if len({i, j, l}) == 3:
                        self.cnf.add(
                            [-self.lt[(i, j)], -self.lt[(j, l)], self.lt[(i, l)]]
                        )
        # block membership is transitive as an equivalence on ordered elements
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if i < j and j != l and i != l:
                        self.cnf.add([-sb(i, j), -sb(j, l), sb(i, l)])

    def _setup_shape_vars(self) -> None:
        for d in self.defs:
            for i in range(self.k):
                self.hs[(d.name, i)] = self.cnf.new_var()

    # ---- atoms -----------------------------------------------------------

    def _eq_const_lit(self, c: Term, i: int) -> int:
        if self.mode == CANONICAL:
            return self.cnf.true_lit if self.const_slot.get(c) == i else self.cnf.false_lit
        if (c, i) not in self.den:
            # constant absent from the scanned constant set (defensive)
            raise KeyError(f"unknown constant {c}")
        return self.den[(c, i)]

    def _choices(self, s: int) -> list[tuple[int, Term]]:
        """Canonical mode: the (literal, term) pairs slot `s` may hold.  The
        constants fill the first slots, one each; a free slot may hold any
        catalog term."""
        if s < len(self.constants):
            return [(self.cnf.true_lit, self.constants[s])]
        return [(self.ch[(s, t)], term) for t, term in enumerate(self.catalog)]

    def _filter_lit(self, name, i: int) -> int:
        key = (name, i)
        if key not in self.filt:
            if self.mode == UNINTERPRETED:
                raise KeyError(f"filter {name} not set up")
            self.filt[key] = self.cnf.aux_or(
                [lit for lit, term in self._choices(i) if term_satisfies(name, term)]
            )
        return self.filt[key]

    def _sigma_lit(self, a: int, b: int, strict: bool) -> int:
        """y <= z (or <) between slots a and b."""
        key = (a, b, strict)
        if key not in self._sigma_cache:
            if self.mode == CANONICAL:
                lit = self._sigma_canonical(a, b, strict)
            elif a == b:
                lit = self.cnf.false_lit if strict else self.inb[a]
            else:
                lit = self.lt[(a, b)]
            self._sigma_cache[key] = lit
        return self._sigma_cache[key]

    def _sigma_canonical(self, a: int, b: int, strict: bool) -> int:
        ok = (ComparisonVerdict.LT,) if strict else (ComparisonVerdict.LT, ComparisonVerdict.EQ)
        if a == b:
            return self.cnf.aux_or(
                [lit for lit, term in self._choices(a) if compare_terms(term, term) in ok]
            )
        # two slots never hold the same term, so a pair of one term is skipped
        return self.cnf.aux_or(
            [
                self.cnf.aux_and([lit_a, lit_b])
                for lit_a, term_a in self._choices(a)
                for lit_b, term_b in self._choices(b)
                if term_a != term_b and compare_terms(term_a, term_b) in ok
            ]
        )

    # ---- paths ------------------------------------------------------------

    def _rel_matrix(self, name: Term, inverted: bool) -> list[list[int]]:
        k = self.k
        if inverted:
            return [[self.rel[(name, j, i)] for j in range(k)] for i in range(k)]
        return [[self.rel[(name, i, j)] for j in range(k)] for i in range(k)]

    def _compose(self, left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
        k = self.k
        out = []
        for i in range(k):
            row = []
            for j in range(k):
                terms = [self.cnf.aux_and([left[i][m], right[m][j]]) for m in range(k)]
                row.append(self.cnf.aux_or(terms))
            out.append(row)
        return out

    def _union(self, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        return [
            [self.cnf.aux_or([a[i][j], b[i][j]]) for j in range(self.k)] for i in range(self.k)
        ]

    def path_matrix(self, path: PathExpr) -> list[list[int]]:
        if path in self._path_mat:
            return self._path_mat[path]
        if isinstance(path, Rel):
            mat = self._rel_matrix(path.name, path.inverted)
        elif isinstance(path, Seq):
            mat = self._compose(self.path_matrix(path.left), self.path_matrix(path.right))
        elif isinstance(path, Alt):
            mat = self._union(self.path_matrix(path.left), self.path_matrix(path.right))
        elif isinstance(path, (Opt, Star)):
            inner = self.path_matrix(path.inner)
            mat = [
                [self.cnf.true_lit if i == j else inner[i][j] for j in range(self.k)]
                for i in range(self.k)
            ]
            steps = 1
            while isinstance(path, Star) and steps < self.k - 1:
                mat = self._compose(mat, mat)
                steps *= 2
        else:  # pragma: no cover
            raise TypeError(f"unknown path {path!r}")
        self._path_mat[path] = mat
        return mat

    # ---- formulas -----------------------------------------------------------

    def formula_lit(self, f: SclFormula, i: int) -> int:
        key = (f, i)
        if key in self._formula_lit:
            return self._formula_lit[key]
        lit = self._formula_lit_raw(f, i)
        self._formula_lit[key] = lit
        return lit

    def _formula_lit_raw(self, f: SclFormula, x: int) -> int:
        cnf = self.cnf
        if isinstance(f, Top):
            return cnf.true_lit
        if isinstance(f, EqConst):
            return self._eq_const_lit(f.constant, x)
        if isinstance(f, Filter):
            return self._filter_lit(f.name, x)
        if isinstance(f, HasShape):
            if (f.shape, x) not in self.hs:
                raise KeyError(f"undefined shape name {f.shape}")
            return self.hs[(f.shape, x)]
        if isinstance(f, Not):
            return -self.formula_lit(f.body, x)
        if isinstance(f, And):
            return cnf.aux_and([self.formula_lit(f.left, x), self.formula_lit(f.right, x)])
        if isinstance(f, CountExists):
            mat = self.path_matrix(f.path)
            hits = [
                cnf.aux_and([mat[x][j], self.formula_lit(f.body, j)]) for j in range(self.k)
            ]
            options = [
                cnf.aux_and(list(subset)) for subset in combinations(hits, f.threshold)
            ]
            return cnf.aux_or(options)
        if isinstance(f, Disjoint):
            mat = self.path_matrix(f.path)
            rel = self._rel_matrix(f.relation, False)
            overlap = [cnf.aux_and([mat[x][j], rel[x][j]]) for j in range(self.k)]
            return -cnf.aux_or(overlap)
        if isinstance(f, Equals):
            mat = self.path_matrix(f.path)
            rel = self._rel_matrix(f.relation, False)
            agrees = [cnf.aux_iff(mat[x][j], rel[x][j]) for j in range(self.k)]
            return cnf.aux_and(agrees)
        if isinstance(f, OrderCmp):
            mat = self.path_matrix(f.path)
            rel = self._rel_matrix(f.relation, False)
            checks = []
            for j in range(self.k):
                for l in range(self.k):
                    a, b = (l, j) if f.inverted else (j, l)
                    sigma = self._sigma_lit(a, b, f.strict)
                    checks.append(cnf.aux_or([-mat[x][j], -rel[x][l], sigma]))
            return cnf.aux_and(checks)
        raise TypeError(f"unknown formula {f!r}")

    # ---- sentences -------------------------------------------------------------

    def sentence_lit(self, part: SclSentence) -> int:
        cnf = self.cnf
        if isinstance(part, AtConst):
            if self.mode == CANONICAL:
                return self.formula_lit(part.body, self.const_slot[part.constant])
            per_slot = [
                cnf.aux_or([-self.den[(part.constant, i)], self.formula_lit(part.body, i)])
                for i in range(self.k)
            ]
            return cnf.aux_and(per_slot)
        if isinstance(part, ForClass):
            is_a = iri(ns.RDF_TYPE)
            checks = []
            if self.mode == CANONICAL:
                c = self.const_slot[part.cls]
                for i in range(self.k):
                    checks.append(
                        cnf.aux_or([-self.rel[(is_a, i, c)], self.formula_lit(part.body, i)])
                    )
            else:
                for i in range(self.k):
                    for j in range(self.k):
                        checks.append(
                            cnf.aux_or(
                                [
                                    -self.rel[(is_a, i, j)],
                                    -self.den[(part.cls, j)],
                                    self.formula_lit(part.body, i),
                                ]
                            )
                        )
            return cnf.aux_and(checks)
        if isinstance(part, ForSubjectsOf):
            edges = self._rel_matrix(part.relation, part.inverted)
            checks = [
                cnf.aux_or([-edges[i][j], self.formula_lit(part.body, i)])
                for i in range(self.k)
                for j in range(self.k)
            ]
            return cnf.aux_and(checks)
        if isinstance(part, ShapeDef):
            checks = [
                cnf.aux_iff(self.hs[(part.name, i)], self.formula_lit(part.body, i))
                for i in range(self.k)
            ]
            return cnf.aux_and(checks)
        if isinstance(part, AtMostGlobal):
            hits = [self.formula_lit(part.body, i) for i in range(self.k)]
            violations = [
                cnf.aux_and(list(subset)) for subset in combinations(hits, part.bound + 1)
            ]
            return -cnf.aux_or(violations)
        raise TypeError(f"unknown sentence {part!r}")

    def _assert_sentence(self) -> None:
        for part in conjuncts(self.sentence):
            _check_deadline(self.deadline)
            self.cnf.add([self.sentence_lit(part)])

    # ---- symmetry ----------------------------------------------------------------

    def _symmetry_leader(self) -> None:
        """Lexicographic leader constraints for adjacent slot swaps."""
        for e in range(self.k - 1):

            def sw(i: int) -> int:
                return e + 1 if i == e else e if i == e + 1 else i

            # each decision variable's partner under swapping slots e, e+1
            image: dict[int, int] = {}
            for (c, i), v in self.den.items():
                image[v] = self.den[(c, sw(i))]
            for (r, i, j), v in self.rel.items():
                image[v] = self.rel[(r, sw(i), sw(j))]
            for (f, i), v in self.filt.items():
                image[v] = self.filt[(f, sw(i))]
            for i, v in self.inb.items():
                image[v] = self.inb[sw(i)]
            for (i, j), v in self.sb.items():
                image[v] = self.sb[(min(sw(i), sw(j)), max(sw(i), sw(j)))]
            for (i, j), v in self.lt.items():
                image[v] = self.lt[(sw(i), sw(j))]
            prefix_eq = self.cnf.true_lit
            for var in self.decision_vars:
                other = image[var]
                if other == var:
                    continue
                # both positions compare under the current position's
                # preference polarity: bit_t(M) <= bit_t(swapped M)
                if self.preferred[var]:
                    bit, other_bit = -var, -other
                else:
                    bit, other_bit = var, other
                self.cnf.add([-prefix_eq, -bit, other_bit])
                prefix_eq = self.cnf.aux_and([prefix_eq, self.cnf.aux_iff(var, other)])

    # ---- decode ---------------------------------------------------------------------

    def decode(self, assignment: list[int]) -> FiniteStructure:
        def truth(lit: int) -> bool:
            if lit == self.cnf.true_lit:
                return True
            if lit == self.cnf.false_lit:
                return False
            return assignment[abs(lit)] == (1 if lit > 0 else -1)

        if self.mode == CANONICAL:
            terms: list[Term] = []
            for s in range(self.k):
                chosen = [term for lit, term in self._choices(s) if truth(lit)]
                if not chosen:  # pragma: no cover - exactly-one guarantees
                    raise ModelConfirmationError("free slot without a term")
                terms.append(chosen[0])
            constants_map: dict[Term, Term] = {}
            filter_interp = None
            order_blocks = None
        else:
            terms = [iri(f"{ns.GEN_NS}elem:{i}") for i in range(self.k)]
            constants_map = {}
            for c in self.constants:
                for i in range(self.k):
                    if truth(self.den[(c, i)]):
                        constants_map[c] = terms[i]
                        break
            filter_interp = {
                f: frozenset(
                    terms[i] for i in range(self.k) if truth(self.filt[(f, i)])
                )
                for f in self.filters
            }
            order_blocks = self._decode_blocks(truth, terms)

        relations = {}
        for r in self.relations:
            pairs = {
                (terms[i], terms[j])
                for i in range(self.k)
                for j in range(self.k)
                if truth(self.rel[(r, i, j)])
            }
            if pairs:
                relations[r] = frozenset(pairs)
        return FiniteStructure(
            domain=tuple(terms),
            relations=relations,
            filter_interp=filter_interp,
            order_blocks=order_blocks,
            constants=constants_map,
        )

    def _decode_blocks(self, truth, terms: list[Term]) -> Optional[tuple[OrderBlock, ...]]:
        if not self.order_needed:
            return ()
        members = [i for i in range(self.k) if truth(self.inb[i])]
        blocks: list[list[int]] = []
        seen: set[int] = set()
        for i in members:
            if i in seen:
                continue
            block = [i]
            seen.add(i)
            for j in members:
                if j in seen or j == i:
                    continue
                a, b = min(i, j), max(i, j)
                if truth(self.sb[(a, b)]):
                    block.append(j)
                    seen.add(j)
            blocks.append(block)
        out = []
        for b, block in enumerate(blocks):
            ordered = sorted(
                block,
                key=lambda i: sum(
                    1 for j in block if j != i and truth(self.lt[(j, i)])
                ),
            )
            out.append(OrderBlock(f"block{b}", tuple(terms[i] for i in ordered)))
        return tuple(out)


# --------------------------------------------------------------------------
# Public entry points
# --------------------------------------------------------------------------


def _least_model(
    sentence: SclSentence,
    max_domain: int,
    budget: float,
    mode: str,
    scan: Optional[SclSentence] = None,
    refuted: tuple[SclSentence, ...] = (),
) -> Optional[FiniteStructure]:
    """The least model of `sentence` over the smallest domain size up to
    `max_domain`, or None when there is none.

    A non-empty `refuted` also requires some of its parts to fail.  `scan`
    (default: `sentence`) supplies the signature: relations, constants,
    filters and shape definitions.  The decoded structure carries no
    shape assignment.  Raises SearchBudgetExceeded once `budget` seconds
    have passed, checked before grounding each size, once per filter
    combination of the catalog and per conjunct while grounding it, before
    solving it and during propagation.
    """
    deadline = time.monotonic() + budget if budget else None
    scan = scan if scan is not None else sentence
    lower = max(1, len(node_constants(scan))) if mode == CANONICAL else 1
    for k in range(lower, max_domain + 1):
        _check_deadline(deadline)
        grounder = _Grounder(sentence, k, mode, scan, deadline)
        if refuted:
            grounder.cnf.add([-grounder.sentence_lit(part) for part in refuted])
        _check_deadline(deadline)
        assignment = _solve_once(
            grounder.cnf.n_vars,
            grounder.cnf.clauses,
            grounder.decision_vars,
            grounder.preferred,
            deadline,
        )
        if assignment is not None:
            return grounder.decode(assignment)
    return None


def bounded_sat(
    sentence: SclSentence,
    max_domain: int = 4,
    budget: float = 10.0,
    mode: str = CANONICAL,
) -> SatVerdict:
    """Search for a model with at most `max_domain` elements.

    Returns the canonically least model over the smallest satisfiable
    domain size, UnsatUpTo(max_domain) when sizes 1..max_domain are
    exhausted, or Aborted on budget exhaustion.  Raises IllFormedSentence
    when a shape definition is missing, duplicated or recursive.
    """
    defects = check_well_formed(sentence)
    if defects:
        raise IllFormedSentence(defects)
    try:
        structure = _least_model(sentence, max_domain, budget, mode)
    except SearchBudgetExceeded:
        return SatVerdict("Aborted", reason="budget exhausted")
    if structure is None:
        return SatVerdict("UnsatUpTo", bound=max_domain)
    ev = shape_evaluator(structure, extract_definitions(sentence))
    if not ev.sentence(sentence):
        raise ModelConfirmationError("decoded model failed re-evaluation at size %d" % ev.n)
    return SatVerdict("Sat", model=ev.assigned_structure())
