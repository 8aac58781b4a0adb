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
from itertools import combinations, compress
from typing import Optional

from . import namespaces as ns
from .filters import CapExceeded, FilterCombination, TermTable, gamma_with_witnesses
from .filters import compatible_combinations, incompatible_pairs
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
    FilterName,
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
    fold,
    formula_filters,
    node_constants,
    nodes,
    relation_names,
    shape_definitions,
)
from .scl_text import print_scl
from .structures import FiniteStructure, OrderBlock, shape_evaluator
from .terms import ComparisonVerdict, Term, Triple, TripleGraph, compare_terms, iri, literal
from .translate import extract_definitions

CANONICAL = "canonical"
UNINTERPRETED = "uninterpreted"


class SearchAborted(Exception):
    """The search stops without a verdict; the message is the reason."""


class SearchBudgetExceeded(SearchAborted):
    def __init__(self) -> None:
        super().__init__("budget exhausted")


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

    def solve(
        self, decisions: list[int], preferred: dict[int, bool], gates=()
    ) -> Optional[list[int]]:
        """Returns assignment list (index by var, -1/1) or None if unsat.
        `gates` lists gates as `_Cnf.gates` does; the clauses may hold only
        one half of a gate's definition."""
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
                return self._complete(gates)
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

    def _complete(self, gates) -> list[int]:
        """The assignment with every variable that propagation left open
        filled in: an open gate takes the value of its definition, oldest
        gate first, so its operands are already valued; any other open
        variable is false.  `_solve_once` says why this meets every clause."""
        model = self.assign[: self.n + 1]
        open_gates = [gate for gate in gates if not model[gate[0]]]
        for var in range(1, self.n + 1):
            if model[var] == 0:
                model[var] = -1
        for v, operands, iff, *_ in open_gates:
            values = [model[l] if l > 0 else -model[-l] for l in operands]
            holds = values[0] == values[1] if iff else -1 not in values
            model[v] = 1 if holds else -1
        return model


def _solve_once(
    n_vars: int,
    clauses: list[list[int]],
    decisions: list[int],
    preferred: dict[int, bool],
    deadline: Optional[float],
    gates=(),
) -> Optional[list[int]]:
    """The lex-least model over `decisions` (each compared under its
    preferred polarity), or None if the clauses are unsatisfiable.  When
    `clauses` comes from `_Cnf.one_sided`, `gates` is that `_Cnf.gates`.

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

    Returning a model needs one more fact: once every decision is assigned
    and propagation stops without a conflict, the assignment extends to a
    model of the clauses.  With both halves of every gate, propagation
    fixes each gate from its operands.  With the clauses of
    `_Cnf.one_sided` it still forces a gate used only positively to false
    whenever its definition is false, and one used only negatively to true
    whenever its definition is true.  This holds by induction over the
    gates, oldest first: each operand of a kept half occurs in it in the
    polarity that half reads, so it is forced where the half needs it.
    So every literal that a kept clause reads and propagation left open is
    a gate's, and becomes true when each open gate takes the value of its
    definition, oldest gate first (`_Solver._complete`); every clause
    holds.  The other variables outside `decisions` are shape variables,
    which propagation fixes (each is asserted equal to a body whose gates
    keep both halves); the rungs of the canonical slots' order ladders,
    which propagation fixes once each slot's choice variables are valued
    (`_Cnf.ascending_choices`); and the leader's chain variables, which are
    only ever forced true, so false meets their clauses.  A full decision
    assignment with no extension is thus still refuted.  Last, the
    one-sided clauses have the same models over the decisions as both
    halves (Plaisted & Greenbaum, J. Symb. Comp. 1986): recomputing each
    gate of a one-sided model from its definition, oldest first, keeps
    true every literal that a clause outside the gates reads and the model
    made true.  So the least model is the same.
    """
    return _Solver(n_vars, clauses, deadline).solve(decisions, preferred, gates)


# --------------------------------------------------------------------------
# Grounding
# --------------------------------------------------------------------------


class _Cnf:
    """Clauses over numbered variables, and the Tseitin gates among them.

    `gates` lists each gate oldest first as (variable, operands, is_iff,
    index of its first clause): `aux_and` defines v <-> (all operands) and
    `aux_iff` v <-> (a <-> b).  A gate's clauses are consecutive in
    `clauses`, each with the gate's literal first: its "gate -> definition"
    half, then its "definition -> gate" half.  `clauses` keeps both halves;
    `one_sided` gives the clauses the solver reads."""

    def __init__(self) -> None:
        self.n_vars = 0
        self.clauses: list[list[int]] = []
        self.gates: list[tuple[int, tuple[int, ...], bool, int]] = []
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
        """A literal that holds when all of `lits` do.  Repeated operands
        count once, and an operand beside its negation makes it false."""
        operands = dict.fromkeys(l for l in lits if l != self.true_lit)
        if self.false_lit in operands or any(-l in operands for l in operands):
            return self.false_lit
        lits = list(operands)
        if not lits:
            return self.true_lit
        if len(lits) == 1:
            return lits[0]
        v = self.new_var()
        self.gates.append((v, tuple(lits), False, len(self.clauses)))
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
        self.gates.append((v, (a, b), True, len(self.clauses)))
        self.add([-v, -a, b])
        self.add([-v, a, -b])
        self.add([v, a, b])
        self.add([v, -a, -b])
        return v

    def one_sided(self, deadline: Optional[float]) -> list[list[int]]:
        """The clauses with each gate's definition cut to the polarities the
        gate is used in (Plaisted & Greenbaum, J. Symb. Comp. 1986): its
        "gate -> definition" half stays only if the gate's literal occurs
        positively in a kept clause outside the gate's own, and its
        "definition -> gate" half only if it occurs negatively there.  A gate
        is used only by clauses made after it, so one pass over the gates,
        newest first, settles each gate after all of its users.  Call it
        once grounding is complete; `_solve_once` explains why the least
        model keeps.  Raises SearchBudgetExceeded if `deadline` has passed."""
        _check_deadline(deadline)
        clauses = self.clauses
        keep = bytearray(b"\x01") * len(clauses)  # 1 on each clause kept so far
        halves = []
        for v, operands, iff, start in self.gates:
            mid = start + (2 if iff else len(operands))
            end = mid + (2 if iff else 1)
            keep[start:end] = bytes(end - start)
            halves.append((v, start, mid, end))
        # the literals of the kept clauses; a gate's own clauses add its own
        # literal only once the gate is settled, so it never counts as a use
        used = set().union(*compress(clauses, keep))
        for v, start, mid, end in reversed(halves):
            positive, negative = v in used, -v in used
            for lo, hi, wanted in ((start, mid, positive), (mid, end, negative)):
                if wanted:
                    keep[lo:hi] = b"\x01" * (hi - lo)
                    used.update(*clauses[lo:hi])
        return list(compress(clauses, keep))

    def at_least(self, lits: list[int], n: int) -> int:
        """A literal that holds when at least n of `lits` do: one conjunction
        per n-subset, in `combinations` order."""
        if n > len(lits):
            # no n-subset; `combinations` would still allocate n indices,
            # and takes no n past sys.maxsize
            return self.false_lit
        return self.aux_or([self.aux_and(list(subset)) for subset in combinations(lits, n)])

    def at_most(self, lits: list[int], bound: int) -> None:
        if bound >= len(lits):
            return
        for subset in combinations(lits, bound + 1):
            self.add([-l for l in subset])

    def ascending_choices(self, rows: list[list[int]]) -> None:
        """Each row of n literals has exactly one true, and its column
        strictly ascends from row to row; in at most 4n clauses per row.

        Each row gets an order ladder, as in the order encoding (Tamura,
        Taga, Kitagawa & Banbara, Constraints 2009) and the sequential
        counter (Sinz, CP 2005).  Its rung t, for t in 1 .. n - 1, holds
        when the row's column is at least t; rung 0 always holds.  A row's
        column t sets its rung t and clears its rung t + 1, each rung
        implies the one below it, and the next row's column t clears this
        row's rung t.  So two columns of one row, or a column at or below
        the previous row's, clash.  The rungs are no decision variables:
        once a row's column is chosen, propagation fixes every rung of its
        ladder."""
        above: Optional[list[int]] = None  # the previous row's rungs 1 .. n - 1
        for row in rows:
            self.add(row)  # at least one
            rungs = [self.new_var() for _ in row[1:]]
            for t, rung in enumerate(rungs, 1):
                self.add([-row[t], rung])
                self.add([-row[t - 1], -rung])
                if t > 1:
                    self.add([-rung, rungs[t - 2]])
            if above is not None:
                self.add([-row[0]])
                for t, rung in enumerate(above, 1):
                    self.add([-row[t], -rung])
            above = rungs


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


def _sorted_filters(scan: SclSentence) -> list[FilterName]:
    return sorted(formula_filters(scan), key=FilterName.sort_key)


def _build_catalog(
    constants: list[Term],
    filters: list,
    fresh_count: int,
    order_needed: bool,
    table: TermTable,
    short: list[FilterCombination],
    deadline: Optional[float] = None,
) -> list[Term]:
    """Candidate terms for free domain slots in canonical mode.  Each filter
    combination that draws fewer witnesses than it has terms, up to
    `fresh_count`, is appended to `short`.  `table` (over `filters`)
    carries signatures and combinations from one size to the next.  Raises
    SearchBudgetExceeded once `deadline` has passed, checked before each
    filter combination, and SearchAborted past the cap on combinations;
    with no free slot there are no witnesses to draw, so no combination is
    visited."""
    taken = {table.key(c) for c in constants}
    catalog: list[Term] = []

    def push(term: Term) -> None:
        key = table.key(term)
        if key not in taken:
            taken.add(key)
            catalog.append(term)

    for i in range(fresh_count):
        push(iri(f"{ns.GEN_NS}elem:{i}"))
    if filters and fresh_count:
        pairs = incompatible_pairs(filters, [])
        try:  # every combination is counted against the cap before any witness is drawn
            combos = list(compatible_combinations(filters, pairs, excluded=frozenset(constants)))
        except CapExceeded as err:
            raise SearchAborted(f"filter catalog cap reached: {err}") from None
        for combo in combos:
            _check_deadline(deadline)
            count, witnesses = gamma_with_witnesses(combo, fresh_count, table)
            need = fresh_count if count.is_infinite else min(fresh_count, count.value)
            if len(witnesses) < need:
                short.append(combo)
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
        table: Optional[TermTable] = None,
    ):
        self.sentence = sentence
        self.k = k
        self.mode = mode
        self.deadline = deadline
        self.cnf = _Cnf()
        scan = scan if scan is not None else sentence
        self.relations = sorted(relation_names(scan), key=Term.sort_key)
        self.constants = sorted(node_constants(scan), key=Term.sort_key)
        self.filters = _sorted_filters(scan)
        seen_defs: dict[Term, ShapeDef] = {}
        for d in shape_definitions(scan):
            seen_defs.setdefault(d.name, d)
        self.defs = list(seen_defs.values())
        self.order_needed = any(isinstance(n, OrderCmp) for n in nodes(scan))

        self.decision_vars: list[int] = []
        self.preferred: dict[int, bool] = {}

        self.catalog: list[Term] = []
        self.short: list[FilterCombination] = []  # the combinations the catalog fell short of
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
            # signatures over the filters of `scan`, shared by the catalog and the filter atoms
            self.table = table if table is not None else TermTable(self.filters)
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
        """Constant number s names the term of slot s; every free slot picks
        one catalog term, and the free slots ascend in catalog order, read
        on one order ladder per free slot."""
        m = len(self.constants)
        if m > self.k:
            raise ValueError("domain too small for the constants")
        for s, c in enumerate(self.constants):
            for i in range(self.k):
                self.den[(c, i)] = self.cnf.true_lit if i == s else self.cnf.false_lit
        fresh = self.k - m
        self.catalog = _build_catalog(
            self.constants, self.filters, fresh, self.order_needed, self.table, self.short,
            self.deadline,
        )
        # not enough distinct candidate terms; extend with plain IRIs
        self.catalog += [iri(f"{ns.GEN_NS}extra:{i}") for i in range(fresh - len(self.catalog))]
        rows = []
        for s in range(m, self.k):
            row = [self._decide(t == 0) for t in range(len(self.catalog))]
            self.ch.update(((s, t), v) for t, v in enumerate(row))
            rows.append(row)
        # fixed slot order: catalog indices ascend across free slots
        self.cnf.ascending_choices(rows)

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
        k, sigma = self.k, self._sigma_cache
        for i in range(k):
            self.inb[i] = sigma[(i, i, False)] = self._decide(False)
            sigma[(i, i, True)] = self.cnf.false_lit
        for i in range(k):
            for j in range(i + 1, k):
                self.sb[(i, j)] = self._decide(False)
        for i in range(k):
            for j in range(k):
                if i != j:
                    lt = self.lt[(i, j)] = self._decide(False)
                    sigma[(i, j, False)] = sigma[(i, j, True)] = lt
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

    def _choices(self, s: int) -> list[tuple[int, Term]]:
        """Canonical mode: the (literal, term) pairs slot `s` may hold.  The
        constants fill the first slots, one each; a free slot may hold any
        catalog term."""
        if s < len(self.constants):
            return [(self.cnf.true_lit, self.constants[s])]
        return [(self.ch[(s, t)], term) for t, term in enumerate(self.catalog)]

    def _filter_lit(self, name, i: int) -> int:
        """Filter `name` at slot `i`: set up as a decision variable in
        uninterpreted mode, read off the slot's choices in canonical mode."""
        key = (name, i)
        if key not in self.filt:
            bit, signature = self.table.bit[name], self.table.signature
            self.filt[key] = self.cnf.aux_or(
                [lit for lit, term in self._choices(i) if signature(term) & bit]
            )
        return self.filt[key]

    def _sigma_lit(self, a: int, b: int, strict: bool) -> int:
        """y <= z (or <) between slots a and b: set up from the order
        variables in uninterpreted mode, read off the slots' choices in
        canonical mode."""
        key = (a, b, strict)
        if key not in self._sigma_cache:
            ok = (ComparisonVerdict.LT,) if strict else (ComparisonVerdict.LT, ComparisonVerdict.EQ)
            if a == b:
                holds = [lit for lit, term in self._choices(a) if compare_terms(term, term) in ok]
            else:
                # two slots never hold the same term, so a pair of one term is skipped
                holds = [
                    self.cnf.aux_and([lit_a, lit_b])
                    for lit_a, term_a in self._choices(a)
                    for lit_b, term_b in self._choices(b)
                    if term_a != term_b and compare_terms(term_a, term_b) in ok
                ]
            self._sigma_cache[key] = self.cnf.aux_or(holds)
        return self._sigma_cache[key]

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
        return fold(path, self._matrix, self._path_mat)

    def _matrix(self, path: PathExpr, done: dict) -> list[list[int]]:
        """The matrix of `path` from its subpaths' matrices in `done`."""
        if isinstance(path, Rel):
            return self._rel_matrix(path.name, path.inverted)
        if isinstance(path, Seq):
            return self._compose(done[path.left], done[path.right])
        if isinstance(path, Alt):
            return self._union(done[path.left], done[path.right])
        if isinstance(path, (Opt, Star)):
            inner = done[path.inner]
            mat = [
                [self.cnf.true_lit if i == j else inner[i][j] for j in range(self.k)]
                for i in range(self.k)
            ]
            steps = 1
            while isinstance(path, Star) and steps < self.k - 1:
                mat = self._compose(mat, mat)
                steps *= 2
            return mat
        raise TypeError(f"unknown path {path!r}")  # pragma: no cover

    # ---- formulas -----------------------------------------------------------

    def formula_lit(self, f: SclFormula, i: int) -> int:
        """The literal of `f` at slot `i`, grounded once per (formula, slot).

        Each pair is grounded by a `_formula_steps` generator that yields
        the (subformula, slot) pairs it needs and is sent their literals.
        The generators wait on an explicit stack, so the clauses come in
        depth-first order and depth costs no recursion."""
        memo = self._formula_lit
        key = (f, i)
        if key in memo:
            return memo[key]
        stack = [(key, self._formula_steps(f, i))]
        lit = None
        while stack:
            key, steps = stack[-1]
            try:
                need = steps.send(lit)
            except StopIteration as done:
                stack.pop()
                lit = memo[key] = done.value
                continue
            lit = memo.get(need)
            if lit is None:
                stack.append((need, self._formula_steps(*need)))
        return lit

    def _formula_steps(self, f: SclFormula, x: int):
        """Grounds `f` at slot `x`: yields each (subformula, slot) pair whose
        literal it needs, and returns the literal of `f`."""
        cnf = self.cnf
        if isinstance(f, Top):
            return cnf.true_lit
        if isinstance(f, EqConst):
            return self.den[(f.constant, x)]
        if isinstance(f, Filter):
            return self._filter_lit(f.name, x)
        if isinstance(f, HasShape):
            if (f.shape, x) not in self.hs:
                raise KeyError(f"undefined shape name {f.shape}")
            return self.hs[(f.shape, x)]
        if isinstance(f, Not):
            return -(yield f.body, x)
        if isinstance(f, And):
            left = yield f.left, x
            return cnf.aux_and([left, (yield f.right, x)])
        if isinstance(f, CountExists):
            mat = self.path_matrix(f.path)
            hits = []
            for j in range(self.k):
                hits.append(cnf.aux_and([mat[x][j], (yield f.body, j)]))
            return cnf.at_least(hits, f.threshold)
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
            # a slot the constant cannot name grounds no body
            per_slot = [
                cnf.aux_or([-self.den[(part.constant, i)], self.formula_lit(part.body, i)])
                for i in range(self.k)
                if self.den[(part.constant, i)] != cnf.false_lit
            ]
            return cnf.aux_and(per_slot)
        if isinstance(part, ForClass):
            typed = self._rel_matrix(iri(ns.RDF_TYPE), False)
            names = [self.den[(part.cls, j)] for j in range(self.k)]
            checks = [
                cnf.aux_or([-typed[i][j], -names[j], self.formula_lit(part.body, i)])
                for i in range(self.k)
                for j in range(self.k)
            ]
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
            return -cnf.at_least(hits, part.bound + 1)
        raise TypeError(f"unknown sentence {part!r}")

    def _assert_sentence(self) -> None:
        for part in conjuncts(self.sentence):
            _check_deadline(self.deadline)
            self.cnf.add([self.sentence_lit(part)])

    # ---- symmetry ----------------------------------------------------------------

    def _symmetry_leader(self) -> None:
        """Lexicographic leader constraints (Crawford, Ginsberg, Luks & Roy,
        KR 1996) for every transposition of two slots: the decision vector,
        each position compared under its own variable's preferred polarity
        as `_solve_once` compares models, is no greater than its image under
        the swap.  Adjacent swaps alone generate the same permutations but
        prune far less; with the three-clause chain below, the constraints
        of every transposition cost less than the search they save.

        `prefix` holds when every earlier compared position equals its
        image.  A compared position takes one chain variable and three
        clauses: prefix and bit give other_bit (no greater here), and prefix
        and equality here give the next chain variable, in the linear form
        of Aloul, Markov & Sakallah (IEEE TC 2006); the last compared
        position has no next one, so it takes the first clause alone.  A
        transposition is an involution, so a position whose partner came
        earlier in the order holds the partner's two values swapped: it is
        equal exactly when the partner's position was, and is skipped, as is
        a variable that is its own image.

        The least model keeps: its image under any slot permutation is a
        model too and no less, so it meets every constraint here, and the
        static-order solver still returns it first.  A chain variable is
        only ever forced true, so leaving it false when nothing forces it,
        as the solver does with an open variable that is no gate, meets
        every clause."""
        cnf = self.cnf
        position = {var: n for n, var in enumerate(self.decision_vars)}
        for e in range(self.k):
            for e2 in range(e + 1, self.k):

                def sw(i: int) -> int:
                    return e2 if i == e else e if i == e2 else i

                # each decision variable's partner under swapping slots e, e2
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
                compared = [v for v in self.decision_vars if position[image[v]] > position[v]]
                prefix = cnf.true_lit
                for n, var in enumerate(compared, 1):
                    other = image[var]
                    if self.preferred[var]:
                        bit, other_bit = -var, -other
                    else:
                        bit, other_bit = var, other
                    cnf.add([-prefix, -bit, other_bit])
                    if n == len(compared):
                        break  # no later position reads a chain variable
                    chain = cnf.new_var()
                    cnf.add([-prefix, -bit, chain])
                    cnf.add([-prefix, other_bit, chain])
                    prefix = chain

    # ---- decode ---------------------------------------------------------------------

    def decode(self, assignment: list[int]) -> FiniteStructure:
        def truth(lit: int) -> bool:
            # the unit clause on `true_lit` makes it true in every assignment
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

        edges = [
            Triple(terms[i], r, terms[j])
            for r in self.relations
            for i in range(self.k)
            for j in range(self.k)
            if truth(self.rel[(r, i, j)])
        ]
        return FiniteStructure(
            domain=tuple(terms),
            graph=TripleGraph(frozenset(edges)),
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
    `max_domain`, or None when there is none.  A canonical catalog that
    fell short of a filter combination may miss a model, so then
    SearchAborted names that combination's filters, positive and negative,
    instead.

    A non-empty `refuted` also requires some of its parts to fail.  `scan`
    (default: `sentence`) supplies the signature: relations, constants,
    filters and shape definitions.  In canonical mode every size reads one
    term table, dropped on return.  The decoded structure carries no
    shape assignment.  Raises SearchBudgetExceeded once `budget` seconds
    have passed, checked before grounding each size, once per filter
    combination of the catalog and per conjunct and refuted part while
    grounding it, before solving it and during propagation, and
    SearchAborted when a catalog passes the cap on filter combinations.
    """
    deadline = time.monotonic() + budget if budget else None
    scan = scan if scan is not None else sentence
    lower = max(1, len(node_constants(scan))) if mode == CANONICAL else 1
    table = TermTable(_sorted_filters(scan)) if mode == CANONICAL else None
    incomplete = None
    for k in range(lower, max_domain + 1):
        _check_deadline(deadline)
        grounder = _Grounder(sentence, k, mode, scan, deadline, table)
        if grounder.short and incomplete is None:
            short = grounder.short[0]
            filters = FilterCombination(
                positive_filters=short.positive_filters, negative_filters=short.negative_filters
            )
            incomplete = f"filter catalog incomplete at k={k}: too few witnesses of "
            incomplete += print_scl(filters.formula())
        if refuted:
            fails = []
            for part in refuted:
                _check_deadline(deadline)
                fails.append(-grounder.sentence_lit(part))
            grounder.cnf.add(fails)
        assignment = _solve_once(
            grounder.cnf.n_vars,
            grounder.cnf.one_sided(deadline),
            grounder.decision_vars,
            grounder.preferred,
            deadline,
            grounder.cnf.gates,
        )
        if assignment is not None:
            return grounder.decode(assignment)
    if incomplete is not None:
        raise SearchAborted(incomplete)
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
    exhausted, or Aborted with the reason the search stopped: the budget
    ran out, or the filter catalog reached its cap or fell short.  Raises
    IllFormedSentence when a shape definition is missing, duplicated or
    recursive.
    """
    defects = check_well_formed(sentence)
    if defects:
        raise IllFormedSentence(defects)
    try:
        structure = _least_model(sentence, max_domain, budget, mode)
    except SearchAborted as err:
        return SatVerdict("Aborted", reason=str(err))
    if structure is None:
        return SatVerdict("UnsatUpTo", bound=max_domain)
    ev = shape_evaluator(structure, extract_definitions(sentence))
    if not ev.sentence(sentence):
        raise ModelConfirmationError("decoded model failed re-evaluation at size %d" % ev.n)
    return SatVerdict("Sat", model=ev.assigned_structure())
