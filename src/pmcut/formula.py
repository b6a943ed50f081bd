"""Monotone NAE-3SAT instances: parsing, solving, cutvertex splitting.

A clause is a triple of distinct 1-based variable indices and is satisfied by
an assignment when its variables are not all on the same side.  Parsed files
must be E4 (every variable in exactly four clauses, so m = 4n/3); values
produced by the cutvertex splitter may have lower occurrence counts and are
validated only for clause shape.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, connected_components

Assignment = tuple  # of 0/1 per variable, index i-1 for variable i

MAX_BRUTEFORCE_VARS = 24


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class NaeFormula:
    """n variables (1-based) and an ordered list of 3-clauses."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for c in self.clauses:
            if len(set(c)) != 3:
                raise FormulaError(f"clause {c} has repeated literals")
            if not all(1 <= x <= self.n for x in c):
                raise FormulaError(f"clause {c} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def occurrence_counts(self) -> Counter:
        counts: Counter = Counter()
        for c in self.clauses:
            counts.update(c)
        return counts

    def validate_e4(self) -> None:
        if self.n % 3:
            raise FormulaError(f"n={self.n} is not a multiple of 3")
        if self.m * 3 != self.n * 4:
            raise FormulaError(f"m={self.m} but 4n/3={4 * self.n // 3}")
        counts = self.occurrence_counts()
        for i in range(1, self.n + 1):
            if counts[i] != 4:
                raise FormulaError(f"variable {i} occurs {counts[i]} times, not 4")

    def occurrences(self, i: int) -> tuple[int, ...]:
        """Ascending 1-based indices of the clauses containing variable i."""
        return tuple(j + 1 for j, c in enumerate(self.clauses) if i in c)


def parse_formula(text: str) -> NaeFormula:
    """Parse the formula file format and validate the E4 invariants."""
    clauses = []
    header: Optional[tuple[int, int]] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "nae3sat-e4":
                raise FormulaError(f"line {lineno}: expected 'nae3sat-e4 <n> <m>'")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise FormulaError(f"line {lineno}: bad header numbers") from None
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormulaError(f"line {lineno}: expected three variable indices")
        try:
            c = tuple(int(x) for x in parts)
        except ValueError:
            raise FormulaError(f"line {lineno}: bad variable index") from None
        if len(set(c)) != 3:
            raise FormulaError(f"line {lineno}: clause literals must be distinct")
        if not all(1 <= x <= header[0] for x in c):
            raise FormulaError(f"line {lineno}: clause {c} out of range for n={header[0]}")
        clauses.append(c)
    if header is None:
        raise FormulaError("empty formula file")
    n, m = header
    if len(clauses) != m:
        raise FormulaError(f"header promises {m} clauses, found {len(clauses)}")
    f = NaeFormula(n, tuple(clauses))
    f.validate_e4()
    return f


def serialize_formula(f: NaeFormula) -> str:
    lines = [f"nae3sat-e4 {f.n} {f.m}"]
    lines += [" ".join(map(str, c)) for c in f.clauses]
    return "\n".join(lines) + "\n"


def nae_satisfies(f: NaeFormula, a: Assignment) -> bool:
    """True iff every clause sees both sides of the assignment, whose
    entries must be 0 or 1."""
    if len(a) != f.n:
        raise FormulaError(f"assignment length {len(a)} != n={f.n}")
    for i, x in enumerate(a, 1):
        if x not in (0, 1):
            raise FormulaError(f"assignment entry {i} is {x!r}, not 0 or 1")
    for x, y, z in f.clauses:
        if a[x - 1] == a[y - 1] == a[z - 1]:
            return False
    return True


def solve_nae_bruteforce(f: NaeFormula) -> Optional[Assignment]:
    """First satisfying assignment with variable 1 pinned to side A, else None.

    Flipping every variable of a satisfying assignment yields another one, so
    pinning variable 1 halves the search without losing completeness.
    """
    if f.n > MAX_BRUTEFORCE_VARS:
        raise FormulaError(f"brute force guard: n={f.n} > {MAX_BRUTEFORCE_VARS}")
    masks = [(1 << (x - 1)) | (1 << (y - 1)) | (1 << (z - 1)) for x, y, z in f.clauses]
    for bits in range(0, 1 << f.n, 2):  # even => bit 0 clear => variable 1 on side A
        ok = True
        for mk in masks:
            hit = bits & mk
            if hit == 0 or hit == mk:
                ok = False
                break
        if ok:
            return tuple((bits >> i) & 1 for i in range(f.n))
    return None


def solve_nae(f: NaeFormula) -> Optional[Assignment]:
    """solve_nae_bruteforce's answer, by DPLL, for a formula of any size.

    Variable 1 is pinned to side A, and the search branches on the highest
    unassigned variable, side A first.  Its one propagation rule: once two
    variables of a clause are on one side, the third goes to the other.  A
    branch puts every variable above it on a fixed side, and propagation
    drops only assignments that break a clause, so the first assignment
    found is the least with variable n as the most significant bit, the one
    brute force finds first.
    """
    if f.n == 0:
        return ()
    clauses_of: list[list[tuple[int, int]]] = [[] for _ in range(f.n + 1)]
    for x, y, z in f.clauses:
        clauses_of[x].append((y, z))
        clauses_of[y].append((x, z))
        clauses_of[z].append((x, y))
    side = [-1] * (f.n + 1)
    trail: list[int] = []

    def assign(x: int, s: int) -> bool:
        queue = [(x, s)]
        while queue:
            x, s = queue.pop()
            if side[x] != -1:
                if side[x] != s:
                    return False
                continue
            side[x] = s
            trail.append(x)
            for y, z in clauses_of[x]:
                if side[y] == s:
                    queue.append((z, 1 - s))
                elif side[z] == s:
                    queue.append((y, 1 - s))
        return True

    stack: list[tuple[int, int]] = []  # (variable, trail mark) whose side B is open
    ok = assign(1, 0)
    while True:
        if ok:
            x = next((v for v in range(f.n, 1, -1) if side[v] == -1), 0)
            if not x:
                return tuple(side[1:])
            stack.append((x, len(trail)))
            ok = assign(x, 0)
            continue
        if not stack:
            return None
        x, mark = stack.pop()
        for v in trail[mark:]:
            side[v] = -1
        del trail[mark:]
        ok = assign(x, 1)


def incidence_graph(f: NaeFormula) -> Graph:
    """Bipartite incidence graph: variable nodes 0..n-1, clause nodes n..n+m-1."""
    edges = []
    for j, c in enumerate(f.clauses):
        for x in c:
            edges.append((x - 1, f.n + j))
    return Graph(f.n + f.m, edges)


def variable_cutvertices(f: NaeFormula) -> tuple[int, ...]:
    """Ascending variable indices whose incidence node is a cutvertex: removing
    it leaves more components than the incidence graph has."""
    g = incidence_graph(f)
    whole = len(connected_components(g))
    return tuple(i for i in range(1, f.n + 1) if len(connected_components(g, i - 1)) > whole)


def _renumber(clauses: list[tuple[int, int, int]]) -> NaeFormula:
    used = sorted({x for c in clauses for x in c})
    remap = {x: k + 1 for k, x in enumerate(used)}
    return NaeFormula(len(used), tuple(tuple(remap[x] for x in c) for c in clauses))


def split_variable_cutvertices(f: NaeFormula) -> list[NaeFormula]:
    """Split at variable cutvertices of the incidence graph until none remain.

    A disconnected incidence graph is first split into its components, each
    treated independently.  Each cutvertex split duplicates one variable: one
    part is the lexicographically smallest component of inc(f) minus the
    cutvertex, plus the cutvertex; the other part is the rest.  The
    conjunction of the parts' satisfiability equals f's.  Parts are
    renumbered 1..n' and need not stay E4.
    """
    if f.m == 0:
        return [f]
    g0 = incidence_graph(f)
    comps = connected_components(g0)
    if len(comps) > 1:
        out: list[NaeFormula] = []
        for comp in comps:
            nodes = set(comp)
            part = [c for j, c in enumerate(f.clauses) if f.n + j in nodes]
            if part:
                out.extend(split_variable_cutvertices(_renumber(part)))
        return out
    cuts = variable_cutvertices(f)
    if not cuts:
        return [f]
    x_nodes = set(connected_components(g0, cuts[0] - 1)[0])
    part1 = [c for j, c in enumerate(f.clauses) if f.n + j in x_nodes]
    part2 = [c for j, c in enumerate(f.clauses) if f.n + j not in x_nodes]
    return (split_variable_cutvertices(_renumber(part1))
            + split_variable_cutvertices(_renumber(part2)))


def random_e4_formula(n: int, rng: random.Random) -> NaeFormula:
    """Random E4 instance on n variables (n a multiple of 3).

    Retries until the incidence graph is connected and has no variable
    cutvertices, which is what the reduction pipeline expects.
    """
    if n % 3 or n <= 0:
        raise FormulaError("n must be a positive multiple of 3")
    while True:
        slots = [i for i in range(1, n + 1) for _ in range(4)]
        rng.shuffle(slots)
        triples = iter(slots)
        try:
            f = NaeFormula(n, tuple(zip(triples, triples, triples)))
        except FormulaError:  # a clause repeats a variable
            continue
        g = incidence_graph(f)
        if g.is_connected() and not variable_cutvertices(f):
            return f


def canonical_n3_formula() -> NaeFormula:
    """The unique E4 instance on three variables: four copies of (1,2,3)."""
    return NaeFormula(3, ((1, 2, 3),) * 4)


def ag23_formula() -> NaeFormula:
    """The affine plane of order 3 as an E4 instance: 9 points, 12 lines.

    Any 5 points of AG(2,3) contain a line, and one side of any bipartition of
    9 points has at least 5, so some clause is monochromatic: unsatisfiable.
    This is the smallest unsatisfiable E4 instance over n in {3, 6, 9}.
    """
    def var(r: int, c: int) -> int:
        return 3 * r + c + 1

    clauses = []
    for b in range(3):
        clauses.append(tuple(sorted(var(b, c) for c in range(3))))  # rows
        clauses.append(tuple(sorted(var(r, b) for r in range(3))))  # columns
    for s in (1, 2):
        for b in range(3):
            clauses.append(tuple(sorted(var(r, (s * r + b) % 3) for r in range(3))))
    return NaeFormula(9, tuple(clauses))
