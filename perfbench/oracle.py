"""Reference answers and allocation checks, computed apart from the program.

Everything here reads the files the program writes (the dataset CSVs of
`iolap gen` and the EDB dump of `iolap allocate --edb-out`) with Python's
own csv module and recomputes from first principles:

* `Oracle` answers every read class by a plain weighted sum over the dump
  (sum = measure x weight, count = weight).
* `check_allocation` tests the EM-Count properties of an allocation.

Nothing is imported from the program, so a fault in its allocation or
query paths cannot hide itself here.
"""

import csv
import glob
import math
import os
from collections import defaultdict

ALL = "ALL"


class Dataset:
    """Dimensions and facts as written by `iolap gen` (or by hand).

    Each `dim<d>_<NAME>.csv` has the level names bottom-up as its header
    and one row per leaf giving the leaf's ancestor at every level below
    ALL. `facts.csv` has `id`, one node name per dimension, and the
    measure.
    """

    def __init__(self, directory):
        self.dir = directory
        files = sorted(glob.glob(os.path.join(directory, "dim*_*.csv")),
                       key=lambda p: int(os.path.basename(p)[3:].split("_", 1)[0]))
        if not files:
            raise ValueError(f"no dimension files in {directory}")
        self.dim_names = []
        self.level_names = []  # per dim, bottom-up, excluding ALL
        self.leaves = []  # per dim, leaf names in file order
        self.anc = []  # per dim: leaf name -> tuple of ancestors, level 0 = leaf
        self.node_level = []  # per dim: node name -> level index (ALL = len(levels))
        for path in files:
            name = os.path.basename(path)[:-4].split("_", 1)[1]
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            levels = rows[0]
            anc, node_level, leaves = {}, {ALL: len(levels)}, []
            for row in rows[1:]:
                anc[row[0]] = tuple(row)
                leaves.append(row[0])
                for lvl, node in enumerate(row):
                    node_level[node] = lvl
            self.dim_names.append(name)
            self.level_names.append(levels)
            self.leaves.append(leaves)
            self.anc.append(anc)
            self.node_level.append(node_level)
        self.k = len(self.dim_names)
        self.facts = read_facts(os.path.join(directory, "facts.csv"), self.k)

    def dim_index(self, name):
        return self.dim_names.index(name)

    def level_index(self, d, level_name):
        return self.level_names[d].index(level_name)

    def nodes_at(self, d, level):
        """Node names at a level, in leaf order, without repeats."""
        return list(dict.fromkeys(self.anc[d][leaf][level] for leaf in self.leaves[d]))

    def is_precise(self, dims):
        return all(self.node_level[d][n] == 0 for d, n in enumerate(dims))

    def covers(self, dims, cell):
        """Is the leaf cell inside the region of a fact with these nodes?"""
        for d, node in enumerate(dims):
            lvl = self.node_level[d][node]
            if lvl < len(self.level_names[d]) and self.anc[d][cell[d]][lvl] != node:
                return False
        return True


def read_facts(path, k):
    """facts.csv -> {id: (dims tuple, measure)} in file order."""
    facts = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            facts[int(row[0])] = (tuple(row[1:1 + k]), float(row[1 + k]))
    return facts


def write_facts(path, header, facts):
    """Write {id: (dims, measure)} in the layout `iolap gen` uses."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for fid in sorted(facts):
            dims, measure = facts[fid]
            w.writerow([fid, *dims, repr(measure)])


def read_dump(path, k):
    """An `--edb-out` dump -> list of (fact_id, cell tuple, weight, measure)."""
    out = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            out.append((int(row[0]), tuple(row[1:1 + k]), float(row[1 + k]), float(row[2 + k])))
    return out


class Oracle:
    """Expected answers by a plain weighted sum over an EDB dump.

    A request is a tuple of (dim, node) restrictions; unlisted
    dimensions are ALL. Requests with the same (dim, level) shape are
    answered together by one grouping pass over the entries.
    """

    def __init__(self, ds, entries):
        self.ds = ds
        self.entries = entries
        self.total = [0.0, 0.0]
        for _, _, w, m in entries:
            self.total[0] += m * w
            self.total[1] += w
        self._groups = {}

    def _grouped(self, shape):
        if shape not in self._groups:
            ds = self.ds
            acc = defaultdict(lambda: [0.0, 0.0])
            for _, cell, w, m in self.entries:
                key = tuple(ds.anc[d][cell[d]][lvl] for d, lvl in shape)
                a = acc[key]
                a[0] += m * w
                a[1] += w
            self._groups[shape] = acc
        return self._groups[shape]

    def answer(self, restrictions):
        """(sum, count) over the region given by [(dim, node), ...]."""
        if not restrictions:
            return tuple(self.total)
        shape = tuple((d, self.ds.node_level[d][n]) for d, n in restrictions)
        key = tuple(n for _, n in restrictions)
        return tuple(self._grouped(shape).get(key, (0.0, 0.0)))

    def rollup(self, d, level):
        """{node: (sum, count)} for every node of `d` at `level`."""
        groups = self._grouped(((d, level),))
        return {n: tuple(groups.get((n,), (0.0, 0.0))) for n in self.ds.nodes_at(d, level)}


class AllocationError(Exception):
    pass


def precise_cells(ds):
    """{cell: number of precise facts} over the fact table."""
    cells = defaultdict(int)
    for dims, _ in ds.facts.values():
        if ds.is_precise(dims):
            cells[dims] += 1
    return cells


class CellIndex:
    """Per-dimension node -> set of precise-cell ids, to count the precise
    cells inside any region by set intersection."""

    def __init__(self, ds, cells):
        self.ds = ds
        self.cells = list(cells)
        self.by_node = [defaultdict(set) for _ in range(ds.k)]
        for i, cell in enumerate(self.cells):
            for d in range(ds.k):
                for node in ds.anc[d][cell[d]]:
                    self.by_node[d][node].add(i)

    def inside(self, dims):
        sets = [self.by_node[d].get(n, set()) for d, n in enumerate(dims) if n != ALL]
        if not sets:
            return set(range(len(self.cells)))
        sets.sort(key=len)
        return sets[0].intersection(*sets[1:])


def check_allocation(ds, entries, max_step, mean_step=None):
    """Check the EM-Count properties of an allocation; raise AllocationError.

    1. The weights of each allocated fact sum to 1.
    2. Each entry lies in its fact's region, on a precise cell.
    3. A precise fact has one entry, weight 1, on its own cell.
    4. The allocated facts are exactly those whose region holds a precise
       cell, and each has one entry per precise cell of its region.
    5. Fixpoint: with D(c) = #precise facts at c + the imprecise weight on
       c, one more EM step w'(r,c) = D(c) / sum of D over r's cells moves
       the weights by at most `max_step` anywhere and by at most
       `mean_step` (default `max_step`) on average, both relative. The
       fixpoint holds within the policy's epsilon when both are epsilon.

    Returns a dict of counts and of the fixpoint figures for the report.
    """
    if mean_step is None:
        mean_step = max_step
    cells = precise_cells(ds)
    by_fact = defaultdict(list)
    for fid, cell, w, m in entries:
        by_fact[fid].append((cell, w, m))
    delta = defaultdict(float)
    for fid, rows in by_fact.items():
        if fid not in ds.facts:
            raise AllocationError(f"fact {fid} is not in the fact table")
        dims, measure = ds.facts[fid]
        total = 0.0
        seen = set()
        for cell, w, m in rows:
            if cell in seen:
                raise AllocationError(f"fact {fid} has two entries on cell {cell}")
            seen.add(cell)
            if not (w > 0.0 and math.isfinite(w)):
                raise AllocationError(f"fact {fid} has weight {w} on {cell}")
            if m != measure:
                raise AllocationError(f"fact {fid} entry carries measure {m}, fact has {measure}")
            if not ds.covers(dims, cell):
                raise AllocationError(f"fact {fid}: cell {cell} is outside its region")
            if cell not in cells:
                raise AllocationError(f"fact {fid}: cell {cell} holds no precise fact")
            total += w
            delta[cell] += w
        if abs(total - 1.0) > 1e-9:
            raise AllocationError(f"weights of fact {fid} sum to {total!r}")
        if ds.is_precise(dims) and (len(rows) != 1 or rows[0][0] != dims or rows[0][1] != 1.0):
            raise AllocationError(f"precise fact {fid} does not keep weight 1 on its own cell")

    index = CellIndex(ds, cells)
    imprecise = allocated = 0
    for fid, (dims, _) in ds.facts.items():
        if ds.is_precise(dims):
            if fid not in by_fact:
                raise AllocationError(f"precise fact {fid} is missing from the EDB")
            continue
        imprecise += 1
        want = len(index.inside(dims))
        got = len(by_fact.get(fid, ()))
        if got != want:
            raise AllocationError(
                f"imprecise fact {fid} has {got} entries; its region holds {want} precise cells")
        allocated += want > 0

    worst = total_step = 0.0
    steps = 0
    for fid, rows in by_fact.items():
        if len(rows) < 2:
            continue
        gamma = sum(delta[c] for c, _, _ in rows)
        for cell, w, _ in rows:
            step = abs(delta[cell] / gamma - w) / w
            worst = max(worst, step)
            total_step += step
            steps += 1
    mean = total_step / steps if steps else 0.0
    if worst > max_step or mean > mean_step:
        raise AllocationError(
            f"not an EM fixpoint: one more step moves a weight by up to {worst:.3g} and by "
            f"{mean:.3g} on average (relative); allowed {max_step:.3g} and {mean_step:.3g}")
    return {"entries": len(entries), "facts": len(by_fact), "imprecise": imprecise,
            "allocated_imprecise": allocated, "fixpoint_max": worst, "fixpoint_mean": mean}


def component_sizes(ds, entries):
    """{cell: size of its connected component} in the allocation graph:
    cells joined through the facts allocated to more than one of them,
    the size counting cells and imprecise facts (the paper's tuples)."""
    parent = {}

    def root(c):
        while parent.setdefault(c, c) != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    cells_of = defaultdict(list)
    for fid, cell, _, _ in entries:
        cells_of[fid].append(cell)
        root(cell)
    for cells in cells_of.values():
        for c in cells[1:]:
            a, b = root(cells[0]), root(c)
            if a != b:
                parent[a] = b
    size = defaultdict(int)
    for c in list(parent):
        size[root(c)] += 1
    for fid, cells in cells_of.items():
        if not ds.is_precise(ds.facts[fid][0]):
            size[root(cells[0])] += 1
    return {c: size[root(c)] for c in parent}
