"""Tests of the oracle and the allocation checker on the paper's Table 1.

    python3 -m unittest discover -s perfbench/tests

The expected allocation is worked out by hand. The precise cells are
c1 = (MA, Civic), c2 = (MA, Sierra), c3 = (NY, F150), c4 = (CA, Civic)
and c5 = (CA, Sierra). Seven imprecise facts cover one precise cell and
get weight 1 there. p9 (East, Truck) covers c2 and c3, whose EM-Count
quantities are equal (D2 = D3 = 2.5), so it splits 1/2 : 1/2. p11
(ALL, Civic) covers c1, c4 and p8 (CA, ALL) covers c4, c5. With x the
weight of p11 on c1 and y that of p8 on c4:

    D1 = 2 + x,  D4 = 4 + y - x,  D5 = 3 - y,
    x = D1 / (D1 + D4),  y = D4 / (D4 + D5).

By symmetry y = 1 - x, so x = (2 + x) / (7 - x), x^2 - 6x + 2 = 0 and
x = 3 - sqrt(7).
"""

import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import oracle  # noqa: E402

X = 3 - math.sqrt(7)

FACTS = [
    (1, "MA", "Civic", 100), (2, "MA", "Sierra", 150), (3, "NY", "F150", 100),
    (4, "CA", "Civic", 175), (5, "CA", "Sierra", 50), (6, "MA", "Sedan", 100),
    (7, "MA", "Truck", 120), (8, "CA", "ALL", 160), (9, "East", "Truck", 190),
    (10, "West", "Sedan", 200), (11, "ALL", "Civic", 80), (12, "ALL", "F150", 120),
    (13, "West", "Civic", 70), (14, "West", "Sierra", 90),
]

# (fact, location, automobile, weight)
EDB = [(f, loc, auto, 1.0) for f, loc, auto, _ in FACTS[:5]] + [
    (6, "MA", "Civic", 1.0), (7, "MA", "Sierra", 1.0),
    (8, "CA", "Civic", 1 - X), (8, "CA", "Sierra", X),
    (9, "MA", "Sierra", 0.5), (9, "NY", "F150", 0.5),
    (10, "CA", "Civic", 1.0),
    (11, "MA", "Civic", X), (11, "CA", "Civic", 1 - X),
    (12, "NY", "F150", 1.0), (13, "CA", "Civic", 1.0), (14, "CA", "Sierra", 1.0),
]


def write_table1(d):
    with open(os.path.join(d, "dim0_Location.csv"), "w") as fh:
        fh.write("State,Region\nMA,East\nNY,East\nTX,West\nCA,West\n")
    with open(os.path.join(d, "dim1_Automobile.csv"), "w") as fh:
        fh.write("Model,Category\nCivic,Sedan\nCamry,Sedan\nF150,Truck\nSierra,Truck\n")
    with open(os.path.join(d, "facts.csv"), "w") as fh:
        fh.write("id,Location,Automobile,Sales\n")
        for f, loc, auto, m in FACTS:
            fh.write(f"{f},{loc},{auto},{m}\n")


def entries(rows):
    measure = {f: float(m) for f, _, _, m in FACTS}
    return [(f, (loc, auto), w, measure.get(f, 1.0)) for f, loc, auto, w in rows]


class Table1(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        write_table1(cls.tmp.name)
        cls.ds = oracle.Dataset(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check(self, rows, epsilon=1e-3):
        return oracle.check_allocation(self.ds, entries(rows), epsilon, epsilon)

    def reject(self, rows, why):
        with self.assertRaises(oracle.AllocationError) as err:
            self.check(rows)
        self.assertIn(why, str(err.exception))

    def test_hand_allocation_passes(self):
        verdict = self.check(EDB)
        self.assertEqual(verdict["allocated_imprecise"], 9)
        self.assertLess(verdict["fixpoint_max"], 1e-12)

    def test_dump_round_trip(self):
        path = os.path.join(self.tmp.name, "edb.csv")
        with open(path, "w") as fh:
            fh.write("fact_id,Location,Automobile,weight,measure\n")
            for f, (loc, auto), w, m in entries(EDB):
                fh.write(f"{f},{loc},{auto},{w!r},{m!r}\n")
        self.assertEqual(oracle.read_dump(path, 2), entries(EDB))

    def test_oracle_sums_by_hand(self):
        o = oracle.Oracle(self.ds, entries(EDB))
        east = 1120 - 80 * math.sqrt(7)
        self.assertAlmostEqual(o.answer([(0, "East")])[0], east, places=9)
        self.assertAlmostEqual(o.answer([(0, "West")])[0], 1705 - east, places=9)
        self.assertAlmostEqual(o.total[0], 1705, places=9)
        self.assertAlmostEqual(o.total[1], 14, places=12)
        # p8 and p11 are the only facts split across (CA, Civic).
        self.assertAlmostEqual(o.answer([(0, "CA"), (1, "Civic")])[1], 4 + (1 - X) - X, places=12)
        rows = o.rollup(0, 1)
        self.assertEqual(list(rows), ["East", "West"])
        self.assertAlmostEqual(rows["East"][0], east, places=9)

    def test_rejects_weights_that_do_not_sum_to_one(self):
        rows = [r if r[0] != 8 or r[1:3] != ("CA", "Sierra") else (8, "CA", "Sierra", X - 0.1)
                for r in EDB]
        self.reject(rows, "sum to")

    def test_rejects_a_cell_outside_the_region(self):
        rows = [r if r[0] != 6 else (6, "CA", "Civic", 1.0) for r in EDB]
        self.reject(rows, "outside its region")

    def test_rejects_a_cell_without_precise_facts(self):
        rows = [r if r[0] != 10 else (10, "CA", "Camry", 1.0) for r in EDB]
        self.reject(rows, "holds no precise fact")

    def test_rejects_a_moved_precise_fact(self):
        rows = [r if r[0] != 1 else (1, "MA", "Civic", 0.5) for r in EDB]
        rows.append((1, "CA", "Civic", 0.5))
        self.reject(rows, "outside its region")
        rows = [r if r[0] != 5 else (5, "CA", "Civic", 1.0) for r in EDB]
        self.reject(rows, "outside its region")

    def test_rejects_a_missing_allocatable_fact(self):
        self.reject([r for r in EDB if r[0] != 12], "has 0 entries")

    def test_rejects_a_missing_completion(self):
        rows = [r for r in EDB if r[:3] != (9, "NY", "F150")]
        rows = [r if r[:3] != (9, "MA", "Sierra") else (9, "MA", "Sierra", 1.0) for r in rows]
        self.reject(rows, "has 1 entries")

    def test_rejects_weights_off_the_fixpoint(self):
        rows = [r if r[0] != 11 else (11, r[1], r[2], 0.5) for r in EDB]
        self.reject(rows, "not an EM fixpoint")

    def test_fixpoint_gates_are_separate(self):
        rows = entries([r if r[0] != 11 else (11, r[1], r[2], 0.5) for r in EDB])
        verdict = oracle.check_allocation(self.ds, rows, 1.0)
        self.assertGreater(verdict["fixpoint_max"], 0.1)
        with self.assertRaises(oracle.AllocationError):
            oracle.check_allocation(self.ds, rows, 1.0, verdict["fixpoint_mean"] / 2)

    def test_rejects_an_unknown_fact(self):
        self.reject(EDB + [(99, "MA", "Civic", 1.0)], "not in the fact table")


if __name__ == "__main__":
    unittest.main()
