"""Tests of the cube-total check on rollups answered during the writes.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

FACTS = {1: (("a",), 10.0), 2: (("b",), 20.0)}
BATCHES = [
    [{"op": "update", "fact_id": 1, "measure": 15.0},
     {"op": "insert", "id": 9, "dims": ["a"], "measure": 4.0}],
    [{"op": "delete", "fact_id": 9}, {"op": "update", "fact_id": 2, "measure": 1.0}],
]


def rollup(epoch, rows):
    return json.dumps({"epoch": epoch, "rows": [{"name": n, "sum": s, "count": c}
                                                 for n, s, c in rows]})


class EpochTotals(unittest.TestCase):
    def test_totals_follow_the_batches(self):
        self.assertEqual(run.epoch_totals(FACTS, (30.0, 2.0), BATCHES),
                         [(30.0, 2.0), (39.0, 3.0), (16.0, 2.0)])

    def test_rollup_must_sum_to_its_epochs_total(self):
        totals = run.epoch_totals(FACTS, (30.0, 2.0), BATCHES)
        self.assertTrue(run.rollup_total_ok(rollup(1, [("a", 29.0, 2.0), ("b", 10.0, 1.0)]),
                                            totals))
        # The same rows claimed for another epoch, an epoch past the last
        # batch, and a malformed answer.
        self.assertFalse(run.rollup_total_ok(rollup(2, [("a", 29.0, 2.0), ("b", 10.0, 1.0)]),
                                             totals))
        self.assertFalse(run.rollup_total_ok(rollup(3, [("a", 16.0, 2.0)]), totals))
        self.assertFalse(run.rollup_total_ok('{"rows": []}', totals))


if __name__ == "__main__":
    unittest.main()
