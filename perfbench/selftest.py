"""Self-tests of the benchmark's checker, inputs and tracing.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


class CheckerTest(unittest.TestCase):
    # a 5-cycle with a pendant vertex: Delta = 3, so colors must lie in 1..2
    N = 6
    EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]

    def test_accepts_a_proper_coloring(self):
        # an odd cycle needs 3 colors, so widen Delta with two more leaves
        edges = self.EDGES + [(0, 6), (0, 7)]
        colors = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 2, 6: 2, 7: 2}
        self.assertEqual(check.coloring_errors(8, edges, colors), [])

    def test_rejects_a_monochromatic_edge(self):
        colors = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2}
        errors = check.coloring_errors(self.N, self.EDGES, colors)
        self.assertTrue(any("monochromatic" in e for e in errors), errors)

    def test_rejects_an_over_wide_palette(self):
        colors = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 2}   # proper, but 3 > Delta-1
        errors = check.coloring_errors(self.N, self.EDGES, colors)
        self.assertTrue(any("outside 1..2" in e for e in errors), errors)

    def test_rejects_an_uncolored_vertex(self):
        colors = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3}
        self.assertTrue(check.coloring_errors(self.N, self.EDGES, colors))


class InputTest(unittest.TestCase):
    def test_each_workload_is_the_same_from_one_seed(self):
        for name, build in workloads.BUILDERS.items():
            with self.subTest(workload=name):
                first, second = build(3), build(3)
                self.assertEqual([i.g6 for i in first], [i.g6 for i in second])
                self.assertNotEqual([i.g6 for i in first], [i.g6 for i in build(4)])

    def test_graph6_matches_pentagem_writer(self):
        from pentagem.graph import build_graph
        from pentagem.graphio import write_graph6

        cases = [(1, []), (2, [(0, 1)]), (7, [(0, 6), (2, 5), (3, 4)]),
                 workloads.caterpillar(10)]
        for n, edges in cases:
            with self.subTest(n=n):
                self.assertEqual(workloads.graph6(n, edges),
                                 write_graph6(build_graph(n, edges)))

    def test_workload_sizes(self):
        sizes = {name: len(build(0)) for name, build in workloads.BUILDERS.items()}
        self.assertEqual(sizes, {"sweep9": 506, "core9": 244, "delta": 233, "scale": 7})


class TracingTest(unittest.TestCase):
    def colorings(self, inputs):
        return [run.operate(inp, time.perf_counter)[0].colors for inp in inputs]

    def test_traced_colorings_equal_untraced(self):
        import pentagem.solver
        solve = pentagem.solver.solve
        for name, build in workloads.BUILDERS.items():
            with self.subTest(workload=name):
                inputs = build(0)
                plain = self.colorings(inputs)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    self.assertIsNot(pentagem.solver.solve, solve)
                    traced = self.colorings(inputs)
                    calls, _, _ = tracer.take_pass(keep=False)
                finally:
                    tracer.remove()
                self.assertIs(pentagem.solver.solve, solve)
                self.assertEqual(plain, traced)
                self.assertEqual(calls[tracing.FUNCTIONS.index("solver.solve")], len(inputs))


if __name__ == "__main__":
    unittest.main()
