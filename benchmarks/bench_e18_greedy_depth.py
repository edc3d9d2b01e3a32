"""E18: greedy along a random order — dependency depth on hypergraphs.

Regenerates the depth-vs-n table for d in {2, 3, 5} and m/n in {1, 2, 4};
depth growing by a constant per doubling of n is logarithmic growth.
"""


def test_e18_greedy_depth(run_bench):
    res = run_bench("E18")
    assert res.extras["max_slope"] < 2.0
