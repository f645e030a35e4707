from collections import Counter

import pytest

from exhaustive import catalog_counts, dimension, orbits, run

# orbits of GL(n_0, q) on quadruples of subspaces at n_0 = 0, 1, 2, and
# the descriptors at (5, 5) with every lambda of GF(q) but 0 and 1
ORBITS = {2: [1, 16, 150], 3: [1, 16, 151], 5: [1, 16, 153]}
DESCRIPTORS = {2: 120, 3: 125, 5: 135}


@pytest.mark.parametrize("q", ORBITS)
def test_every_small_module_reads_alike_three_ways(q):
    # every module with injective letters up to isomorphism at n_0 <= 2,
    # and every 4th one at n_0 = 2 with a zero column on one letter:
    # formula equals oracle on every descriptor, decompose explains it,
    # and dim End(M) from the oracle equals the closed form of its summands
    counts, descs, failures, incomplete = run(q, 2)
    assert (counts, descs) == (ORBITS[q], DESCRIPTORS[q])
    assert failures == [] and incomplete == []


@pytest.mark.parametrize("q", ORBITS)
def test_the_catalog_product_counts_every_orbit(q):
    # Krull-Schmidt: the isoclasses at each dimension vector are the
    # multisets of catalog modules that add up to it, so the catalog holds
    # no extra, duplicate or missing module there, and orbits() found them all
    found = Counter()
    for d in range(3):
        spaces, reps = orbits(d, q)
        found.update(dimension(d, spaces, quad) for quad in reps)
    assert catalog_counts(q, 2) == found
