import numpy as np

from polyshot.rng import derive_seed, derive_seed_grid, derive_seeds


def test_a_seed_row_is_derive_seed_per_part_bit_for_bit():
    rng = np.random.default_rng(26)
    edges = [0, 1, -1, -(2**63), 2**63 - 1, 2**64 - 1, 2**64, 2**70 + 3, -(2**70)]
    for depth in range(4):
        for _ in range(20):
            prefix = [int(v) for v in rng.integers(0, 2**64, depth, dtype=np.uint64)]
            parts = edges + [int(v) for v in rng.integers(-(2**63), 2**63, 20)] + list(range(15))
            row = derive_seeds(*prefix, parts)
            assert row == [derive_seed(*prefix, p) for p in parts]
            assert all(type(seed) is int for seed in row)
    assert derive_seeds(7, []) == []


def test_a_seed_row_keys_each_point_of_a_trial():
    # the recovery run's per-point seeds, one row per trial
    for master in (0, 20250808, 2**64 - 1):
        for trial in range(3):
            row = derive_seeds(master, 6, trial, range(15))
            assert row == [derive_seed(master, 6, trial, p) for p in range(15)]
            assert len(set(row)) == 15


def test_a_seed_grid_is_the_rows_of_derive_seeds_bit_for_bit():
    rng = np.random.default_rng(27)
    edges = [0, 1, -1, -(2**63), 2**63 - 1, 2**64 - 1, 2**64, 2**70 + 3, -(2**70)]
    for depth in range(3):
        prefix = [int(v) for v in rng.integers(0, 2**64, depth, dtype=np.uint64)]
        rows = edges + list(range(10))
        parts = edges[::-1] + [int(v) for v in rng.integers(-(2**63), 2**63, 6)] + list(range(15))
        grid = derive_seed_grid(*prefix, rows, parts)
        assert grid.dtype == np.uint64 and grid.shape == (len(rows), len(parts))
        assert grid.tolist() == [derive_seeds(*prefix, row, parts) for row in rows]
    assert derive_seed_grid(7, [], range(3)).shape == (0, 3)
    assert derive_seed_grid(7, range(2), []).shape == (2, 0)
