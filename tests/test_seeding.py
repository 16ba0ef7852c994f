"""The simulator's per-trial generators against np.random.default_rng.

zczpilot._seeding re-derives numpy's SeedSequence hash for arrays of
seeds, so these tests take numpy itself as the oracle, seed for seed.
They need numpy alone.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from zczpilot import _seeding
from zczpilot._seeding import generators, pcg64_words
from zczpilot.analysis import empirical_mse
from zczpilot.covariance import build_scenario
from zczpilot.estimation import simulate_training

ROOT = Path(__file__).parents[1]
EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def assert_default_rng_streams(seeds, draws=9):
    """Each seed's words are SeedSequence's and its generator draws what
    default_rng(seed) draws."""
    seeds = list(seeds)
    words = pcg64_words(seeds)
    assert words.shape == (len(seeds), 4) and words.flags.c_contiguous
    gens = list(generators(seeds))
    assert len(gens) == len(seeds)
    for seed, row, gen in zip(seeds, words, gens):
        npt.assert_array_equal(
            row, np.random.SeedSequence(seed).generate_state(4, np.uint64)
        )
        npt.assert_array_equal(
            gen.standard_normal(draws), np.random.default_rng(seed).standard_normal(draws)
        )


class TestSeedingOracle:
    def test_edge_seeds(self):
        assert_default_rng_streams(EDGE_SEEDS)

    def test_random_sample(self):
        rng = np.random.default_rng(2026)
        sample = rng.integers(0, 2**64, 150, dtype=np.uint64).tolist()
        sample += rng.integers(0, 2**32, 50).tolist()
        assert_default_rng_streams(sample)

    def test_range_across_2_32(self):
        assert_default_rng_streams(range(2**32 - 40, 2**32 + 40))

    def test_numpy_integer_seeds(self):
        assert_default_rng_streams(np.arange(5, 12))

    def test_chunks_keep_the_order(self):
        seeds = range(7, 7 + _seeding._CHUNK + 3)
        gens = list(generators(seeds))
        assert len(gens) == len(seeds)
        for j in (0, _seeding._CHUNK - 1, _seeding._CHUNK, len(seeds) - 1):
            npt.assert_array_equal(
                gens[j].standard_normal(3),
                np.random.default_rng(seeds[j]).standard_normal(3),
            )

    @pytest.mark.parametrize(
        "seeds",
        [[-1], [2**64], [5, 2**70], range(2**64 - 2, 2**64 + 1)],
        ids=["negative", "2**64", "2**70", "range-across-2**64"],
    )
    def test_seeds_outside_the_range_raise(self, seeds):
        with pytest.raises(ValueError, match=r"outside 0 <= seed < 2\*\*64"):
            list(generators(seeds))

    def test_simulator_rejects_seeds_outside_the_range(self):
        s = build_scenario(1, 1, 2)
        p = np.ones((2, 1))
        with pytest.raises(ValueError, match=r"seed -1 is outside"):
            simulate_training(p, s, -1)
        with pytest.raises(ValueError, match=r"seed 18446744073709551616 is outside"):
            simulate_training(p, s, 2**64)
        with pytest.raises(ValueError, match=r"seed 18446744073709551616 is outside"):
            empirical_mse(p, s, 4, seed=2**64 - 3)
        with pytest.raises(TypeError):
            simulate_training(p, s, 1.5)


def test_setup_does_not_import_numpy_random():
    # Building the scenarios needs no generator; numpy.random loads on the
    # first draw (and costs about 13 ms of a set-up).
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy\n"
        "bare = 'numpy.random' in sys.modules\n"
        "import zczpilot\n"
        "from zczpilot.config import load_config\n"
        "from zczpilot.covariance import reciprocal_scenario\n"
        "reciprocal_scenario(load_config(sys.argv[2]).downlink())\n"
        "print(bare, 'numpy.random' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(ROOT / "configs" / "mimo4x4_b8.ini")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    bare, loaded = out.stdout.split()
    if bare == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert loaded == "False"
