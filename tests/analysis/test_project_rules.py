"""Multi-case fixture tests for the seed rules RNG101 and RNG102.

Positive cases assert the exact ``(path, line, rule)``, negative cases
assert silence — a rule that over-fires breaks these just as loudly as
one that misses.
"""

from repro.analysis import lint_sources


def rules_at(diags, rule):
    return [(d.path, d.line) for d in diags if d.rule == rule]


class TestRng101SeedProvenance:
    def test_unseeded_seedsequence_is_caught(self):
        diags = lint_sources(
            {
                "core/mk.py": (
                    "import numpy as np\n"
                    "def make():\n"
                    "    ss = np.random.SeedSequence()\n"
                    "    return np.random.default_rng(ss)\n"
                ),
            }
        )
        assert ("core/mk.py", 3) in rules_at(diags, "RNG101")

    def test_wall_clock_seed_is_caught(self):
        diags = lint_sources(
            {
                "core/mk.py": (
                    "import numpy as np\n"
                    "import time\n"
                    "def make():\n"
                    "    return np.random.default_rng(int(time.time()))\n"
                ),
            }
        )
        assert rules_at(diags, "RNG101") == [("core/mk.py", 4)]

    def test_root_derived_seed_is_clean(self):
        diags = lint_sources(
            {
                "core/mk.py": (
                    "import numpy as np\n"
                    "def make(seed: int):\n"
                    "    root = np.random.SeedSequence(seed)\n"
                    "    children = root.spawn(2)\n"
                    "    return [np.random.default_rng(c) for c in children]\n"
                ),
            }
        )
        assert not rules_at(diags, "RNG101")


class TestRng102SeedFanout:
    def test_same_seed_two_generators(self):
        diags = lint_sources(
            {
                "core/fan.py": (
                    "import numpy as np\n"
                    "def run(seed: int) -> None:\n"
                    "    rng1 = np.random.default_rng(seed)\n"
                    "    rng2 = np.random.default_rng(seed)\n"
                ),
            }
        )
        flagged = rules_at(diags, "RNG102")
        assert flagged == [("core/fan.py", 4)]

    def test_spawned_children_are_clean(self):
        diags = lint_sources(
            {
                "core/fan.py": (
                    "import numpy as np\n"
                    "def run(seed: int) -> None:\n"
                    "    a, b = np.random.SeedSequence(seed).spawn(2)\n"
                    "    rng1 = np.random.default_rng(a)\n"
                    "    rng2 = np.random.default_rng(b)\n"
                ),
            }
        )
        assert not rules_at(diags, "RNG102")

    def test_derived_entropy_tuples_are_clean(self):
        # The FaultPlan idiom: keyed entropy tuples are *derived* seeds,
        # not a raw fan-out of the same scalar.
        diags = lint_sources(
            {
                "faults/p.py": (
                    "import numpy as np\n"
                    "def uniforms(seed: int, a: int, b: int):\n"
                    "    ss = np.random.SeedSequence(entropy=(seed, a, b))\n"
                    "    return ss.generate_state(4)\n"
                ),
            }
        )
        assert not rules_at(diags, "RNG102")
