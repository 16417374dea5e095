"""Fixture tests for the whole-program rule families.

Each family gets multi-module fixture programs (via ``lint_sources``)
with positive cases asserting the exact ``(path, line, rule)`` and
negative cases asserting silence — a rule that over-fires breaks these
just as loudly as one that misses.
"""

from repro.analysis import lint_sources

#: Minimal stand-ins for the real modules the taint configs point at.
PIPELINE = (
    "class PipelineSimulator:\n"
    "    def elapsed(self) -> float:\n"
    "        return 0.0\n"
    "    def process_chunk(self, pages, count):\n"
    "        return 0.0\n"
)
CHUNK_CACHE = (
    "def chunk_read_time_s(disk, cache, page_offset, page_count):\n"
    "    return 0.001\n"
)


def rules_at(diags, rule):
    return [(d.path, d.line) for d in diags if d.rule == rule]


class TestSim101TimeUnitMix:
    def test_cross_module_mix_is_caught(self):
        diags = lint_sources(
            {
                "simio/pipeline.py": PIPELINE,
                "host.py": (
                    "import time\n"
                    "def host_elapsed() -> float:\n"
                    "    return time.monotonic()\n"
                ),
                "core/mix.py": (
                    "from repro.host import host_elapsed\n"
                    "from repro.simio.pipeline import PipelineSimulator\n"
                    "def bad(sim: 'PipelineSimulator') -> float:\n"
                    "    return sim.elapsed() + host_elapsed()\n"
                ),
            }
        )
        assert rules_at(diags, "SIM101") == [("core/mix.py", 4)]

    def test_mix_through_local_variables(self):
        diags = lint_sources(
            {
                "simio/chunk_cache.py": CHUNK_CACHE,
                "core/mix.py": (
                    "import time\n"
                    "from repro.simio.chunk_cache import chunk_read_time_s\n"
                    "def bad(disk, cache) -> float:\n"
                    "    sim_t = chunk_read_time_s(disk, cache, 0, 1)\n"
                    "    host_t = time.perf_counter()\n"
                    "    return sim_t - host_t\n"
                ),
            }
        )
        assert rules_at(diags, "SIM101") == [("core/mix.py", 6)]

    def test_comparison_across_units_is_caught(self):
        diags = lint_sources(
            {
                "simio/pipeline.py": PIPELINE,
                "core/cmp.py": (
                    "import time\n"
                    "from repro.simio.pipeline import PipelineSimulator\n"
                    "def bad(sim: 'PipelineSimulator') -> bool:\n"
                    "    return sim.elapsed() > time.monotonic()\n"
                ),
            }
        )
        assert rules_at(diags, "SIM101") == [("core/cmp.py", 4)]

    def test_same_unit_arithmetic_is_clean(self):
        diags = lint_sources(
            {
                "simio/pipeline.py": PIPELINE,
                "core/ok.py": (
                    "from repro.simio.pipeline import PipelineSimulator\n"
                    "def fine(sim: 'PipelineSimulator') -> float:\n"
                    "    return sim.elapsed() + sim.elapsed()\n"
                ),
            }
        )
        assert not rules_at(diags, "SIM101")

    def test_unitless_arithmetic_is_clean(self):
        diags = lint_sources(
            {
                "core/ok.py": (
                    "def fine(a: float, b: float) -> float:\n"
                    "    return a + b\n"
                ),
            }
        )
        assert not rules_at(diags, "SIM101")

    def test_suppression_comment_silences(self):
        diags = lint_sources(
            {
                "simio/pipeline.py": PIPELINE,
                "core/mix.py": (
                    "import time\n"
                    "from repro.simio.pipeline import PipelineSimulator\n"
                    "def vetted(sim: 'PipelineSimulator') -> float:\n"
                    "    return sim.elapsed() + time.monotonic()  "
                    "# repro-lint: disable=SIM101\n"
                ),
            }
        )
        assert not rules_at(diags, "SIM101")


class TestSim102WallClockSink:
    def test_sim_value_into_time_sleep(self):
        diags = lint_sources(
            {
                "simio/chunk_cache.py": CHUNK_CACHE,
                "shell.py": (
                    "import time\n"
                    "from repro.simio.chunk_cache import chunk_read_time_s\n"
                    "def nap(disk, cache) -> None:\n"
                    "    t = chunk_read_time_s(disk, cache, 0, 1)\n"
                    "    time.sleep(t)\n"
                ),
            }
        )
        assert rules_at(diags, "SIM102") == [("shell.py", 5)]

    def test_host_value_into_time_sleep_is_clean(self):
        diags = lint_sources(
            {
                "shell.py": (
                    "import time\n"
                    "def nap() -> None:\n"
                    "    t0 = time.monotonic()\n"
                    "    time.sleep(time.monotonic() - t0)\n"
                ),
            }
        )
        assert not rules_at(diags, "SIM102")


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


class TestExa001ExactnessContracts:
    def test_direct_crossing_is_caught(self):
        diags = lint_sources(
            {
                "core/x.py": (
                    "# repro: approximate\n"
                    "def estimate() -> float:\n"
                    "    return 0.5\n"
                    "\n"
                    "# repro: exact\n"
                    "def exact_path() -> float:\n"
                    "    return estimate()\n"
                ),
            }
        )
        assert rules_at(diags, "EXA001") == [("core/x.py", 7)]

    def test_crossing_through_unmarked_helper_is_caught(self):
        diags = lint_sources(
            {
                "core/x.py": (
                    "# repro: approximate\n"
                    "def estimate() -> float:\n"
                    "    return 0.5\n"
                    "\n"
                    "def helper() -> float:\n"
                    "    return estimate()\n"
                    "\n"
                    "# repro: exact\n"
                    "def exact_path() -> float:\n"
                    "    return helper()\n"
                ),
            }
        )
        flagged = rules_at(diags, "EXA001")
        assert flagged == [("core/x.py", 10)]
        message = [d for d in diags if d.rule == "EXA001"][0].message
        assert "estimate" in message and "helper" in message

    def test_waiver_silences_and_cuts_propagation(self):
        diags = lint_sources(
            {
                "core/x.py": (
                    "# repro: approximate\n"
                    "def estimate() -> float:\n"
                    "    return 0.5\n"
                    "\n"
                    "def helper() -> float:\n"
                    "    return estimate()  # repro: allow-approximate\n"
                    "\n"
                    "# repro: exact\n"
                    "def exact_path() -> float:\n"
                    "    return helper()\n"
                ),
            }
        )
        assert not rules_at(diags, "EXA001")

    def test_exact_calling_exact_is_clean(self):
        diags = lint_sources(
            {
                "core/x.py": (
                    "# repro: exact\n"
                    "def kernel() -> float:\n"
                    "    return 0.0\n"
                    "\n"
                    "# repro: exact\n"
                    "def caller() -> float:\n"
                    "    return kernel()\n"
                ),
            }
        )
        assert not rules_at(diags, "EXA001")


class TestExa002ContractTags:
    def test_unknown_tag_is_caught(self):
        diags = lint_sources(
            {
                "core/x.py": (
                    "# repro: exactish\n"
                    "def f() -> int:\n"
                    "    return 1\n"
                    "\n"
                    "# repro: owns(acc)\n"  # retired with the thread pool
                    "def g() -> int:\n"
                    "    return 2\n"
                ),
            }
        )
        assert rules_at(diags, "EXA002") == [("core/x.py", 1), ("core/x.py", 5)]

    def test_double_marking_is_caught(self):
        diags = lint_sources(
            {
                "core/x.py": (
                    "# repro: exact  # repro: approximate\n"
                    "def f() -> int:\n"
                    "    return 1\n"
                ),
            }
        )
        assert ("core/x.py", 1) in rules_at(diags, "EXA002")

    def test_known_tags_are_clean(self):
        diags = lint_sources(
            {
                "core/x.py": (
                    "# repro: exact\n"
                    "def f() -> int:\n"
                    "    return 1\n"
                    "\n"
                    "# repro: approximate\n"
                    "def g() -> int:\n"
                    "    return 2\n"
                    "\n"
                    "def h() -> int:\n"
                    "    return g()  # repro: allow-approximate\n"
                ),
            }
        )
        assert not rules_at(diags, "EXA002")

