"""The hash-exclusion allowlist behaves as documented, not just as linted.

The detlint ``config-hash-drift`` rule pins the *static* agreement
between ``HASH_EXCLUDED_FIELDS`` and ``config_hash``; these tests pin
the *dynamic* claim each rationale makes — excluded fields really do
not move the hash, and every other field really does.
"""

import dataclasses

import pytest

from repro.orchestration.runspec import HASH_EXCLUDED_FIELDS, RunSpec, config_hash
from repro.scenarios import get_scenario
from repro.simulation.config import SimulationConfig


def small_config() -> SimulationConfig:
    return SimulationConfig().scaled(0.002)


class TestAllowlist:
    def test_excluded_fields_are_real_config_fields(self):
        names = {f.name for f in dataclasses.fields(SimulationConfig)}
        assert set(HASH_EXCLUDED_FIELDS) <= names

    def test_every_exclusion_has_a_written_rationale(self):
        for name, rationale in HASH_EXCLUDED_FIELDS.items():
            assert rationale.strip(), f"{name} has no rationale"

    def test_the_documented_exclusion_is_engine(self):
        assert set(HASH_EXCLUDED_FIELDS) == {"engine"}


class TestHashBehavior:
    def test_excluded_fields_do_not_move_the_hash(self):
        base = small_config()
        assert config_hash(base) == config_hash(base.replace(engine="array"))

    def test_hashed_fields_move_the_hash(self):
        base = small_config()
        assert config_hash(base) != config_hash(
            base.replace(master_seed=base.master_seed + 1)
        )
        assert config_hash(base) != config_hash(base.replace(protocol="ndac"))

    def test_hash_is_stable_across_equal_configs(self):
        assert config_hash(small_config()) == config_hash(small_config())


#: spec hashes of builtin scenarios at scale 0.004 (default seed), captured
#: while configs still carried the hash-excluded ``kernel`` field; retiring
#: that field must not move any cache key
PINNED_SPEC_HASHES = {
    "quickstart": "435e02126887d4c9ac0a17f0947a7a61e4989501353ad6d64cdd4a3ba9d45c0b",
    "metropolis_100k": "3a78d9399af2c2191c4aeae38053843556dd9fcca0be4cdb4ad35ce5c07eab01",
    "unstable_suppliers_100k": (
        "19ce586621a4f5cc6e5dbf640abf1957bfb7e47f4db98093ce178c6951c8c0b6"
    ),
}


@pytest.mark.parametrize("scenario_name", sorted(PINNED_SPEC_HASHES))
def test_spec_hashes_survive_the_retired_kernel_field(scenario_name):
    config = get_scenario(scenario_name).build_config(scale=0.004)
    spec = RunSpec(config=config, scenario=scenario_name)
    assert spec.spec_hash == PINNED_SPEC_HASHES[scenario_name]
