"""Unit tests for fleet population, topology, pipeline, and stats."""

import hashlib
from dataclasses import astuple

import pytest

from repro.cpu import SDCType
from repro.cpu.catalog import ARCHITECTURES, _core_multipliers
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetSpec,
    OnsetMixture,
    PipelineConfig,
    TestPipeline,
    build_topology,
    generate_fleet,
    iter_fleet_chunks,
    stats,
)
from repro.fleet.population import (
    DEFAULT_CHUNK_SIZE,
    _batched_core_multipliers,
)
from repro.rng import substream
from repro.units import permyriad


@pytest.fixture(scope="module")
def small_fleet():
    # 200k CPUs keeps unit tests fast while leaving ~70 faulty CPUs.
    return generate_fleet(FleetSpec(total_processors=200_000, seed=5))


class TestPopulation:
    def test_total_count(self, small_fleet):
        assert small_fleet.total == 200_000

    def test_faulty_incidence_order_of_magnitude(self, small_fleet):
        rate = permyriad(len(small_fleet.faulty) / small_fleet.total)
        # Table 2's rates average ~3.6‱; incidence inflated by escapes.
        assert 1.0 < rate < 10.0

    def test_deterministic(self):
        a = generate_fleet(FleetSpec(total_processors=50_000, seed=9))
        b = generate_fleet(FleetSpec(total_processors=50_000, seed=9))
        assert [p.processor_id for p in a.faulty] == [
            p.processor_id for p in b.faulty
        ]

    def test_every_faulty_has_one_defect(self, small_fleet):
        for processor in small_fleet.faulty:
            assert len(processor.defects) == 1

    def test_type_mix(self, small_fleet):
        consistency = sum(
            1
            for p in small_fleet.faulty
            if p.defects[0].sdc_type is SDCType.CONSISTENCY
        )
        fraction = consistency / len(small_fleet.faulty)
        # §4.1's 8/27 split, loosely.
        assert 0.1 < fraction < 0.5

    def test_onset_mixture_weights_validated(self):
        with pytest.raises(ConfigurationError):
            OnsetMixture(at_birth_weight=0.9, burn_in_weight=0.9, late_weight=0.9)

    def test_onset_sampling_ranges(self):
        mixture = OnsetMixture()
        rng = substream(1, "onset")
        onsets = [mixture.sample(rng) for _ in range(500)]
        assert any(o == 0.0 for o in onsets)
        assert any(0.0 < o <= 45.0 for o in onsets)
        assert any(o > 50.0 for o in onsets)

    def test_escapes_marked(self, small_fleet):
        escaped = [
            p
            for p in small_fleet.faulty
            if p.defects[0].escapes_toolchain
        ]
        assert 0 < len(escaped) < len(small_fleet.faulty) / 4


def _generation_digest(population):
    """SHA-256 over every field of every faulty CPU, patterns resolved."""
    hasher = hashlib.sha256()
    for processor in population.faulty:
        (defect,) = processor.defects
        bitflip = defect.bitflip
        patterns = None if bitflip is None else (
            [(dt.value, list(entries)) for dt, entries in bitflip.patterns.items()],
            bitflip.pattern_probability,
        )
        row = (
            processor.processor_id, processor.arch.name,
            [f.value for f in defect.features], defect.scope.value,
            defect.core_ids, defect.instructions,
            [dt.value for dt in defect.datatypes], astuple(defect.trigger),
            list(defect.core_multipliers.items()), defect.escapes_toolchain,
            defect.onset_days, patterns,
        )
        hasher.update(repr(row).encode())
    return hasher.hexdigest()


class TestMaterialization:
    """Batched chunk materialization stays bit-identical to the oracles."""

    #: Recorded from the per-row materializer (per-CPU multiplier
    #: generators, eagerly built patterns) that the batched path replaced.
    PINNED_DIGEST = (
        "dd5ae614a77ea9e6fb6304d1e360075c518b77eeaeac7b08135b79bb72e0b88c"
    )

    def test_generation_digest_is_pinned(self):
        population = generate_fleet(
            FleetSpec(total_processors=100_000, failure_rate_scale=20, seed=3)
        )
        assert len(population.faulty) == 672
        assert _generation_digest(population) == self.PINNED_DIGEST

    def test_batched_multipliers_match_oracle_for_every_arch(self):
        # Interleave architectures so lanes with different core counts
        # stop drawing at different steps within one batch.
        names, cores = [], []
        for index in range(3):
            for arch_name, arch in ARCHITECTURES.items():
                names.append(f"{arch_name}-F{index:04d}")
                cores.append(arch.physical_cores)
        assert sorted(set(cores)) == [8, 10, 12, 16, 20, 24, 28, 32]
        batched = _batched_core_multipliers(names, cores)
        for name, n, multipliers in zip(names, cores, batched):
            assert list(multipliers.items()) == list(
                _core_multipliers(n, name).items()
            )

    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK_SIZE])
    def test_chunk_multipliers_match_oracle(self, chunk_size):
        spec = FleetSpec(total_processors=40_000, failure_rate_scale=40, seed=2)
        all_core_archs = set()
        spans_boundary = False
        for chunk in iter_fleet_chunks(spec, chunk_size=chunk_size):
            spans_boundary |= len(set(chunk.arch_code.tolist())) > 1
            for processor in chunk.materialize():
                (defect,) = processor.defects
                if len(defect.core_ids) == 1:
                    assert defect.core_multipliers == {defect.core_ids[0]: 1.0}
                    continue
                all_core_archs.add(processor.arch.name)
                oracle = _core_multipliers(
                    processor.arch.physical_cores, processor.processor_id
                )
                # Dict order matters: the vectorized engine's fast path
                # compares tuple(multipliers) against core_ids.
                assert list(defect.core_multipliers.items()) == list(oracle.items())
                assert tuple(defect.core_multipliers) == defect.core_ids
        # M4's low Table-2 rate leaves it no all-core CPU in this fleet;
        # the batch test above covers its 10 cores.
        assert all_core_archs == set(ARCHITECTURES) - {"M4"}
        assert spans_boundary == (chunk_size > 1)

    def test_generation_leaves_patterns_unbuilt(self):
        population = generate_fleet(FleetSpec(total_processors=50_000, seed=9))
        bitflips = [
            p.defects[0].bitflip
            for p in population.faulty
            if p.defects[0].bitflip is not None
        ]
        assert bitflips
        assert all("patterns" not in vars(b) for b in bitflips)


class TestTopology:
    def test_datacenter_counts(self, small_fleet):
        topology = build_topology(small_fleet)
        assert len(topology.datacenters) == 28
        countries = {dc.country for dc in topology.datacenters}
        assert len(countries) == 14

    def test_all_faulty_placed(self, small_fleet):
        topology = build_topology(small_fleet)
        assert len(topology.machines()) == len(small_fleet.faulty)

    def test_group_schedule_spans_months(self, small_fleet):
        topology = build_topology(small_fleet)
        offsets = {
            topology.regular_test_offset_days(m) for m in topology.machines()
        }
        assert max(offsets) >= 14.0
        # Whole-fleet coverage takes months (§2.4).
        assert topology.n_groups * topology.group_stagger_days >= 60.0


class TestPipelineCampaign:
    @pytest.fixture(scope="class")
    def result(self, small_fleet, library):
        return TestPipeline(small_fleet, library).run()

    def test_most_faulty_detected(self, small_fleet, result):
        detectable = len(small_fleet.detectable_faulty())
        assert len(result.detections) >= 0.8 * detectable

    def test_escapes_never_detected(self, small_fleet, result):
        escaped_ids = {
            p.processor_id
            for p in small_fleet.faulty
            if p.defects[0].escapes_toolchain
        }
        detected_ids = {d.processor_id for d in result.detections}
        assert not (escaped_ids & detected_ids)

    def test_stage_names_valid(self, result):
        names = {d.stage_name for d in result.detections}
        assert names <= {"factory", "datacenter", "reinstall", "regular"}

    def test_pre_production_dominates(self, result):
        # Observation 2: pre-production catches ~90% of faulty CPUs.
        config = PipelineConfig()
        fraction = stats.pre_production_fraction(
            result, config.pre_production_stage_names()
        )
        assert fraction > 0.7

    def test_detections_cite_testcases(self, result):
        for detection in result.detections:
            assert detection.failing_testcase_ids

    def test_timing_rates_sum(self, result):
        rates = stats.timing_failure_rates(result)
        total = rates.pop("total")
        assert sum(rates.values()) == pytest.approx(total)

    def test_arch_rates_cover_all(self, result):
        rates = stats.arch_failure_rates(result)
        assert set(rates) == {f"M{i}" for i in range(1, 10)}

    def test_feature_and_datatype_proportions(self, small_fleet, result):
        features = stats.feature_proportions(result, small_fleet)
        assert all(0.0 <= v <= 1.0 for v in features.values())
        datatypes = stats.datatype_proportions(result, small_fleet)
        assert datatypes
        assert all(0.0 <= v <= 1.0 for v in datatypes.values())

    def test_ineffective_testcases(self, result):
        # Observation 11: the vast majority of testcases never fire.
        ineffective = stats.ineffective_testcase_count(result, 633)
        assert ineffective > 400

    def test_single_core_fraction(self, small_fleet, result):
        fraction = stats.single_core_fraction(result, small_fleet)
        assert 0.3 < fraction < 0.7
