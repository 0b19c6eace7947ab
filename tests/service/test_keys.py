"""Property tests for the canonical content keys.

The key is the service's correctness linchpin: it must be invariant
under representation noise (dict key order, tuple vs. list, process
restarts, serialize/deserialize round trips) and must separate any two
semantically different requests.
"""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import PlatformSpec, SweepCell
from repro.apps import all_app_names
from repro.core.assignment import Objective
from repro.errors import ValidationError
from repro.service import canonical_json, case_key, cell_key, content_key
from repro.service.keys import case_payload, cell_payload, fuzz_verdict_key
from repro.synth import AppRefSpec, case_to_json, case_from_json, generate_case
from repro.units import kib

# -- payload-level properties ------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


def _shuffled(value, rng):
    """Same data, different dict insertion order everywhere."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _shuffled(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [_shuffled(item, rng) for item in value]
    return value


class TestCanonicalForm:
    @given(payload=_payloads, seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_key_invariant_under_dict_reordering(self, payload, seed):
        shuffled = _shuffled(payload, random.Random(seed))
        assert content_key(shuffled) == content_key(payload)

    @given(payload=_payloads)
    @settings(max_examples=100, deadline=None)
    def test_key_invariant_under_json_round_trip(self, payload):
        rereed = json.loads(json.dumps(payload))
        assert content_key(rereed) == content_key(payload)

    @given(payload=_payloads)
    @settings(max_examples=100, deadline=None)
    def test_canonical_json_is_itself_canonical(self, payload):
        text = canonical_json(payload)
        assert canonical_json(json.loads(text)) == text

    def test_tuples_and_lists_agree(self):
        assert content_key({"a": (1, 2, 3)}) == content_key({"a": [1, 2, 3]})

    def test_non_plain_data_rejected(self):
        with pytest.raises(ValidationError):
            content_key({"a": object()})
        with pytest.raises(ValidationError):
            content_key({1: "non-string key"})
        with pytest.raises(ValidationError):
            content_key({"a": float("nan")})


# -- request-level properties ------------------------------------------

_cells = st.builds(
    SweepCell,
    app=st.sampled_from(all_app_names()),
    platform=st.builds(
        PlatformSpec,
        kind=st.sampled_from(("embedded_3layer", "embedded_2layer")),
        l1_bytes=st.sampled_from((kib(1), kib(2), kib(8))),
        l2_bytes=st.sampled_from((kib(16), kib(64))),
        label=st.sampled_from(("", "anything")),
    ),
    objective=st.sampled_from(tuple(Objective)),
    sort_factor=st.sampled_from(("time_per_size", "time", "size")),
)


class TestCellKeys:
    @given(cell=_cells)
    @settings(max_examples=100, deadline=None)
    def test_label_never_affects_the_key(self, cell):
        relabelled = replace(
            cell, platform=replace(cell.platform, label="renamed")
        )
        assert cell_key(relabelled) == cell_key(cell)

    @given(cell=_cells)
    @settings(max_examples=100, deadline=None)
    def test_ignored_l2_never_affects_a_2layer_key(self, cell):
        if cell.platform.kind != "embedded_2layer":
            return
        resized = replace(
            cell, platform=replace(cell.platform, l2_bytes=kib(999))
        )
        assert cell_key(resized) == cell_key(cell)

    @given(left=_cells, right=_cells)
    @settings(max_examples=200, deadline=None)
    def test_distinct_payloads_get_distinct_keys(self, left, right):
        same_key = cell_key(left) == cell_key(right)
        same_content = cell_payload(left) == cell_payload(right)
        assert same_key == same_content

    def test_key_is_stable_across_processes(self):
        # A pinned digest: breaking this means every existing cache
        # directory silently goes cold — bump KEY_FORMAT_VERSION
        # intentionally instead.
        cell = SweepCell(
            app="voice_coder",
            platform=PlatformSpec(),
            objective=Objective.EDP,
        )
        assert cell_key(cell) == (
            "6d4cfe2a61176c81c7adb06eb61faccb01258ebbb60c14439cb256c4c138b7e4"
        )


class TestCaseKeys:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_key_survives_spec_serialization(self, seed):
        case = generate_case(seed)
        rebuilt = case_from_json(case_to_json(case))
        assert case_key(rebuilt) == case_key(case)

    @given(left=st.integers(0, 10_000), right=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_distinct_specs_distinct_keys(self, left, right):
        key_left = case_key(generate_case(left))
        key_right = case_key(generate_case(right))
        same_content = case_payload(generate_case(left)) == case_payload(
            generate_case(right)
        )
        assert (key_left == key_right) == same_content

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_harness_config_separates_verdicts(self, seed):
        case = generate_case(seed)
        loose = fuzz_verdict_key(case, {"sim_tolerance": 0.5})
        tight = fuzz_verdict_key(case, {"sim_tolerance": 0.1})
        assert loose != tight

    def test_registry_ref_cases_key_like_cells(self):
        # An AppRefSpec case and a registry app share the app identity
        # payload, so bundled apps are first-class cacheable cases.
        case = generate_case(3)
        ref_case = replace(case, program=AppRefSpec(name="qsdpcm"))
        rebuilt = case_from_json(case_to_json(ref_case))
        assert rebuilt.program == AppRefSpec(name="qsdpcm")
        assert case_key(rebuilt) == case_key(ref_case)
        assert case_key(rebuilt) != case_key(case)


class TestAssignerKeys:
    def test_assigner_config_keys_apart(self):
        from repro.search import AssignerSpec

        cell = SweepCell(
            app="voice_coder", platform=PlatformSpec(), objective=Objective.EDP
        )
        portfolio = replace(
            cell, assigner=AssignerSpec("portfolio", budget=2000, seed=0)
        )
        rebudgeted = replace(
            cell, assigner=AssignerSpec("portfolio", budget=4000, seed=0)
        )
        reseeded = replace(
            cell, assigner=AssignerSpec("portfolio", budget=2000, seed=1)
        )
        keys = {
            cell_key(cell),
            cell_key(portfolio),
            cell_key(rebudgeted),
            cell_key(reseeded),
        }
        assert len(keys) == 4

    def test_greedy_key_ignores_budget_and_seed(self):
        from repro.search import AssignerSpec

        cell = SweepCell(
            app="voice_coder", platform=PlatformSpec(), objective=Objective.EDP
        )
        tweaked = replace(
            cell, assigner=AssignerSpec("greedy", budget=999, seed=42)
        )
        assert cell_key(tweaked) == cell_key(cell)
