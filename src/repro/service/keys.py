"""Canonical content keys for exploration requests.

The exploration service memoizes results by *what was asked for*, not
by who asked or when: a request is reduced to a canonical
JSON-serializable payload, hashed with SHA-256, and the digest is the
cache key.  Two requests that describe the same (program, platform,
search-config) triple — regardless of dict insertion order, tuple vs.
list spelling, or which process built them — produce the same key; any
semantic difference produces a different one.

Three request shapes are covered:

* :func:`cell_key` — a sweep grid cell (registry app name + platform
  recipe + objective + TE sort factor).  Display-only fields
  (``PlatformSpec.label``) and fields the platform builder ignores
  (``l2_bytes`` of a 2-layer platform) are excluded, so cosmetically
  different recipes for the same hardware hit the same cache line.
* :func:`case_key` — a full :class:`~repro.synth.spec.CaseSpec`
  (inline synthetic program or registry reference via
  :class:`~repro.synth.spec.AppRefSpec`).
* :func:`fuzz_verdict_key` — a case *plus* the differential-harness
  configuration, for memoizing clean fuzz verdicts.

Registry applications are identified through
:func:`repro.apps.app_cache_payload` (name + suite version for bundled
kernels, bare seed for generated ones), so bumping
``APP_SUITE_VERSION`` invalidates every cached result of the bundled
suite at once.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict

from repro.analysis.sweep import PlatformSpec, SweepCell
from repro.apps import app_cache_payload
from repro.errors import ValidationError
from repro.memory.presets import PLATFORM_MODEL_VERSION
from repro.search.config import AssignerSpec
from repro.synth.spec import AppRefSpec, CaseSpec

KEY_FORMAT_VERSION = 4
"""Bumped when the key payload layout or the results it names change
(invalidates all caches).

Version 2 folds the assigner recipe (:class:`AssignerSpec`) into the
``search`` section: a portfolio sweep and a greedy sweep describe
different computations and must never share a memoized result.
Version 3 keys the state without search-effort counters, so no key
names two different byte strings for one cell.  Version 4 names
results whose costs are exact sums rounded once, not left-to-right
float folds; about half the energies move in the last bit, and with
them a few step-1 choices.
"""

_CONTENT_KEY_RE = re.compile(r"^[0-9a-f]{64}$")

_SCALARS = (str, int, float, bool, type(None))


def is_content_key(value) -> bool:
    """True when *value* looks like a key this module produced.

    Every key is a lowercase SHA-256 hex digest; ``repro cache verify``
    uses this to flag records written by something other than the
    service (hand edits, foreign tools) as suspect.
    """
    return isinstance(value, str) and _CONTENT_KEY_RE.match(value) is not None


def canonical_payload(value):
    """Normalise nested data to a canonical plain form.

    Dicts are re-keyed in sorted order (string keys only), tuples
    become lists, scalars pass through.  Anything else — objects,
    sets, NaN/Inf floats — is rejected: a key must never depend on
    process-specific state.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValidationError("cache key payloads must not contain NaN/Inf")
        return value
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise ValidationError(
                    f"cache key payload dict keys must be strings, got {key!r}"
                )
        return {key: canonical_payload(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [canonical_payload(item) for item in value]
    raise ValidationError(
        f"cache key payloads must be plain JSON data, got {type(value).__name__}"
    )


def canonical_json(payload) -> str:
    """The canonical serialized form a key is hashed over."""
    return json.dumps(
        canonical_payload(payload),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def content_key(payload) -> str:
    """SHA-256 hex digest of the canonical form of *payload*."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# request payload builders
# ----------------------------------------------------------------------


def platform_payload(spec: PlatformSpec) -> dict:
    """Canonical identity of a platform recipe.

    ``label`` is display-only and ``l2_bytes`` is ignored by the
    2-layer preset, so neither participates in the key.  The analytic
    latency/energy models behind the recipe are versioned by
    ``PLATFORM_MODEL_VERSION`` so model changes cold-start the cache.
    """
    payload = {
        "kind": spec.kind,
        "l1_bytes": spec.l1_bytes,
        "model_version": PLATFORM_MODEL_VERSION,
    }
    if spec.kind != "embedded_2layer":
        payload["l2_bytes"] = spec.l2_bytes
    return payload


def cell_payload(cell: SweepCell) -> dict:
    """Key payload of one sweep grid cell.

    The ``search`` section carries the TE sort factor and the assigner
    recipe.  :meth:`AssignerSpec.payload` keeps the greedy default
    budget-free, so greedy cells key identically whatever ``--budget``
    was on the command line.
    """
    return {
        "format": KEY_FORMAT_VERSION,
        "kind": "explore",
        "app": app_cache_payload(cell.app),
        "platform": platform_payload(cell.platform),
        "objective": cell.objective.value,
        "search": {
            "sort_factor": cell.sort_factor,
            "assigner": cell.assigner.payload(),
        },
    }


def cell_key(cell: SweepCell) -> str:
    """Content key of one sweep grid cell."""
    return content_key(cell_payload(cell))


def case_payload(
    case: CaseSpec,
    sort_factor: str = "time_per_size",
    assigner: AssignerSpec | None = None,
) -> dict:
    """Key payload of a full case spec (inline program or registry ref).

    The ``seed`` field is bookkeeping, not content — two specs that
    describe the same program/platform/objective from different seeds
    share a key — but a synthetic program's *name* embeds its seed and
    is part of the built program, so generated cases still key apart.
    """
    if isinstance(case.program, AppRefSpec):
        program_payload = app_cache_payload(case.program.name)
    else:
        program_payload = asdict(case.program)
    return {
        "format": KEY_FORMAT_VERSION,
        "kind": "explore",
        "app": program_payload,
        # HierarchySpec capacities are explicit, but latencies/energies
        # are still derived through the versioned analytic models.
        "platform": {
            **asdict(case.platform),
            "model_version": PLATFORM_MODEL_VERSION,
        },
        "objective": case.objective,
        "search": {
            "sort_factor": sort_factor,
            "assigner": (assigner or AssignerSpec()).payload(),
        },
    }


def case_key(
    case: CaseSpec,
    sort_factor: str = "time_per_size",
    assigner: AssignerSpec | None = None,
) -> str:
    """Content key of a full case spec."""
    return content_key(
        case_payload(case, sort_factor=sort_factor, assigner=assigner)
    )


def fuzz_verdict_payload(case: CaseSpec, harness_config: dict) -> dict:
    """Key payload of one differential-verification verdict."""
    return {
        "format": KEY_FORMAT_VERSION,
        "kind": "fuzz_verdict",
        "case": case_payload(case),
        "harness": harness_config,
    }


def fuzz_verdict_key(case: CaseSpec, harness_config: dict) -> str:
    """Content key of one differential-verification verdict."""
    return content_key(fuzz_verdict_payload(case, harness_config))
