"""Property test: the lifecycle is semantics-preserving.

For *any* interleaving of puts, gets, GC evictions, compactions,
segment rolls and process restarts, the store's visible view must
satisfy three invariants against a naive model (a plain dict recording
the last *accepted* put per key — re-puts of a live key are no-ops by
the append-only contract; a re-put after eviction is a fresh record):

* every surviving key maps to **exactly** the payload the naive replay
  assigns it — eviction may shrink the key set, but never corrupts or
  swaps a surviving record;
* compaction and reopening change **nothing** visible: the view before
  the operation equals the view after it, key for key, byte for byte.
* every write changes the view exactly as replaying it does: after
  each operation a fresh store opened on the directory has the same
  visible view and the same live bytes.

Segment rolling is exercised implicitly: the store under test uses a
tiny ``segment_max_bytes``, so a handful of puts spans several sealed
segments.
"""

import hashlib
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import KIND_FUZZ_VERDICT, ResultStore

KEYS = [hashlib.sha256(f"key{index}".encode()).hexdigest() for index in range(6)]

op_strategy = st.one_of(
    st.tuples(
        st.just("put"),
        st.integers(min_value=0, max_value=len(KEYS) - 1),
        st.integers(min_value=0, max_value=99),
    ),
    st.tuples(st.just("get"), st.integers(min_value=0, max_value=len(KEYS) - 1)),
    st.tuples(st.just("gc"), st.integers(min_value=1, max_value=len(KEYS))),
    st.tuples(st.just("compact")),
    st.tuples(st.just("reopen")),
)


def visible_view(store: ResultStore) -> dict:
    view = {}
    for key in KEYS:
        if key in store:
            # peek via the index record, not get(): reading must not
            # perturb the LRU state we are checking
            view[key] = dict(store._index[key]["payload"])
    return view


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(op_strategy, min_size=1, max_size=40))
def test_lifecycle_preserves_last_key_wins_view(ops):
    naive: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp, segment_max_bytes=256)
        for op in ops:
            if op[0] == "put":
                _, key_index, value = op
                key = KEYS[key_index]
                payload = {"v": value}
                accepted = store.put(key, KIND_FUZZ_VERDICT, payload)
                if accepted:
                    # the store took it: last *accepted* put wins (a
                    # re-put after eviction is a fresh record)
                    naive[key] = payload
                else:
                    # rejection happens only while the key is live
                    assert key in store
            elif op[0] == "get":
                key = KEYS[op[1]]
                got = store.get(key, KIND_FUZZ_VERDICT)
                if got is not None:
                    assert got == naive[key]
            elif op[0] == "gc":
                store.gc(max_records=op[1])
                assert len(store) <= op[1]
            elif op[0] == "compact":
                before = visible_view(store)
                report = store.compact()
                assert report["compacted"]
                assert visible_view(store) == before
            elif op[0] == "reopen":
                before = visible_view(store)
                store = ResultStore(tmp, segment_max_bytes=256)
                assert visible_view(store) == before

            # the standing invariant: survivors match the naive replay
            view = visible_view(store)
            assert set(view) <= set(naive)
            for key, payload in view.items():
                assert payload == naive[key]
            # every write changed the view exactly as replaying it does
            replayed = ResultStore(tmp, segment_max_bytes=256)
            assert visible_view(replayed) == view
            assert replayed.live_bytes == store.live_bytes

        # final restart must also be loss- and corruption-free
        final = visible_view(store)
        reopened = ResultStore(tmp)
        assert visible_view(reopened) == final
        assert reopened.verify(deep=False)["ok"]
