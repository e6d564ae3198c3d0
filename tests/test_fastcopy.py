"""Unit tests for the type-dispatched fast copiers.

The fast paths must be observationally identical to the code they
replaced: ``snapshot_payload``'s isinstance chain (arrays copied,
containers rebuilt, opaque objects by reference unless they opt into
``_snapshot_deep``) and ``copy.deepcopy`` for slave state snapshots,
including aliasing preservation.
"""

import copy
from collections import Counter, OrderedDict, defaultdict
from typing import NamedTuple

import numpy as np

from repro.fastcopy import fast_state_copy, snapshot_payload


class Opaque:
    def __init__(self, arr):
        self.arr = arr


class OpaqueDeep:
    _snapshot_deep = True

    def __init__(self, arr):
        self.arr = arr


class Point(NamedTuple):
    pid: int
    arr: np.ndarray


class TestSnapshotPayload:
    def test_ndarray_is_copied(self):
        a = np.arange(6.0)
        b = snapshot_payload(a)
        assert b is not a
        a[0] = 99.0
        assert b[0] == 0.0

    def test_atomics_pass_through(self):
        for v in (None, True, 3, 2.5, 1 + 2j, "tag", b"raw", range(4)):
            assert snapshot_payload(v) is v

    def test_numpy_scalars_pass_through(self):
        v = np.float64(1.5)
        assert snapshot_payload(v) is v

    def test_containers_rebuilt_arrays_inside_copied(self):
        a = np.ones(3)
        payload = {"k": [a, (a, 7)], "n": 5}
        out = snapshot_payload(payload)
        assert out is not payload
        assert out["n"] == 5
        inner = out["k"][0]
        assert inner is not a
        a[:] = 0.0
        assert inner[0] == 1.0
        assert out["k"][1][0][0] == 1.0

    def test_opaque_passes_by_reference(self):
        obj = Opaque(np.zeros(2))
        assert snapshot_payload(obj) is obj

    def test_snapshot_deep_class_attribute_forces_deepcopy(self):
        obj = OpaqueDeep(np.zeros(2))
        out = snapshot_payload(obj)
        assert out is not obj
        assert out.arr is not obj.arr
        obj.arr[0] = 5.0
        assert out.arr[0] == 0.0

    def test_snapshot_deep_instance_attribute_rechecked_per_call(self):
        # The dispatch is cached per type, but the opt-in flag is
        # instance state and must be honoured call by call.
        plain = Opaque(np.zeros(2))
        deep = Opaque(np.zeros(2))
        deep._snapshot_deep = True
        assert snapshot_payload(plain) is plain
        copied = snapshot_payload(deep)
        assert copied is not deep
        assert copied.arr is not deep.arr

    def test_dict_subclass_takes_container_path(self):
        class D(dict):
            pass

        a = np.ones(2)
        out = snapshot_payload(D(x=a))
        assert out["x"] is not a

    def test_tuple_subclass_keeps_its_class(self):
        class T(tuple):
            pass

        a = np.ones(2)
        point = snapshot_payload(Point(3, a))
        assert type(point) is Point
        assert point.pid == 3
        assert point.arr is not a
        assert np.array_equal(point.arr, a)
        plain = snapshot_payload(T((3, a)))
        assert type(plain) is T
        assert plain[1] is not a
        assert type(snapshot_payload((3, a))) is tuple


    def test_dict_and_list_subclasses_keep_their_class(self):
        # As fast_state_copy (deepcopy) does: the class, the key order
        # and a defaultdict's factory survive, and arrays are copied.
        class L(list):
            pass

        a = np.ones(2)
        ordered = OrderedDict(b=a, a=1)
        grouped = defaultdict(list, x=[a])
        counts = Counter("abb")
        listed = L([a, 2])
        for payload in (ordered, grouped, counts, listed):
            out = snapshot_payload(payload)
            assert type(out) is type(payload)
            assert type(fast_state_copy(payload)) is type(payload)
        out = snapshot_payload(ordered)
        assert list(out) == ["b", "a"] and out["b"] is not a
        out = snapshot_payload(grouped)
        assert out.default_factory is list
        assert out["x"] is not grouped["x"] and out["x"][0] is not a
        assert out["missing"] == []
        assert snapshot_payload(counts) == Counter(a=1, b=2)
        out = snapshot_payload(listed)
        assert out[0] is not a and np.array_equal(out[0], a) and out[1] == 2
        assert type(snapshot_payload({"k": a})) is dict
        assert type(snapshot_payload([a])) is list


class TestFastStateCopy:
    def test_matches_deepcopy_on_slave_state(self):
        state = {
            "rows": np.arange(12.0).reshape(3, 4),
            "iter": 7,
            "tags": ["a", "b"],
            "meta": {"nested": (1, 2, np.ones(2))},
            "done": frozenset({1, 2}),
        }
        out = fast_state_copy(state)
        ref = copy.deepcopy(state)
        assert out["iter"] == ref["iter"]
        assert np.array_equal(out["rows"], ref["rows"])
        assert out["rows"] is not state["rows"]
        state["rows"][0, 0] = -1.0
        assert out["rows"][0, 0] == 0.0
        assert out["meta"]["nested"][2] is not state["meta"]["nested"][2]

    def test_aliasing_preserved_like_deepcopy(self):
        shared = np.zeros(4)
        state = {"a": shared, "b": shared, "lst": [shared]}
        out = fast_state_copy(state)
        assert out["a"] is out["b"]
        assert out["a"] is out["lst"][0]
        assert out["a"] is not shared

    def test_recursive_container_terminates(self):
        state: dict = {"x": 1}
        state["self"] = state
        out = fast_state_copy(state)
        assert out["self"] is out
        assert out is not state

    def test_fallback_to_deepcopy_for_opaque_objects(self):
        obj = Opaque(np.arange(3.0))
        state = {"obj": obj, "arr": obj.arr}
        out = fast_state_copy(state)
        # deepcopy semantics: the opaque object is deep-copied...
        assert out["obj"] is not obj
        assert out["obj"].arr is not obj.arr
        # ...and aliasing between the fast path and the deepcopy
        # fallback is preserved through the shared memo.
        assert out["obj"].arr is out["arr"]

    def test_atomics_identity(self):
        for v in (None, False, 42, "s", b"b", 1.25):
            assert fast_state_copy(v) is v
