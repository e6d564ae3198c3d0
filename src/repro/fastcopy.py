"""Type-dispatched fast copying for simulator/runtime hot paths.

``copy.deepcopy`` walks every object graph through a generic reduction
protocol, which dominates the per-message and per-snapshot cost in large
runs.  The two entry points here keep the exact copy *semantics* the hot
paths already rely on while dispatching on concrete type:

- :func:`snapshot_payload` — the message-send copy.  NumPy arrays are
  copied with ``.copy()``, containers are rebuilt recursively (tuples
  too, since they may hold arrays), opaque objects pass through by
  reference unless they opt into deep copying with a truthy
  ``_snapshot_deep`` attribute (the deepcopy fallback).  A subclass of
  ``dict``, ``list`` or ``tuple`` keeps its class (an ``OrderedDict``, a
  ``Counter``, a ``NamedTuple``; a ``defaultdict`` keeps its factory).
  Numbers, strings and frozen dataclasses without ``_snapshot_deep``
  therefore cost nothing.
- :func:`fast_state_copy` — a deepcopy-equivalent for slave state
  snapshots.  Known containers and arrays take the fast path; anything
  unrecognised falls back to ``copy.deepcopy`` with a shared memo so
  aliasing inside one snapshot is preserved exactly like deepcopy
  would preserve it.

Dispatch decisions are cached per concrete type, so steady-state cost is
one dict lookup plus the copy itself.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

import numpy as np

__all__ = ["PASSTHROUGH", "fast_state_copy", "payload_copier", "snapshot_payload"]

# Types that can never expose mutable numeric state: safe to pass
# through by reference on every path.
_ATOMIC = frozenset(
    {type(None), bool, int, float, complex, str, bytes, range, slice}
)


def _copy_ndarray(payload: np.ndarray) -> np.ndarray:
    return payload.copy()


def _copy_dict(payload: dict) -> dict:
    return {k: snapshot_payload(v) for k, v in payload.items()}


def _copy_list(payload: list) -> list:
    return [snapshot_payload(v) for v in payload]


def _copy_tuple(payload: tuple) -> tuple:
    return tuple(snapshot_payload(v) for v in payload)


def _copy_dict_subclass(payload: dict) -> dict:
    # A shallow copy keeps the class and what its constructor took (a
    # defaultdict's factory); then each value is snapshotted in place.
    out = copy.copy(payload)
    for k, v in payload.items():
        out[k] = snapshot_payload(v)
    return out


def _copy_list_subclass(payload: list) -> list:
    out = copy.copy(payload)
    out[:] = [snapshot_payload(v) for v in payload]
    return out


def _passthrough(payload: Any) -> Any:
    """Share ``payload`` by reference (exported as :data:`PASSTHROUGH`)."""
    return payload


def _copy_opaque(payload: Any) -> Any:
    # ``_snapshot_deep`` may be set per instance, so the opaque copier
    # re-checks it on every call; only the *dispatch* is cached by type.
    if hasattr(payload, "__dict__") and getattr(payload, "_snapshot_deep", False):
        return copy.deepcopy(payload)
    return payload


def _payload_copier_for(cls: type) -> Callable[[Any], Any]:
    # Mirror the isinstance chain of the original snapshot_payload
    # exactly (subclasses of the containers take the container path,
    # keeping their class).
    if issubclass(cls, np.ndarray):
        return _copy_ndarray
    if cls is dict:
        return _copy_dict
    if issubclass(cls, dict):
        return _copy_dict_subclass
    if cls is list:
        return _copy_list
    if issubclass(cls, list):
        return _copy_list_subclass
    if cls is tuple:
        return _copy_tuple
    if issubclass(cls, tuple):
        # A NamedTuple is built from an iterable by ``_make``.
        make = getattr(cls, "_make", cls)
        return lambda payload: make(snapshot_payload(v) for v in payload)
    if cls in _ATOMIC or issubclass(cls, np.generic):
        return _passthrough
    return _copy_opaque


_PAYLOAD_COPIERS: dict[type, Callable[[Any], Any]] = {}

#: Sentinel copier for types that are safe to share by reference.
#: Callers that dispatch through :func:`payload_copier` compare against
#: this to skip the copy call entirely on immutable payloads.
PASSTHROUGH = _passthrough


def payload_copier(cls: type) -> Callable[[Any], Any]:
    """Resolved (and cached) send-time copier for a payload type.

    Hot send paths use this to dispatch once per message instead of
    calling :func:`snapshot_payload` (which repeats the cache lookup);
    a :data:`PASSTHROUGH` result means the payload may be shared by
    reference with no call at all.
    """
    copier = _PAYLOAD_COPIERS.get(cls)
    if copier is None:
        copier = _PAYLOAD_COPIERS[cls] = _payload_copier_for(cls)
    return copier


def snapshot_payload(payload: Any) -> Any:
    """Copy mutable numeric state out of a payload at send time.

    NumPy arrays (including arrays nested in dicts, lists and tuples)
    are copied; other objects are passed through unchanged unless they
    set ``_snapshot_deep = True``, which requests a full deepcopy.  This
    mirrors a real network, where the bytes leave the sender's buffers
    at send time.
    """
    cls = payload.__class__
    copier = _PAYLOAD_COPIERS.get(cls)
    if copier is None:
        copier = _PAYLOAD_COPIERS[cls] = _payload_copier_for(cls)
    return copier(payload)


def fast_state_copy(obj: Any, _memo: dict[int, Any] | None = None) -> Any:
    """Deep-copy ``obj`` with fast paths for arrays and plain containers.

    Semantically equivalent to ``copy.deepcopy(obj)`` for the state
    dictionaries slaves snapshot (numpy arrays, numbers, strings, and
    the built-in containers): aliasing within one call is preserved via
    a memo, and any object outside the fast set is handed to
    ``copy.deepcopy`` with that same memo.
    """
    cls = obj.__class__
    if cls in _ATOMIC or issubclass(cls, np.generic):
        return obj
    if _memo is None:
        _memo = {}
    oid = id(obj)
    hit = _memo.get(oid)
    if hit is not None:
        return hit
    if cls is np.ndarray:
        out: Any = obj.copy()
    elif cls is dict:
        out = {}
        _memo[oid] = out
        for k, v in obj.items():
            out[k] = fast_state_copy(v, _memo)
        return out
    elif cls is list:
        out = []
        _memo[oid] = out
        for v in obj:
            out.append(fast_state_copy(v, _memo))
        return out
    elif cls is tuple:
        out = tuple(fast_state_copy(v, _memo) for v in obj)
    elif cls is set or cls is frozenset:
        out = cls(fast_state_copy(v, _memo) for v in obj)
    else:
        return copy.deepcopy(obj, _memo)
    _memo[oid] = out
    return out
