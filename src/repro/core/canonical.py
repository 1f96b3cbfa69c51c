"""Canonical, cross-version-stable keys for ordering and hashing.

Several layers need a deterministic total order (or a deterministic
serialisation) over heterogeneous values:

* :meth:`repro.sim.runner.ExecutionResult.brief` sorts the distinct
  decided values of an execution;
* the unit pipeline's content-hash cache keys -- the
  :attr:`~repro.experiments.campaign.UnitSpec.unit_id` of every unit
  spec (campaign cells, atlas cells, soak windows) -- must not drift
  between runs, machines, or Python versions.

``sorted(values, key=repr)`` is *not* that: ``repr`` of sets and
frozensets follows hash-table iteration order (randomised per process
for strings), and ``repr`` formatting of builtins has changed across
Python releases.  This module provides the one canonicalisation both
layers share:

* :func:`canonical_key` -- a type-tagged, recursively canonical string;
  container contents are themselves canonicalised and unordered
  containers are sorted by their elements' canonical keys, so equal
  values always map to equal keys and the induced order is stable.
* :func:`canonical_json` -- compact JSON with sorted object keys and a
  :func:`canonical_key` fallback for non-JSON values; byte-stable input
  for content hashes.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Hashable, Mapping

__all__ = [
    "canonical_key",
    "canonical_json",
    "canonical_state_key",
    "exact_key",
    "is_plain",
    "reflective_state_key",
    "shared_key",
    "stable_seed",
]


def canonical_key(value: Any) -> str:
    """A deterministic, type-tagged string key for ``value``.

    Equal values produce equal keys; distinct primitive types are kept
    apart by an explicit tag (so ``1``, ``True`` and ``"1"`` never
    collide the way ad-hoc ``repr`` schemes can).  Sets, frozensets and
    mappings are serialised in the order of their elements' canonical
    keys -- never in hash-table iteration order.

    Free-form text (string contents, fallback reprs) is JSON-quoted, so
    a child key can never forge the structural separators (``,``, ``=``,
    brackets) and structurally distinct values cannot collide.

    Args:
        value: Any value; containers are handled recursively, unknown
            objects fall back to ``obj:type-name:quoted-repr``.

    Returns:
        The canonical key string.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return f"bool:{value}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, str):
        return f"str:{json.dumps(value)}"
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if isinstance(value, (tuple, list)):
        return "seq:[" + ",".join(canonical_key(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "set:{" + ",".join(sorted(canonical_key(v) for v in value)) + "}"
    if isinstance(value, Mapping):
        items = sorted(
            (canonical_key(k), canonical_key(v)) for k, v in value.items()
        )
        return "map:{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    return f"obj:{type(value).__name__}:{json.dumps(repr(value))}"


def canonical_state_key(value: Any) -> Hashable:
    """The strategy explorer's state identity for ``value``.

    Two process objects that went through different Byzantine histories
    but ended in the *same state* must get the *same* key, or the
    explorer's transposition table never collapses anything; states
    that differ must get different keys, or it prunes live branches.

    Objects whose class defines ``state_key()`` (every
    :class:`~repro.sim.process.Process`) answer with it: the processes
    the explorer runs override it with a flat tuple, the rest inherit
    the reflective default.  Any other value gets
    :func:`reflective_state_key`, which is also the oracle every
    explicit ``state_key()`` must agree with (equal keys exactly when
    the reflective keys are equal).

    Args:
        value: A process, or any value :func:`reflective_state_key`
            accepts.

    Returns:
        A hashable key.
    """
    state_key = getattr(type(value), "state_key", None)
    if state_key is not None:
        return state_key(value)
    return reflective_state_key(value)


def reflective_state_key(value: Any, _seen: frozenset[int] = frozenset()) -> str:
    """A :func:`canonical_key` that recurses into plain objects.

    :func:`canonical_key` degrades unknown objects to ``repr``, which
    embeds memory addresses for anything without a custom ``__repr__``
    -- useless as an equivalence key across deep copies.  This variant
    serialises objects structurally: instance attributes from
    ``__dict__`` and ``__slots__`` (including inherited slots), tagged
    with the type name and sorted by attribute name.  Mapping/set
    contents are canonically sorted exactly as in :func:`canonical_key`.
    Cycles degrade to a ``cycle`` marker rather than recursing forever.

    It is correct for any object and slow for all of them: the fallback
    of :func:`canonical_state_key` and the test oracle for the explicit
    ``state_key()`` overrides.

    Args:
        value: Any value; objects are decomposed recursively.
        _seen: Internal cycle guard (ids on the current recursion path).

    Returns:
        The canonical state-key string.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"bool:{value}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, str):
        return f"str:{json.dumps(value)}"
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if id(value) in _seen:
        return "cycle"
    seen = _seen | {id(value)}
    if isinstance(value, (tuple, list)):
        return "seq:[" + ",".join(reflective_state_key(v, seen) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return (
            "set:{"
            + ",".join(sorted(reflective_state_key(v, seen) for v in value))
            + "}"
        )
    if isinstance(value, Mapping):
        items = sorted(
            (reflective_state_key(k, seen), reflective_state_key(v, seen))
            for k, v in value.items()
        )
        return "map:{" + ",".join(f"{k}={v}" for k, v in items) + "}"
    attrs: dict[str, Any] = {}
    for klass in reversed(type(value).__mro__):
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(value, slot):
                attrs[slot] = getattr(value, slot)
    attrs.update(getattr(value, "__dict__", {}))
    # Dunder entries (e.g. an enum member's __objclass__) point back at
    # class-level machinery whose digest would be address-dependent
    # noise; instance state never lives under dunder names.
    attrs = {k: v for k, v in attrs.items() if not k.startswith("__")}
    if attrs:
        body = ",".join(
            f"{json.dumps(name)}={reflective_state_key(attr, seen)}"
            for name, attr in sorted(attrs.items())
        )
        return f"obj:{type(value).__name__}:{{{body}}}"
    return f"obj:{type(value).__name__}:{json.dumps(repr(value))}"


#: Tags that keep :func:`exact_key`'s fallback and mapping forms apart
#: from every tuple a plain value can produce.
_LEAF = object()
_MAP = object()

#: Types whose ``==`` already separates exactly what the reflective
#: key separates.
_PLAIN_ATOMS = frozenset({int, str, type(None)})


def is_plain(value: Any) -> bool:
    """True when ``value`` is built only from ``int``, ``str``, ``None``
    and tuples -- values whose ``==`` equals reflective-key equality."""
    cls = type(value)
    if cls in _PLAIN_ATOMS:
        return True
    return cls is tuple and all(map(is_plain, value))


def exact_key(value: Any) -> Hashable:
    """A hashable stand-in for ``value``, equal exactly when the
    :func:`reflective_state_key` of the two values is equal.

    Plain ``==`` is too coarse for that (``1 == True == 1.0``) and too
    order-sensitive for unhashable containers, so:

    * ``int``, ``str`` and ``None`` stand for themselves;
    * sequences become tuples of keys (lists and tuples alike, as in the
      reflective key);
    * sets become frozensets of keys, mappings a tagged frozenset of
      ``(key, value)`` key pairs -- order-insensitive, as the reflective
      key's sorting is;
    * anything else (``bool``, ``float``, objects) is tagged with its
      reflective key.

    Keys are equal exactly when the reflective keys are, for data built
    from builtin atoms and containers, with two exceptions: an instance
    of a builtin subclass is keyed by the fallback, which may separate
    it from an equal plain value, and a set holding two distinct
    elements with equal reflective keys (two NaNs) collapses them.
    Process state holds neither.

    Args:
        value: A process-state attribute.

    Returns:
        The key.
    """
    cls = type(value)
    if cls in _PLAIN_ATOMS:
        return value
    if cls is tuple or cls is list:
        return tuple(map(exact_key, value))
    if cls is set or cls is frozenset:
        return frozenset(map(exact_key, value))
    if cls is dict:
        return (
            _MAP,
            frozenset((exact_key(k), exact_key(v)) for k, v in value.items()),
        )
    return (_LEAF, reflective_state_key(value))


#: Identity memo for :func:`shared_key`; entries hold their object, so
#: an id cannot be reused while its entry lives.
_SHARED_KEYS: dict[int, tuple[Any, str]] = {}
_SHARED_KEYS_MAX = 1024


def shared_key(obj: Any) -> str:
    """The reflective key of a never-mutated object processes share.

    Configuration (an algorithm spec, the system parameters, the
    problem) is shared by every process of an execution and by all
    their clones; its key is computed once per object and memoised by
    identity.  The key is content-based, so equal configurations in
    different objects still key equal.

    Args:
        obj: A shared, immutable configuration object.

    Returns:
        ``reflective_state_key(obj)``.
    """
    entry = _SHARED_KEYS.get(id(obj))
    if entry is None:
        if len(_SHARED_KEYS) >= _SHARED_KEYS_MAX:
            _SHARED_KEYS.clear()
        entry = _SHARED_KEYS[id(obj)] = (obj, reflective_state_key(obj))
    return entry[1]


def stable_seed(value: Any) -> int:
    """A cross-run-stable 32-bit RNG seed derived from ``value``.

    The seeded simulation layers (per-link drop decisions in
    :class:`repro.sim.partial.RandomDrops`, per-message delays in
    :mod:`repro.sim.delay`) need one independent, deterministic RNG per
    ``(seed, round/tick, sender, recipient)`` key.  Python's builtin
    ``hash`` is *not* that: string hashing is salted per interpreter run
    (``PYTHONHASHSEED``), so a key containing any string -- or any value
    whose hash delegates to one -- yields different "deterministic"
    behaviour between runs.  This helper digests a deterministic
    encoding of the value with CRC-32 instead -- a direct tag+length
    encoding for flat int/str tuples (the hot-path shape), the
    :func:`canonical_key` for everything else -- which is bit-stable
    across runs, machines and Python versions.

    Args:
        value: Any :func:`canonical_key`-able value (tuples of the key
            components, typically).

    Returns:
        An unsigned 32-bit seed.
    """
    if type(value) is tuple and all(type(v) in (int, str) for v in value):
        # Hot path: the seeded simulation layers call this once per
        # network edge per round, always with a flat tuple of small
        # ints (plus the occasional phase-marker string).  A direct
        # unambiguous encoding (type tag + length-prefixed text) skips
        # the general JSON canonicalisation, which is ~30x slower.
        key = "|".join(
            f"i:{v}" if type(v) is int else f"s{len(v)}:{v}" for v in value
        )
    else:
        key = canonical_key(value)
    return zlib.crc32(key.encode("utf-8"))


def canonical_json(value: Any) -> str:
    """Compact, byte-stable JSON serialisation of ``value``.

    Object keys are sorted and separators carry no whitespace, so the
    output is suitable as content-hash input.  Values JSON cannot
    express are replaced by their :func:`canonical_key`.

    Args:
        value: A JSON-compatible value (other objects degrade to their
            canonical key string).

    Returns:
        The JSON document as a string.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=canonical_key
    )
