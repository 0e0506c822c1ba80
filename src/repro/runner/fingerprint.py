"""Stable content fingerprints for cache keys.

The result cache is content-addressed: a sweep point's key is derived from
*what* is being evaluated (design netlist, library parameters, operating
point, mode), never from *when* or *where*.  Python's built-in ``hash`` is
salted per process and ``repr`` of floats is rounding-sensitive, so this
module defines its own canonical form:

* floats canonicalise through ``float.hex()`` (exact, platform-stable);
* dicts/sets canonicalise in sorted key order;
* enums canonicalise by qualified name, not value identity;
* dataclasses canonicalise field-by-field;
* any object may define ``__fingerprint__()`` returning a simpler
  structure to canonicalise in its place (models, libraries and modules
  use this to describe their physics rather than their object graph);
* a :class:`Canonical` (made by :func:`canonical`) stands for a part
  canonicalised earlier, so an owner can memoise a large part that
  rarely changes and keys stay byte-identical to the unmemoised form.

Anything else is rejected loudly -- a silently wrong cache key is the one
failure mode a result cache must not have.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import fields, is_dataclass

from ..errors import RunnerError


class Canonical:
    """The canonical text of a part, emitted verbatim by ``_canon``."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def canonical(obj):
    """``obj`` canonicalised once, as a :class:`Canonical` to embed in a
    ``__fingerprint__`` structure in its place."""
    return Canonical(_canon(obj))


def _canon(obj):
    """Canonical text form of ``obj`` (recursive)."""
    if obj is None:
        return "none"
    if obj is True or obj is False:
        return "b:{}".format(int(obj))
    if isinstance(obj, int):
        return "i:{}".format(obj)
    if isinstance(obj, float):
        return "f:{}".format(float(obj).hex())
    if isinstance(obj, str):
        return "s:{}:{}".format(len(obj), obj)
    if isinstance(obj, bytes):
        return "y:{}".format(obj.hex())
    if isinstance(obj, enum.Enum):
        return "e:{}.{}".format(type(obj).__qualname__, obj.name)
    if type(obj) is Canonical:
        return obj.text
    fp = getattr(obj, "__fingerprint__", None)
    if callable(fp):
        return "o:{}({})".format(type(obj).__qualname__, _canon(fp()))
    if isinstance(obj, (list, tuple)):
        return "[{}]".format(",".join(_canon(x) for x in obj))
    if isinstance(obj, dict):
        items = sorted((_canon(k), _canon(v)) for k, v in obj.items())
        return "{{{}}}".format(",".join("{}={}".format(k, v)
                                        for k, v in items))
    if isinstance(obj, (set, frozenset)):
        return "<{}>".format(",".join(sorted(_canon(x) for x in obj)))
    if is_dataclass(obj) and not isinstance(obj, type):
        body = ",".join("{}={}".format(f.name, _canon(getattr(obj, f.name)))
                        for f in fields(obj))
        return "d:{}({})".format(type(obj).__qualname__, body)
    # numpy scalars reduce to their Python equivalents without importing
    # numpy here (the runner must work when numpy is absent downstream).
    item = getattr(obj, "item", None)
    if callable(item) and type(obj).__module__.split(".")[0] == "numpy":
        return _canon(item())
    raise RunnerError(
        "cannot fingerprint {} (define __fingerprint__ on it)".format(
            type(obj).__qualname__))


def fingerprint(obj):
    """Hex digest of the canonical form of ``obj``."""
    return hashlib.sha256(_canon(obj).encode()).hexdigest()


def stable_hash(*parts):
    """Hex digest over several canonicalised ``parts``."""
    return fingerprint(tuple(parts))


def stable_hash_or_none(*parts):
    """:func:`stable_hash` of ``parts``, or ``None`` (caching disabled)
    when one of them has no content fingerprint -- a wrong key is worse
    than no cache."""
    try:
        return stable_hash(*parts)
    except RunnerError:
        return None


def module_fingerprint(module):
    """Structural digest of a netlist :class:`~repro.netlist.core.Module`.

    Two modules with the same ports, instances and connectivity map to the
    same digest; any edit -- a swapped cell, a rewired pin, a renamed port
    -- changes it.  Net identity is canonicalised through driver names so
    auto-generated net names do not leak into the key.  The digest is
    computed once per module generation (:meth:`~repro.netlist.core.
    Module.derived`).
    """
    return module.derived("fingerprint", _module_digest)


def _module_digest(module):
    ports = sorted(
        (p.name, p.direction.name, p.net.name) for p in module.ports)
    insts = sorted(
        (inst.name, inst.ref_name,
         tuple(sorted((pin, net.name)
                      for pin, net in inst.connections.items())))
        for inst in module.instances())
    consts = sorted(
        (net.name, net.const_value) for net in module.nets()
        if net.is_const)
    return stable_hash("module-v1", module.name, ports, insts, consts)
