"""Design registry: names and keys -> circuits, database-backed.

Three spellings resolve to a design, in precedence order:

1. **Registered names** -- the legacy built-ins (``mult16``, ``m0lite``,
   ``counter16``, ``lfsr16``) are *aliases* into the parameterized
   design database (:mod:`repro.circuits.generators`): ``mult16`` is
   ``multiplier(n=16)`` with a bit-identical netlist fingerprint.  User
   code can still register ad-hoc builders::

       from repro.circuits.registry import register_design

       @register_design("myblock", width=8)
       def build_myblock(library, width):
           ...
           return module

2. **Design keys** -- a :class:`~repro.circuits.generators.DesignKey`
   object or spec string (``"multiplier(n=8)"``) elaborates through the
   database (lazy, memoised per library).

3. **Verilog paths** -- anything that looks like a file path falls back
   to the structural-Verilog reader.

Registering a name twice raises :class:`~repro.errors.RegistryError`
naming *both* registration sites -- a silent overwrite is how two
plugins end up silently measuring each other's circuit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import RegistryError
from ..obs.trace import layer
from .generators import DesignKey, _source_site, canonical_key, \
    elaborate, has_family, looks_like_key


@dataclass(frozen=True)
class DesignEntry:
    """One registered design: its builder and default parameters.

    Database aliases also carry ``key`` (the canonical
    :class:`~repro.circuits.generators.DesignKey` they elaborate) and
    ``renames`` (legacy keyword -> family parameter translations, e.g.
    ``mult16``'s historical ``width=`` becoming ``multiplier``'s ``n=``).
    """

    name: str
    builder: object
    defaults: dict = field(default_factory=dict)
    site: str = ""
    key: object = None          # canonical DesignKey for aliases
    renames: dict = field(default_factory=dict)

    @property
    def doc(self):
        """First line of the builder's docstring."""
        text = (self.builder.__doc__ or "").strip()
        return text.splitlines()[0] if text else ""


_REGISTRY = {}

#: Legacy name -> (family, base params, legacy keyword renames).  The
#: two paper designs and the two stimulus helpers stay addressable by
#: their historical names; the netlists they resolve to are the
#: database's, fingerprint-identical to the pre-database builders.
_ALIASES = {
    "mult16": ("multiplier", {"n": 16}, {"width": "n"}),
    "m0lite": ("m0lite", {}, {}),
    "counter16": ("counter", {"width": 16}, {}),
    "lfsr16": ("lfsr", {"width": 16}, {}),
}


def register_design(name, **defaults):
    """Parametrised decorator: register the decorated builder as ``name``.

    ``defaults`` become keyword arguments of the builder, overridable per
    :func:`build` call.  Re-registering a taken name raises
    :class:`~repro.errors.RegistryError` naming both registration sites
    (re-running the *identical* registration -- same builder, same
    defaults, e.g. an ``importlib.reload`` -- stays a no-op).
    """

    def decorate(builder):
        site = _source_site(builder)
        if name in _ALIASES:
            raise RegistryError(
                "design {!r} is a built-in database alias for {!r}; "
                "cannot re-register it at {}".format(
                    name, str(_alias_entry(name).key), site))
        existing = _REGISTRY.get(name)
        if existing is not None:
            if existing.builder is builder \
                    and existing.defaults == dict(defaults):
                return builder  # identical re-registration: no-op
            raise RegistryError(
                "design {!r} is already registered at {} "
                "(duplicate registration at {})".format(
                    name, existing.site or "<unknown>", site))
        _REGISTRY[name] = DesignEntry(name, builder, dict(defaults),
                                      site=site)
        return builder

    return decorate


def unregister_design(name):
    """Remove an ad-hoc registration (tests and plugin teardown).

    Built-in aliases cannot be removed; unknown names are a no-op.
    """
    if name in _ALIASES:
        raise RegistryError(
            "cannot unregister built-in design {!r}".format(name))
    _REGISTRY.pop(name, None)


def _alias_entry(name):
    """The :class:`DesignEntry` view of a built-in database alias."""
    from . import generators

    fam_name, base, renames = _ALIASES[name]
    fam = generators.family(fam_name)
    return DesignEntry(name, fam.builder, dict(base), site=fam.site,
                       key=fam.key(**base), renames=dict(renames))


def available_designs():
    """Sorted names of every registered design (aliases + ad-hoc)."""
    return sorted(set(_ALIASES) | set(_REGISTRY))


def entry(name):
    """The :class:`DesignEntry` for ``name``; raises when unknown."""
    if name in _ALIASES:
        return _alias_entry(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise RegistryError(
            "unknown design {!r} (available: {})".format(
                name, ", ".join(available_designs()))) from None


def is_registered(name):
    """True when ``name`` resolves without touching the filesystem."""
    return name in _ALIASES or name in _REGISTRY


def design_key(name, **params):
    """The canonical :class:`~repro.circuits.generators.DesignKey` for a
    name, key or spec string -- ``None`` for ad-hoc registrations and
    Verilog paths (which have no database identity)."""
    if isinstance(name, DesignKey):
        return canonical_key(name.with_params(**params) if params
                             else name)
    if name in _ALIASES:
        e = _alias_entry(name)
        merged = dict(e.defaults)
        merged.update(_rename_params(e, params))
        return canonical_key(DesignKey(e.key.family, **merged))
    if name in _REGISTRY:
        return None
    if isinstance(name, str) and looks_like_key(name):
        key = DesignKey.parse(name)
        if has_family(key.family) or "(" in name:
            # A parenthesised spec is unambiguously meant as a key, so
            # an unknown family fails loudly inside canonical_key.
            return canonical_key(key.with_params(**params) if params
                                 else key)
    return None


def _rename_params(e, params):
    """Legacy keyword spellings translated to family parameter names."""
    return {e.renames.get(k, k): v for k, v in params.items()}


@layer("circuits.elaborate")
def build(name, library, **params):
    """Build design ``name`` on ``library``; returns the top Module.

    Always a *fresh* (private, mutable) module -- the historical
    contract of this function; :func:`resolve` is the memoised path.
    """
    if name in _ALIASES:
        return elaborate(design_key(name, **params), library, fresh=True)
    e = entry(name)
    merged = dict(e.defaults)
    merged.update(params)
    return e.builder(library, **merged)


def resolve(name, library, **params):
    """A :class:`~repro.netlist.core.Design` by name, key or Verilog path.

    Registered names (aliases first, then ad-hoc builders) win; a
    :class:`~repro.circuits.generators.DesignKey` or spec string
    elaborates through the database (memoised per library -- treat the
    module as read-only, exactly how every in-tree analysis and
    transform behaves); anything that looks like a file path falls back
    to the structural-Verilog reader (preserving the CLI's historical
    behaviour, including ``FileNotFoundError`` for missing files); other
    names raise :class:`~repro.errors.RegistryError` listing what exists.
    """
    from ..netlist.core import Design

    if isinstance(name, DesignKey) or name in _ALIASES:
        return Design(elaborate(design_key(name, **params), library),
                      library)
    if name in _REGISTRY:
        return Design(build(name, library, **params), library)
    key = design_key(name, **params)
    if key is not None:
        return Design(elaborate(key, library), library)
    if params:
        raise RegistryError(
            "parameters are only supported for registered designs and "
            "design keys, not Verilog paths ({!r})".format(name))
    if name.endswith(".v") or os.sep in name or os.path.exists(name):
        from ..netlist.verilog import read_verilog

        return read_verilog(name, library)
    raise RegistryError(
        "unknown design {!r} (available: {}; families: {}; or pass a "
        ".v file)".format(
            name, ", ".join(available_designs()),
            ", ".join(_family_names())))


def _family_names():
    from . import generators

    return generators.available_families()
