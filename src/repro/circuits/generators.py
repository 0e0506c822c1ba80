"""Parameterized design database: generator families, keyed and lazy.

The paper measures two circuits; every layer built since (chunked
parallel runner, artifact cache, the technique comparison) is starved
for scenario breadth.  This module turns the two hand-built designs into
a *design space*: netlist generators are registered as **families** with
declared, validated parameter spaces, and concrete designs are addressed
by a hashable :class:`DesignKey` -- ``DesignKey("multiplier", n=16)`` --
elaborated lazily and memoised per library (the PRGA-style keyed module
database, adapted to our flat gate-level netlists)::

    from repro.circuits.generators import DesignKey, elaborate, expand_family

    top = elaborate(DesignKey("multiplier", n=8), lib)
    keys = expand_family("multiplier", n=[4, 8, 16, 32])

Elaborated modules are shared (treat them as read-only -- every in-tree
transform clones or rebuilds); pass ``fresh=True`` for a private,
mutable instance.  Every family elaborates to the ordinary flat
:class:`~repro.netlist.core.Module` form, so struct-of-arrays lowering,
:class:`~repro.runner.artifacts.CircuitArtifacts`, all registered
techniques and the golden/sweep machinery work unchanged.

Registered built-in families: ``multiplier`` (the paper's case study 1
generalised to NxN), ``adder`` (ripple / carry-select trees),
``regfile_alu`` (register-file + ALU execute-stage slice), ``pipeline``
(counter/rotate pipeline of configurable depth), ``fir`` (FIR/MAC
datapath), plus ``m0lite``, ``counter`` and ``lfsr`` wrapping the
remaining legacy builders.  ``repro.circuits.registry`` resolves the
legacy names (``mult16``, ``m0lite``, ``counter16``, ``lfsr16``) through
this database with bit-identical netlist fingerprints.
"""

from __future__ import annotations

import itertools
import re
import weakref

from ..errors import GeneratorError, RegistryError
from ..netlist.core import Module

__all__ = [
    "DesignKey",
    "Param",
    "GeneratorFamily",
    "register_family",
    "available_families",
    "family",
    "has_family",
    "canonical_key",
    "elaborate",
    "expand_family",
]


def _source_site(fn):
    """``file:line`` of a builder function (for duplicate diagnostics)."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return repr(fn)
    return "{}:{}".format(code.co_filename, code.co_firstlineno)


_SPEC_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*$", re.S)
_PAIR_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*(.+?)\s*$", re.S)


def _parse_value(text):
    """A key-spec parameter value: int, float, bool or bare/quoted str."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


class DesignKey:
    """Hashable database key: a family name plus keyword parameters.

    Keys are immutable value objects -- equal keys hash equally, order of
    keyword arguments never matters, and :func:`repr` round-trips through
    :meth:`parse` (``multiplier(n=16)``).  A key does not have to spell
    every parameter: elaboration canonicalises it against the family's
    declared defaults first (see :func:`canonical_key`), so
    ``DesignKey("multiplier")`` and ``DesignKey("multiplier", n=16)``
    address the same design.
    """

    __slots__ = ("_family", "_params")

    def __init__(self, family, **params):
        if not isinstance(family, str) or not family:
            raise GeneratorError("design key needs a family name string")
        object.__setattr__(self, "_family", family)
        object.__setattr__(self, "_params",
                           tuple(sorted(params.items())))

    @property
    def family(self):
        """The generator family name."""
        return self._family

    @property
    def params(self):
        """The key's parameters as a fresh dict."""
        return dict(self._params)

    def with_params(self, **overrides):
        """A new key with ``overrides`` merged over this key's params."""
        merged = self.params
        merged.update(overrides)
        return DesignKey(self._family, **merged)

    def __setattr__(self, name, value):
        raise AttributeError("DesignKey is immutable")

    def __eq__(self, other):
        return (isinstance(other, DesignKey)
                and self._family == other._family
                and self._params == other._params)

    def __hash__(self):
        return hash((self._family, self._params))

    def __fingerprint__(self):
        """Content identity for result-cache keys (see repro.runner)."""
        return ("design-key-v1", self._family, self._params)

    def __repr__(self):
        if not self._params:
            return self._family
        body = ", ".join(
            "{}={}".format(k, v) for k, v in self._params)
        return "{}({})".format(self._family, body)

    __str__ = __repr__

    @classmethod
    def parse(cls, text):
        """Parse ``"family"`` or ``"family(a=1, b=true)"`` into a key.

        Values parse as int, float, ``true``/``false`` or (possibly
        quoted) strings.  Raises :class:`~repro.errors.GeneratorError`
        on anything else -- callers that also accept file paths should
        try :func:`looks_like_key` first.
        """
        match = _SPEC_RE.match(text or "")
        if match is None:
            raise GeneratorError(
                "malformed design key {!r} (expected "
                "'family' or 'family(name=value, ...)')".format(text))
        name, body = match.groups()
        params = {}
        if body is not None and body.strip():
            for chunk in body.split(","):
                pair = _PAIR_RE.match(chunk)
                if pair is None:
                    raise GeneratorError(
                        "malformed design key {!r}: bad parameter "
                        "{!r} (expected name=value)".format(text, chunk))
                if pair.group(1) in params:
                    raise GeneratorError(
                        "malformed design key {!r}: parameter {!r} is "
                        "given twice".format(text, pair.group(1)))
                params[pair.group(1)] = _parse_value(pair.group(2))
        return cls(name, **params)


def looks_like_key(text):
    """True when ``text`` parses as a design-key spec (syntax only --
    the family does not have to exist)."""
    if not isinstance(text, str):
        return isinstance(text, DesignKey)
    match = _SPEC_RE.match(text)
    if match is None:
        return False
    body = match.group(2)
    if body is None or not body.strip():
        return True
    return all(_PAIR_RE.match(chunk) for chunk in body.split(","))


class Param:
    """One declared generator parameter: type, range/choices, default.

    Parameters
    ----------
    name:
        Keyword name the builder receives.
    type:
        Accepted Python type (exact: ``bool`` is not an ``int`` here).
    default:
        Value used when the key leaves the parameter out.
    minimum / maximum:
        Inclusive range bounds (ordered types only).
    choices:
        Explicit allowed values (exclusive with the range bounds).
    doc:
        One-line description (rendered into ``docs/designs.md``).
    """

    __slots__ = ("name", "type", "default", "minimum", "maximum",
                 "choices", "doc")

    def __init__(self, name, type=int, default=None, minimum=None,
                 maximum=None, choices=None, doc=""):
        self.name = name
        self.type = type
        self.default = default
        self.minimum = minimum
        self.maximum = maximum
        self.choices = tuple(choices) if choices is not None else None
        self.doc = doc

    def validate(self, family, value):
        """``value`` checked against this spec; raises
        :class:`~repro.errors.GeneratorError` with the family, the
        parameter and the allowed space named."""
        where = "{}.{}".format(family, self.name)
        if self.type is not bool and isinstance(value, bool):
            raise GeneratorError(
                "{} must be {}, got bool {!r}".format(
                    where, self.type.__name__, value))
        if not isinstance(value, self.type):
            raise GeneratorError(
                "{} must be {}, got {} {!r}".format(
                    where, self.type.__name__,
                    type(value).__name__, value))
        if self.choices is not None and value not in self.choices:
            raise GeneratorError(
                "{} must be one of {}, got {!r}".format(
                    where, "/".join(str(c) for c in self.choices), value))
        if self.minimum is not None and value < self.minimum:
            raise GeneratorError(
                "{} must be >= {}, got {!r}".format(
                    where, self.minimum, value))
        if self.maximum is not None and value > self.maximum:
            raise GeneratorError(
                "{} must be <= {}, got {!r}".format(
                    where, self.maximum, value))
        return value

    def range_text(self):
        """Human-readable allowed space (for the generated catalog)."""
        if self.choices is not None:
            return "one of {}".format(
                ", ".join(str(c) for c in self.choices))
        if self.minimum is not None and self.maximum is not None:
            return "{} .. {}".format(self.minimum, self.maximum)
        if self.minimum is not None:
            return ">= {}".format(self.minimum)
        if self.maximum is not None:
            return "<= {}".format(self.maximum)
        return "any {}".format(self.type.__name__)

    def __repr__(self):
        return "Param({!r}, {}, default={!r})".format(
            self.name, self.type.__name__, self.default)


class GeneratorFamily:
    """One registered generator: a builder plus its parameter space.

    Instances are created by :func:`register_family`; user code reads
    them through :func:`family` / :func:`available_families` and
    elaborates through :func:`elaborate` (memoised) or
    :meth:`elaborate` here (always a fresh module).
    """

    def __init__(self, name, builder, params, catalog=(), paper=""):
        self.name = name
        self.builder = builder
        self.params = tuple(params)
        self.catalog = tuple(dict(c) for c in catalog)
        self.paper = paper
        self.site = _source_site(builder)
        self._by_name = {p.name: p for p in self.params}

    @property
    def doc(self):
        """First line of the builder's docstring."""
        text = (self.builder.__doc__ or "").strip()
        return text.splitlines()[0] if text else ""

    def spec(self, name):
        """The :class:`Param` spec for ``name`` (raises when unknown)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise GeneratorError(
                "family {!r} has no parameter {!r} (declared: {})".format(
                    self.name, name,
                    ", ".join(p.name for p in self.params) or "none",
                )) from None

    def normalize(self, params):
        """Defaults filled and every value validated; unknown parameter
        names raise :class:`~repro.errors.GeneratorError`."""
        for name in params:
            self.spec(name)  # unknown-parameter check with a clear error
        out = {}
        for p in self.params:
            value = params.get(p.name, p.default)
            if value is None:
                raise GeneratorError(
                    "{}.{} is required (no default declared)".format(
                        self.name, p.name))
            out[p.name] = p.validate(self.name, value)
        return out

    def key(self, **params):
        """The canonical (fully explicit, validated) key for ``params``."""
        return DesignKey(self.name, **self.normalize(params))

    def elaborate(self, library, **params):
        """Build a fresh :class:`~repro.netlist.core.Module` (never
        memoised -- the caller owns it and may mutate it)."""
        return self.builder(library, **self.normalize(params))

    def catalog_keys(self):
        """Canonical keys of the representative instantiations declared
        at registration (used by ``repro designs show`` and the
        generated catalog)."""
        return tuple(self.key(**entry) for entry in self.catalog)

    def __repr__(self):
        return "GeneratorFamily({!r}, params=[{}])".format(
            self.name, ", ".join(p.name for p in self.params))


_FAMILIES = {}

#: library -> {canonical DesignKey -> Module}; weak on the library so a
#: dropped corner library releases its elaborations.
_ELABORATED = weakref.WeakKeyDictionary()


def register_family(name, params=(), catalog=(), paper=""):
    """Parametrised decorator: register a generator family.

    ``params`` declares the family's parameter space as
    :class:`Param` entries; every elaboration validates against it.
    ``catalog`` lists representative parameter dicts rendered into the
    generated ``docs/designs.md``.  Registering an existing name raises
    :class:`~repro.errors.RegistryError` naming both registration sites.
    """

    def decorate(builder):
        existing = _FAMILIES.get(name)
        if existing is not None:
            raise RegistryError(
                "generator family {!r} is already registered at {} "
                "(duplicate registration at {})".format(
                    name, existing.site, _source_site(builder)))
        _FAMILIES[name] = GeneratorFamily(name, builder, params,
                                          catalog=catalog, paper=paper)
        return builder

    return decorate


def unregister_family(name):
    """Remove a registered family (test teardown helper).

    Built-in families are as removable as user ones -- the caller is
    expected to know what they are doing; memoised elaborations of the
    removed family stay alive only until their library is dropped.
    """
    if name not in _FAMILIES:
        raise GeneratorError(
            "cannot unregister unknown family {!r}".format(name))
    del _FAMILIES[name]


def available_families():
    """Sorted names of every registered generator family."""
    return sorted(_FAMILIES)


def has_family(name):
    """True when ``name`` is a registered generator family."""
    return name in _FAMILIES


def family(name):
    """The :class:`GeneratorFamily` for ``name``; raises when unknown."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise GeneratorError(
            "unknown generator family {!r} (available: {})".format(
                name, ", ".join(available_families()))) from None


def canonical_key(key):
    """``key`` with defaults filled and every parameter validated.

    Accepts a :class:`DesignKey` or a spec string; two keys addressing
    the same design canonicalise identically, which is what the
    elaboration memo and the artifact cache hash.
    """
    if isinstance(key, str):
        key = DesignKey.parse(key)
    return family(key.family).key(**key.params)


def elaborate(key, library, fresh=False):
    """The :class:`~repro.netlist.core.Module` for ``key`` on ``library``.

    Lazy and memoised: the first elaboration of a canonical key builds
    the netlist, later calls return the same module object (treat it as
    read-only -- every in-tree transform clones or splits into new
    modules).  ``fresh=True`` bypasses the memo in both directions and
    returns a private instance the caller may mutate.
    """
    canon = canonical_key(key)
    fam = family(canon.family)
    if fresh:
        return fam.builder(library, **canon.params)
    try:
        per_lib = _ELABORATED.setdefault(library, {})
    except TypeError:  # library without weakref support
        return fam.builder(library, **canon.params)
    module = per_lib.get(canon)
    if module is None:
        module = fam.builder(library, **canon.params)
        per_lib[canon] = module
    return module


def expand_family(name, **axes):
    """Design-space iteration: the cartesian product of parameter axes.

    Each keyword is a parameter name mapped to either one value or an
    iterable of values; unlisted parameters take their defaults.  Returns
    canonical :class:`DesignKey` objects in deterministic (row-major,
    declaration-ordered) order::

        expand_family("multiplier", n=[4, 8, 16, 32])
    """
    fam = family(name)
    ordered = []
    for p in fam.params:
        if p.name not in axes:
            continue
        values = axes.pop(p.name)
        if isinstance(values, (str, bytes)) or not hasattr(
                values, "__iter__"):
            values = (values,)
        ordered.append((p.name, tuple(values)))
    if axes:  # leftovers did not match any declared parameter
        fam.spec(sorted(axes)[0])
    keys = []
    for combo in itertools.product(*(vals for _, vals in ordered)):
        params = dict(zip((n for n, _ in ordered), combo))
        keys.append(fam.key(**params))
    return keys


# -- built-in families ---------------------------------------------------------

@register_family(
    "multiplier",
    params=(
        Param("n", int, default=16, minimum=1, maximum=128,
              doc="operand width in bits (the paper uses 16)"),
        Param("registered", bool, default=True,
              doc="register operand inputs and product outputs"),
    ),
    catalog=({"n": 4}, {"n": 8}, {"n": 16}),
    paper="DATE 2011 case study 1 (generalised NxN)")
def _build_multiplier_family(library, n, registered):
    """NxN registered array multiplier (carry-save rows, ripple finish)."""
    from .multiplier import build_mult16

    return build_mult16(library, width=n, registered=registered)


@register_family(
    "adder",
    params=(
        Param("width", int, default=32, minimum=2, maximum=256,
              doc="operand width in bits"),
        Param("kind", str, default="select",
              choices=("ripple", "select"),
              doc="carry structure: ripple chain or carry-select"),
        Param("block", int, default=8, minimum=2, maximum=64,
              doc="ripple block size of the carry-select variant"),
        Param("registered", bool, default=True,
              doc="register operands and the sum"),
    ),
    catalog=({"width": 16, "kind": "ripple"}, {"width": 32},
             {"width": 64, "block": 16}),
    paper="adder-tree scenario family")
def _build_adder_family(library, width, kind, block, registered):
    """Registered two-operand adder: ripple or carry-select carry path."""
    from .adders import carry_select_adder, ripple_adder
    from .builder import CircuitBuilder

    module = Module("add_{}{}".format(kind, width))
    b = CircuitBuilder(module, library)
    clk = module.add_input("clk") if registered else None
    a_in = b.input_bus("a", width)
    x_in = b.input_bus("b", width)
    sum_out = b.output_bus("s", width)
    carry_out = module.add_output("co")
    if registered:
        a = b.register(a_in, clk, name="ra")
        x = b.register(x_in, clk, name="rb")
    else:
        a, x = a_in, x_in
    if kind == "ripple":
        sums, carry = ripple_adder(b, a, x)
    else:
        sums, carry = carry_select_adder(b, a, x, block=block)
    if registered:
        b.register(sums, clk, q=sum_out, name="rs")
        b.dff(carry, clk, q=carry_out, name="rs_co")
    else:
        for net, port in zip(sums, sum_out):
            b.buf(net, y=port)
        b.buf(carry, y=carry_out)
    return module


@register_family(
    "regfile_alu",
    params=(
        Param("nregs", int, default=8, choices=(2, 4, 8, 16, 32),
              doc="register count (write-decoder wants a power of two)"),
        Param("width", int, default=16, minimum=2, maximum=64,
              doc="register and datapath width in bits"),
    ),
    catalog=({"nregs": 4, "width": 8}, {"nregs": 8, "width": 16}),
    paper="M0-lite execute-stage slice, parameterised")
def _build_regfile_alu_family(library, nregs, width):
    """Register-file + ALU execute-stage slice with result writeback."""
    import math

    from .alu import ALU_OPS, add_alu
    from .builder import CircuitBuilder
    from .regfile import add_register_file

    abits = max(1, int(math.log2(nregs)))
    sbits = max(1, math.ceil(math.log2(width)))
    module = Module("rfalu{}x{}".format(nregs, width))
    b = CircuitBuilder(module, library)
    clk = module.add_input("clk")
    we = module.add_input("we")
    waddr = b.input_bus("waddr", abits)
    raddr_a = b.input_bus("ra", abits)
    raddr_b = b.input_bus("rb", abits)
    ops = {op: module.add_input("op_" + op) for op in ALU_OPS}
    ops["shift_left"] = module.add_input("shift_left")
    ops["shift_arith"] = module.add_input("shift_arith")
    y = b.output_bus("y", width)

    # Read ports feed the ALU; the ALU result writes back through the
    # register file's single write port (a one-instruction datapath).
    result_d = b.bus("alu_d", width)
    rdata_a, rdata_b = add_register_file(b, clk, waddr, result_d, we,
                                         raddr_a, raddr_b)
    shamt = rdata_b[:sbits]
    result, flags = add_alu(b, rdata_a, rdata_b, shamt, ops)
    for net, d in zip(result, result_d):
        b.buf(net, y=d)
    for net, port in zip(result, y):
        b.buf(net, y=port)
    for fname in ("n", "z", "c", "v"):
        b.buf(flags[fname], y=module.add_output("f" + fname))
    return module


@register_family(
    "pipeline",
    params=(
        Param("depth", int, default=4, minimum=1, maximum=32,
              doc="pipeline stages (registers between transforms)"),
        Param("width", int, default=16, minimum=2, maximum=128,
              doc="datapath width in bits"),
    ),
    catalog=({"depth": 2, "width": 8}, {"depth": 4, "width": 16},
             {"depth": 8, "width": 16}),
    paper="pipeline-depth sweep scenario family")
def _build_pipeline_family(library, depth, width):
    """Counter/rotate pipeline: stage 0 free-runs, each later stage
    registers increment(prev) XOR rotate-left(prev)."""
    from .adders import ripple_incrementer
    from .builder import CircuitBuilder

    module = Module("pipe{}x{}".format(depth, width))
    b = CircuitBuilder(module, library)
    clk = module.add_input("clk")
    q_out = b.output_bus("q", width)

    # Stage 0: the free-running counter that feeds the pipe.
    head = b.bus("s0", width)
    inc, _ = ripple_incrementer(b, head)
    b.register(inc, clk, q=head, name="s0r")

    prev = head
    for stage in range(1, depth):
        inc, _ = ripple_incrementer(b, prev)
        rot = [prev[-1]] + list(prev[:-1])
        mixed = b.xor_bus(inc, rot)
        prev = b.register(mixed, clk, name="s{}r".format(stage))
    for net, port in zip(prev, q_out):
        b.buf(net, y=port)
    return module


@register_family(
    "fir",
    params=(
        Param("taps", int, default=4, minimum=1, maximum=32,
              doc="filter taps (multiply-accumulate stages)"),
        Param("width", int, default=8, minimum=2, maximum=32,
              doc="sample/coefficient width in bits (modulo arithmetic)"),
    ),
    catalog=({"taps": 2, "width": 4}, {"taps": 4, "width": 8}),
    paper="FIR/MAC datapath scenario family")
def _build_fir_family(library, taps, width):
    """Transposed-form FIR/MAC: per-tap multiplier into an adder/register
    accumulation chain (arithmetic modulo ``2**width``)."""
    from .adders import ripple_adder
    from .alu import lower_half_multiplier
    from .builder import CircuitBuilder

    module = Module("fir{}x{}".format(taps, width))
    b = CircuitBuilder(module, library)
    clk = module.add_input("clk")
    x_in = b.input_bus("x", width)
    coeffs = [b.input_bus("c{}".format(k), width) for k in range(taps)]
    y_out = b.output_bus("y", width)

    x = b.register(x_in, clk, name="rx")
    chain = None  # transposed chain: farthest tap first
    for k in reversed(range(taps)):
        product = lower_half_multiplier(b, x, coeffs[k])
        if chain is None:
            acc = product
        else:
            acc, _ = ripple_adder(b, product, chain)
        chain = b.register(acc, clk, name="acc{}".format(k))
    for net, port in zip(chain, y_out):
        b.buf(net, y=port)
    return module


@register_family(
    "m0lite",
    params=(),
    catalog=({},),
    paper="DATE 2011 case study 2 substitute (Cortex-M0 class core)")
def _build_m0lite_family(library):
    """The 3-stage M0-lite RISC core (the paper's case study 2)."""
    from .m0lite import build_m0lite

    return build_m0lite(library)


@register_family(
    "counter",
    params=(
        Param("width", int, default=8, minimum=1, maximum=128,
              doc="counter width in bits"),
    ),
    catalog=({"width": 8}, {"width": 16}),
    paper="stimulus/ablation helper")
def _build_counter_family(library, width):
    """Free-running binary up-counter."""
    from .counters import build_counter

    return build_counter(library, width=width)


@register_family(
    "lfsr",
    params=(
        Param("width", int, default=16, choices=(4, 8, 16, 24, 32),
              doc="shift-register width (widths with a tap table)"),
    ),
    catalog=({"width": 8}, {"width": 16}),
    paper="pseudo-random stimulus generator")
def _build_lfsr_family(library, width):
    """Maximal-length Fibonacci LFSR (XNOR form, self-starting)."""
    from .counters import build_lfsr

    return build_lfsr(library, width=width)
