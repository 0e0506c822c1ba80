"""Core netlist object model: designs, modules, nets, ports, instances.

Connectivity is maintained eagerly: every :class:`Net` knows its single
driver (an instance output pin, an input port, or a constant) and its loads,
so traversals and timing/power engines never search.  Multiple drivers are
rejected at construction time -- shorted outputs are a netlist bug in this
technology (no tristates in scl90).

Hierarchy is supported to the depth the SCPG flow needs: a module may
instantiate other modules, and :meth:`Design.flatten` expands the hierarchy
into a single module with ``/``-separated instance names.
"""

from __future__ import annotations

import enum

from ..errors import NetlistError
from ..tech.library import Library, PinDirection


class PortDirection(enum.Enum):
    """Direction of a module port."""

    INPUT = "input"
    OUTPUT = "output"


class Net:
    """A wire inside a module.

    ``driver`` is ``None`` (undriven), a ``(instance, pin_name)`` tuple, a
    ``Port`` (input ports drive their net), or the marker string ``"const"``
    together with :attr:`const_value`.
    """

    __slots__ = ("name", "module", "driver", "loads", "const_value")

    def __init__(self, name, module):
        self.name = name
        self.module = module
        self.driver = None
        self.loads = []  # list of (instance, pin_name) or Port (output ports)
        self.const_value = None

    @property
    def is_const(self):
        """True for constant 0/1 nets."""
        return self.const_value is not None

    @property
    def is_driven(self):
        """True when the net has a driver or is a constant."""
        return self.driver is not None or self.is_const

    def fanout(self):
        """Number of load connections."""
        return len(self.loads)

    def _set_driver(self, driver):
        if self.is_const:
            raise NetlistError(
                "net {} is constant and cannot be driven".format(self.name)
            )
        if self.driver is not None:
            raise NetlistError(
                "net {} has multiple drivers".format(self.name)
            )
        self.driver = driver

    def __repr__(self):
        return "Net({})".format(self.name)


class Port:
    """A module port; owns (is attached to) a same-named net."""

    __slots__ = ("name", "direction", "module", "net")

    def __init__(self, name, direction, module, net):
        self.name = name
        self.direction = direction
        self.module = module
        self.net = net

    def __repr__(self):
        return "Port({}, {})".format(self.name, self.direction.value)


class Instance:
    """An instantiation of a library cell or of another module.

    Exactly one of :attr:`cell` / :attr:`submodule` is set.  ``connections``
    maps formal pin/port names to :class:`Net` objects.
    """

    __slots__ = ("name", "module", "cell", "submodule", "connections")

    def __init__(self, name, module, cell=None, submodule=None):
        if (cell is None) == (submodule is None):
            raise NetlistError(
                "instance {} must reference exactly one of cell/submodule"
                .format(name)
            )
        self.name = name
        self.module = module
        self.cell = cell
        self.submodule = submodule
        self.connections = {}

    @property
    def is_cell(self):
        """True when this instantiates a library cell."""
        return self.cell is not None

    @property
    def ref_name(self):
        """Name of the referenced cell or module."""
        return self.cell.name if self.cell else self.submodule.name

    def net(self, pin_name):
        """Net connected to ``pin_name`` (``None`` if unconnected)."""
        return self.connections.get(pin_name)

    def output_pins(self):
        """Formal names of output pins/ports of the reference."""
        if self.cell:
            return self.cell.output_names
        return [
            p.name
            for p in self.submodule.ports
            if p.direction is PortDirection.OUTPUT
        ]

    def input_pins(self):
        """Formal names of input pins/ports of the reference."""
        if self.cell:
            return self.cell.input_names
        return [
            p.name
            for p in self.submodule.ports
            if p.direction is PortDirection.INPUT
        ]

    def _pin_is_output(self, pin_name):
        if self.cell:
            return self.cell.pin(pin_name).direction is PinDirection.OUTPUT
        return (
            self.submodule.port(pin_name).direction is PortDirection.OUTPUT
        )

    def __repr__(self):
        return "Instance({} of {})".format(self.name, self.ref_name)


class Module:
    """A netlist module: ports, nets and instances.

    ``generation`` counts structural edits: every construction method
    below bumps it.  Analyses derived from the netlist alone (the
    levelization, the activity estimate, net capacitances, lowerings,
    the compiled schedule) are cached on the module through
    :meth:`derived`, which drops the cache once the generation moves.
    """

    def __init__(self, name):
        self.name = name
        self.ports = []
        self._nets = {}
        self._instances = {}
        self._const_nets = {}
        self._port_index = {}
        self._uid = 0
        self.generation = 0
        self._derived = (0, {})

    def __getstate__(self):
        """Pickle without the derived-analysis cache."""
        state = dict(self.__dict__)
        state["_derived"] = (self.generation, {})
        return state

    def derived(self, key, build):
        """``build(self)``, cached on this module under ``key``.

        The cache belongs to one ``generation``: the first lookup after
        an edit starts it afresh.  A ``build`` that raises caches
        nothing, so it raises again on the next lookup.
        """
        generation, cache = self._derived
        if generation != self.generation:
            cache = {}
            self._derived = (self.generation, cache)
        if key not in cache:
            cache[key] = build(self)
        return cache[key]

    # -- construction ---------------------------------------------------------

    def add_port(self, name, direction):
        """Create a port and its net; returns the :class:`Port`."""
        if name in self._port_index:
            raise NetlistError(
                "module {} already has port {}".format(self.name, name)
            )
        net = self.add_net(name)
        port = Port(name, direction, self, net)
        self.ports.append(port)
        self._port_index[name] = port
        if direction is PortDirection.INPUT:
            net._set_driver(port)
        else:
            net.loads.append(port)
        self.generation += 1
        return port

    def add_input(self, name):
        """Shorthand for an input port; returns its :class:`Net`."""
        return self.add_port(name, PortDirection.INPUT).net

    def add_output(self, name):
        """Shorthand for an output port; returns its :class:`Net`."""
        return self.add_port(name, PortDirection.OUTPUT).net

    def add_net(self, name=None):
        """Create a net (auto-named ``n<k>`` when ``name`` is ``None``)."""
        if name is None:
            while True:
                name = "n{}".format(self._uid)
                self._uid += 1
                if name not in self._nets:
                    break
        if name in self._nets:
            raise NetlistError(
                "module {} already has net {}".format(self.name, name)
            )
        net = Net(name, self)
        self._nets[name] = net
        self.generation += 1
        return net

    def const(self, value):
        """The shared constant-0 or constant-1 net of this module."""
        value = int(value)
        if value not in (0, 1):
            raise NetlistError("constant must be 0 or 1")
        if value not in self._const_nets:
            net = self.add_net("const{}".format(value))
            net.const_value = value
            self._const_nets[value] = net
        return self._const_nets[value]

    def add_instance(self, name, ref, connections, library=None):
        """Instantiate ``ref`` (a Cell, Module, or cell name looked up in
        ``library``) with ``connections`` mapping pin names to nets or net
        names.  Returns the :class:`Instance`.
        """
        if name in self._instances:
            raise NetlistError(
                "module {} already has instance {}".format(self.name, name)
            )
        if isinstance(ref, str):
            if library is None:
                raise NetlistError(
                    "cell name {!r} needs a library to resolve".format(ref)
                )
            ref = library.cell(ref)
        if isinstance(ref, Module):
            inst = Instance(name, self, submodule=ref)
        else:
            inst = Instance(name, self, cell=ref)
        for pin_name, net in connections.items():
            self.connect(inst, pin_name, net)
        self._instances[name] = inst
        self.generation += 1
        return inst

    def _own_net(self, net):
        """``net`` (a Net or net name) as a net of this module."""
        if isinstance(net, str):
            net = self.net(net)
        if net.module is not self:
            raise NetlistError(
                "net {} belongs to module {}, not {}".format(
                    net.name, net.module.name, self.name
                )
            )
        return net

    def connect(self, inst, pin_name, net):
        """Attach ``net`` (a Net or net name) to ``inst.pin_name``."""
        net = self._own_net(net)
        if pin_name in inst.connections:
            raise NetlistError(
                "instance {} pin {} already connected".format(
                    inst.name, pin_name
                )
            )
        # Raises LibraryError/NetlistError for unknown pins:
        is_output = inst._pin_is_output(pin_name)
        inst.connections[pin_name] = net
        if is_output:
            net._set_driver((inst, pin_name))
        else:
            net.loads.append((inst, pin_name))
        self.generation += 1

    def reconnect(self, inst, pin_name, net):
        """Move ``inst.pin_name`` from its current net onto ``net``.

        An input pin leaves the old net's loads (the others keep their
        order) and joins the end of ``net``'s; an output pin hands the
        old net's driver over to ``net``.  An unconnected pin is simply
        connected.
        """
        net = self._own_net(net)
        old = inst.connections.pop(pin_name, None)
        if old is not None:
            if old.driver == (inst, pin_name):
                old.driver = None
            else:
                old.loads.remove((inst, pin_name))
        self.connect(inst, pin_name, net)

    def remove_instance(self, name):
        """Remove an instance and detach its connections."""
        inst = self._instances.pop(name)
        for pin_name, net in inst.connections.items():
            if net.driver == (inst, pin_name):
                net.driver = None
            else:
                net.loads = [
                    l for l in net.loads if l != (inst, pin_name)
                ]
        self.generation += 1
        return inst

    # -- queries --------------------------------------------------------------

    def net(self, name):
        """Net by name; raises :class:`NetlistError` when unknown."""
        try:
            return self._nets[name]
        except KeyError:
            raise NetlistError(
                "module {} has no net {}".format(self.name, name)
            ) from None

    def has_net(self, name):
        """True when a net of that name exists."""
        return name in self._nets

    def nets(self):
        """All nets in insertion order."""
        return list(self._nets.values())

    def port(self, name):
        """Port by name; raises :class:`NetlistError` when unknown."""
        try:
            return self._port_index[name]
        except KeyError:
            raise NetlistError(
                "module {} has no port {}".format(self.name, name)
            ) from None

    def has_port(self, name):
        """True when a port of that name exists."""
        return name in self._port_index

    def input_ports(self):
        """Input ports in declaration order."""
        return [p for p in self.ports if p.direction is PortDirection.INPUT]

    def output_ports(self):
        """Output ports in declaration order."""
        return [p for p in self.ports if p.direction is PortDirection.OUTPUT]

    def instance(self, name):
        """Instance by name; raises :class:`NetlistError` when unknown."""
        try:
            return self._instances[name]
        except KeyError:
            raise NetlistError(
                "module {} has no instance {}".format(self.name, name)
            ) from None

    def instances(self):
        """All instances in insertion order."""
        return list(self._instances.values())

    def cell_instances(self):
        """Instances of library cells only."""
        return [i for i in self._instances.values() if i.is_cell]

    def submodule_instances(self):
        """Instances of other modules only."""
        return [i for i in self._instances.values() if not i.is_cell]

    def __repr__(self):
        return "Module({}, {} instances, {} nets)".format(
            self.name, len(self._instances), len(self._nets)
        )


class Design:
    """A top module, its library, and any referenced modules."""

    def __init__(self, top, library):
        if not isinstance(library, Library):
            raise NetlistError("design needs a Library")
        self.top = top
        self.library = library
        self.modules = {top.name: top}
        self._register_submodules(top)

    def _register_submodules(self, module):
        for inst in module.submodule_instances():
            sub = inst.submodule
            existing = self.modules.get(sub.name)
            if existing is not None and existing is not sub:
                raise NetlistError(
                    "two different modules named {}".format(sub.name)
                )
            if existing is None:
                self.modules[sub.name] = sub
                self._register_submodules(sub)

    def flatten(self, name=None):
        """Return a new single-module :class:`Design` with the hierarchy
        expanded.  Instance and internal net names are prefixed with their
        path (``u_comb/u1``)."""
        flat = Module(name or self.top.name + "_flat")
        net_map = {}
        for port in self.top.ports:
            new_net = flat.add_port(port.name, port.direction).net
            net_map[id(port.net)] = new_net
        self._flatten_into(flat, self.top, "", net_map)
        return Design(flat, self.library)

    def _flatten_into(self, flat, module, prefix, net_map):
        # Create images of all internal nets not already mapped.
        for net in module.nets():
            if id(net) in net_map:
                continue
            if net.is_const:
                net_map[id(net)] = flat.const(net.const_value)
            else:
                net_map[id(net)] = flat.add_net(prefix + net.name)
        for inst in module.instances():
            if inst.is_cell:
                name = prefix + inst.name
                if name in flat._instances:
                    raise NetlistError(
                        "flattening {}: two instances flatten to {}".format(
                            self.top.name, name))
                new = Instance(name, flat, cell=inst.cell)
                flat._instances[name] = new
                for pin_name, net in inst.connections.items():
                    target = net_map[id(net)]
                    new.connections[pin_name] = target
                    if inst._pin_is_output(pin_name):
                        target._set_driver((new, pin_name))
                    else:
                        target.loads.append((new, pin_name))
            else:
                sub = inst.submodule
                sub_prefix = prefix + inst.name + "/"
                sub_map = dict()
                # Bind submodule port nets to the nets of this level.
                for port in sub.ports:
                    outer = inst.connections.get(port.name)
                    if outer is None:
                        # Unconnected port: give it a private net image.
                        sub_map[id(port.net)] = flat.add_net(
                            sub_prefix + port.name
                        )
                    else:
                        sub_map[id(port.net)] = net_map[id(outer)]
                self._flatten_into(flat, sub, sub_prefix, sub_map)

    def __repr__(self):
        return "Design(top={}, {} modules)".format(
            self.top.name, len(self.modules)
        )
