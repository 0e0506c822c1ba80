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
import itertools

from ..errors import NetlistError
from ..obs.trace import layer
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
        net = self._new_net(name)
        self.generation += 1
        return net

    def _new_net(self, name):
        if name in self._nets:
            raise NetlistError(
                "module {} already has net {}".format(self.name, name)
            )
        net = self._nets[name] = Net(name, self)
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

    def copy(self):
        """A private copy of this module: nets, ports, instances, drivers,
        load order, constants and auto-naming mirrored, so every analysis
        of the copy equals the original's.  Submodules are shared; editing
        the copy leaves this module and its derived caches alone."""
        out = Module(self.name)
        out._uid = self._uid
        net_of = {}
        _copy_nets(out, self._nets.values(), net_of)
        out.ports = [Port(p.name, p.direction, out, net_of[p.net])
                     for p in self.ports]
        out._port_index = {p.name: p for p in out.ports}
        image_of = dict(zip(self.ports, out.ports))  # ports and instances
        image_of.update(zip(self._instances.values(), _copy_instances(
            out, self._instances.values(), net_of, wire=False)))
        for net, image in net_of.items():
            driver = net.driver
            if driver is not None:
                image.driver = (image_of[driver[0]], driver[1]) \
                    if type(driver) is tuple else image_of[driver]
            image.loads = [(image_of[load[0]], load[1])
                           if type(load) is tuple else image_of[load]
                           for load in net.loads]
        return out

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

    def copy(self):
        """A private copy of this design for in-place editors: the top
        module is :meth:`Module.copy`-ed, submodules are shared."""
        return Design(self.top.copy(), self.library)

    @layer("netlist.flatten")
    def flatten(self, name=None):
        """Return a new single-module :class:`Design` with the hierarchy
        expanded.  Instance and internal net names are prefixed with their
        path (``u_comb/u1``)."""
        flat = Module(name or self.top.name + "_flat")
        net_of = {}
        for port in self.top.ports:
            net_of[port.net] = flat.add_port(port.name, port.direction).net
        self._flatten_into(flat, self.top, "", net_of)
        return Design(flat, self.library)

    def _flatten_into(self, flat, module, prefix, net_of):
        _copy_nets(flat, module._nets.values(), net_of, prefix)
        for is_cell, group in itertools.groupby(
                module._instances.values(), key=lambda i: i.is_cell):
            if is_cell:
                _copy_instances(flat, group, net_of, prefix)
                continue
            for inst in group:
                sub_prefix = prefix + inst.name + "/"
                # Bind submodule port nets to the nets of this level; an
                # unconnected port gets a private net image.
                sub_map = {}
                for port in inst.submodule.ports:
                    outer = inst.connections.get(port.name)
                    sub_map[port.net] = (
                        flat._new_net(sub_prefix + port.name)
                        if outer is None else net_of[outer])
                self._flatten_into(flat, inst.submodule, sub_prefix,
                                   sub_map)

    def __repr__(self):
        return "Design(top={}, {} modules)".format(
            self.top.name, len(self.modules)
        )


# -- the bulk copier (Module.copy, Design.flatten, split_combinational and
# remap_cells): identity maps from source nets to images, connections,
# drivers and loads written directly -- no connect, no per-pin lookup.


def _copy_nets(dst, nets, net_of, prefix=""):
    """Give each of ``nets`` missing from ``net_of`` an image in ``dst``:
    ``dst``'s constant net for a constant, else a new net named
    ``prefix + name``."""
    for net in nets:
        if net not in net_of:
            net_of[net] = (
                dst._new_net(prefix + net.name) if net.const_value is None
                else dst.const(net.const_value))


def _copy_instances(dst, instances, net_of, prefix="", cell_map=None,
                    wire=True):
    """Images of ``instances`` in ``dst``, named ``prefix + name``, cells
    swapped by name per ``cell_map``, connected through ``net_of`` (a
    constant missing from it maps to ``dst``'s at first use).  ``wire``
    (cells only) sets drivers and appends loads in instance order;
    otherwise the caller writes them."""
    taken = dst._instances
    images = []
    for inst in instances:
        cell = inst.cell
        if cell_map and cell is not None:
            cell = cell_map.get(cell.name, cell)
        name = prefix + inst.name
        if name in taken:
            raise NetlistError("module {} already has instance {}".format(
                dst.name, name))
        image = taken[name] = Instance(name, dst, cell, inst.submodule)
        images.append(image)
        if not wire:
            image.connections = {pin: net_of[net]
                                 for pin, net in inst.connections.items()}
            continue
        outs = cell.output_names
        conns = image.connections
        for pin, net in inst.connections.items():
            target = net_of.get(net)
            if target is None:
                target = net_of[net] = dst.const(net.const_value)
            conns[pin] = target
            if pin in outs:
                target._set_driver((image, pin))
            else:
                target.loads.append((image, pin))
    return images
