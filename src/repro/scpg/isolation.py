"""Isolation insertion and the Fig. 3 adaptive isolation controller.

Traditional power gating sequences isolation from a controller state
machine; SCPG gates within the cycle, so no state machine can time the
clamps.  The paper's Fig. 3 circuit derives the isolation control from the
clock and the virtual rail itself (sensed through a TIEHI cell placed in
the power-gated domain)::

    ISOLATE = clock OR NOT(VDDV_sense)

-- isolation asserts as soon as the clock rises (power about to drop) and
releases only when the virtual rail is back at logic 1 (clock low AND rail
restored).  Functionally the TIEHI reads as constant 1, so the simulated
behaviour degenerates to clock-synchronous clamping; the electrical
release delay is carried by the timing model's ``T_PGStart``.
"""

from __future__ import annotations

from ..errors import ScpgError
#: Clamp styles: cell name and value the output is clamped to.
CLAMP_CELLS = {"low": "ISO_AND_X1", "high": "ISO_OR_X1"}


def add_rail_sense(comb_module, library, port_name="vddv_sense"):
    """Place a TIEHI in the gated module and export it as a port (Fig. 3
    senses VDDV through it).  Returns the port name."""
    if comb_module.has_port(port_name):
        raise ScpgError("module already has a {} port".format(port_name))
    net = comb_module.add_output(port_name)
    comb_module.add_instance(
        "u_vddv_tie", library.cell("TIEHI_X1"), {"Y": net}
    )
    return port_name


def build_isolation_controller(top, library, clk_net, vddv_net,
                               prefix="u_isoctl"):
    """Emit the Fig. 3 controller into ``top``; returns the ISOLATE net."""
    inv_out = top.add_net("vddv_n")
    iso_net = top.add_net("isolate")
    top.add_instance(
        prefix + "_inv", library.cell("INV_X1"),
        {"A": vddv_net, "Y": inv_out},
    )
    top.add_instance(
        prefix + "_or", library.cell("OR2_X1"),
        {"A": clk_net, "B": inv_out, "Y": iso_net},
    )
    return iso_net


def controller_delay(library, vdd=None):
    """Isolation-release delay of the Fig. 3 circuit (INV + OR2), s."""
    scale = library.delay_scale(vdd) if vdd is not None else 1.0
    inv = library.cell("INV_X1")
    orr = library.cell("OR2_X1")
    # Small fanout assumption: a couple of pin loads each.
    load = 2 * library.wire_cap_per_fanout + 2e-15
    return (inv.delay(load) + orr.delay(load)) * scale


def insert_isolation(top, nets, library, iso_net, clamp="low",
                     prefix="u_iso"):
    """Clamp each net in ``nets`` (names or Net objects) with an isolation
    cell controlled by ``iso_net``.

    The clamp is spliced at the driver side: the raw domain output moves to
    a new ``<name>_raw`` net and the isolation cell re-drives the original
    net, so every existing load -- flop D pins and output ports alike --
    now sees the clamped value.  Returns the inserted instances.
    """
    cell = library.cell(CLAMP_CELLS[clamp])
    inserted = []
    for i, net in enumerate(nets):
        if isinstance(net, str):
            net = top.net(net)
        driver = net.driver
        if not isinstance(driver, tuple):
            raise ScpgError(
                "cannot isolate net {} (no instance driver)".format(net.name))
        raw = top.add_net(net.name + "_raw")
        top.reconnect(*driver, raw)
        inst = top.add_instance(
            "{}_{}".format(prefix, i), cell,
            {"A": raw, "ISO": iso_net, "Y": net},
        )
        inserted.append(inst)
    return inserted
