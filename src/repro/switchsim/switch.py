"""The programmable ToR switch.

:class:`ProgrammableSwitch` owns ports (links to hosts), a plain
L2/L3 routing function, and at most one installed
:class:`SwitchProgram` — the custom data-plane logic compiled into the
pipeline.  Packets the program does not claim are forwarded by routing
alone, which is how NetClone coexists with normal traffic (§3.2).

Timing model:

* ``pipeline_latency_ns`` per pass (the paper: "hundreds of
  nanoseconds");
* ``recirc_latency_ns`` extra for a loop through a port in loopback
  mode (§3.4's recirculation);
* egress serialisation is handled by the outgoing
  :class:`~repro.net.link.Link`.

Failure model (§5.6.4): :meth:`fail` makes the switch drop everything;
:meth:`recover` brings it back after a re-initialisation delay, with
**all register state cleared** — NetClone must survive on soft state
alone, which the Figure 16 experiment demonstrates.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Dict, Optional

from repro.errors import PortError, SwitchError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.sim.monitor import Counter
from repro.switchsim.pipeline import PassContext, Pipeline, PipelineAction

__all__ = ["ProgrammableSwitch", "SwitchProgram"]


class SwitchProgram:
    """Base class for custom data-plane programs."""

    #: The pipeline this program was compiled into.
    pipeline: Pipeline

    #: Optional statically-verified per-packet path: a callable
    #: ``fast_apply(packet, switch) -> Optional[PipelineAction]``
    #: equivalent to ``matches`` + ``apply`` (unclaimed packets return
    #: ``None``) but licensed (via :meth:`Pipeline.compile_plan`) to
    #: skip the per-packet :class:`PassContext` checks.  ``None`` means
    #: "use ``matches`` + ``apply``".
    fast_apply = None

    def matches(self, packet: Packet) -> bool:
        """Whether *packet* should be processed by this program."""
        raise NotImplementedError

    def apply(self, packet: Packet, ctx: PassContext, switch: "ProgrammableSwitch") -> Optional[PipelineAction]:
        """Process one pipeline pass of *packet*.

        May return ``None`` as the plain-forward fast path: the switch
        routes the (possibly rewritten) packet with no drop, no copies
        and no explicit egress port — without materialising a
        :class:`PipelineAction` for the common case.
        """
        raise NotImplementedError

    def on_register_wipe(self) -> None:
        """Hook invoked when the switch loses state (power cycle)."""


class ProgrammableSwitch:
    """A single-pipeline programmable switch with recirculation."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "tor",
        pipeline_latency_ns: int = 400,
        recirc_latency_ns: int = 700,
        num_ports: int = 64,
    ):
        if num_ports <= 0:
            raise PortError("switch needs at least one port")
        self.sim = sim
        self.name = name
        self.pipeline_latency_ns = pipeline_latency_ns
        self.recirc_latency_ns = recirc_latency_ns
        self.num_ports = num_ports
        self.ports: Dict[int, Link] = {}
        #: Reverse map of ``ports`` keyed by link identity — the
        #: per-packet ingress-port lookup must not scan.
        self._port_by_link: Dict[int, int] = {}
        #: Destination ip → egress port, or → a per-packet selector
        #: callable (see :meth:`install_dynamic_route`).
        self.routes: Dict[int, Any] = {}
        #: Destination ip → ``(link, sends_as_a)``, for static routes
        #: only — the egress fast path resolves one dict get instead of
        #: route + port maps, and knows its link direction up front.
        self._link_for_ip: Dict[int, Any] = {}
        self.program: Optional[SwitchProgram] = None
        #: Cached ``program.fast_apply`` (resolved at install time so
        #: the per-packet dispatch is one attribute load, not a
        #: getattr with default).
        self._fast_apply = None
        self.counters = Counter()
        # Per-packet counter sites bump the underlying dict directly;
        # ``Counter.reset`` clears in place, so the alias stays valid.
        self._counts = self.counters._counts
        self.down = False
        #: Opt-in express forwarding: set by fabrics whose failure-free
        #: drills allow the upstream switch to precompute this switch's
        #: pass at booking time (see :meth:`_egress`'s express block).
        #: Never set on switches that can fail mid-run — express books
        #: packets past the switch before a power-off could catch them.
        self._express_ok = False
        # Failure generation: a recovery scheduled before a later
        # fail() must not power the switch back on (flap drills).
        self._power_epoch = 0

    # ------------------------------------------------------------------
    # Wiring (used by StarTopology)
    # ------------------------------------------------------------------
    def connect(self, port: int, link: Link) -> None:
        """Attach *link* to *port*."""
        if not 0 <= port < self.num_ports:
            raise PortError(f"port {port} out of range (0..{self.num_ports - 1})")
        if port in self.ports:
            raise PortError(f"port {port} already connected")
        self.ports[port] = link
        self._port_by_link[id(link)] = port
        # The fused ingress path reads the port straight off the link.
        if link.a is self:
            link._port_a = port
        else:
            link._port_b = port

    def install_route(self, ip: int, port: int) -> None:
        """Map destination *ip* to egress *port* (L3 route)."""
        if port not in self.ports:
            raise PortError(f"cannot route to unconnected port {port}")
        self.routes[ip] = port
        link = self.ports[port]
        self._link_for_ip[ip] = (link, link.a is self)

    def install_dynamic_route(self, ip: int, selector: Any) -> None:
        """Map destination *ip* to a per-packet port chooser.

        *selector* is called as ``selector(packet) -> Optional[int]``
        at egress time, so multipath fabrics can pick among several
        uplinks per packet (ECMP, least-loaded, flowlet — see
        :mod:`repro.net.topology`).  Returning ``None`` or an
        unconnected port drops the packet via the ``no_route`` counter,
        exactly like a missing static route.
        """
        if not callable(selector):
            raise SwitchError("dynamic route selector must be callable")
        self.routes[ip] = selector
        self._link_for_ip.pop(ip, None)

    def remove_route(self, ip: int) -> None:
        """Remove the route for *ip* (e.g. failed server)."""
        self.routes.pop(ip, None)
        self._link_for_ip.pop(ip, None)

    def install_program(self, program: SwitchProgram) -> None:
        """Load *program* into the data plane."""
        if self.program is not None:
            raise SwitchError(f"{self.name} already has a program installed")
        self.program = program
        self._fast_apply = getattr(program, "fast_apply", None)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet, link: Link) -> None:
        """Entry point for packets arriving from a link."""
        if self.down:
            self.counters.incr("rx_dropped_down")
            packet.release()
            return
        port = self._port_by_link.get(id(link))
        if port is None:
            raise PortError(f"{self.name}: packet arrived on unknown link {link.name}")
        packet.ingress_port = port
        packet.recirculated = False
        self._counts["rx"] += 1
        self.sim.call_after(self.pipeline_latency_ns, self._run_pass, packet)

    def link_ingress(self, packet: Packet, link: Link) -> None:
        """Fused arrival + pipeline pass, one event per switch hop.

        :class:`~repro.net.link.Link` schedules this directly at
        ``arrival + pipeline_latency_ns``, so the per-hop deliver event
        (whose only job was to schedule the pass) disappears.  Ingress
        bookkeeping and the down check consequently happen at pass
        time: a packet in flight into the pipeline when the switch
        powers off counts as ``rx_dropped_down`` rather than
        ``rx`` + ``dropped_down`` — either way it died with the power,
        and ``rx == tx + dropped_down + no_route`` still holds.
        """
        if self.down:
            self._counts["rx_dropped_down"] += 1
            packet.release()
            return
        port = link._port_a if link.a is self else link._port_b
        if port is None:
            raise PortError(f"{self.name}: packet arrived on unknown link {link.name}")
        packet.ingress_port = port
        packet.recirculated = False
        self._counts["rx"] += 1
        fast = self._fast_apply
        if fast is not None:
            action = fast(packet, self)
        else:
            program = self.program
            if program is not None and program.matches(packet):
                action = program.apply(packet, program.pipeline.new_pass(), self)
            else:
                action = None
        # ``None`` is the plain-forward fast path: route the (possibly
        # rewritten, or unclaimed) packet, no copies, no drop.
        if action is None:
            self._egress(packet, None)
        else:
            self._apply_action(packet, action)

    def _port_of_link(self, link: Link) -> int:
        port = self._port_by_link.get(id(link))
        if port is None:
            raise PortError(f"{self.name}: packet arrived on unknown link {link.name}")
        return port

    def _run_pass(self, packet: Packet) -> None:
        if self.down:
            self.counters.incr("dropped_down")
            packet.release()
            return
        fast = self._fast_apply
        if fast is not None:
            action = fast(packet, self)
        else:
            program = self.program
            if program is not None and program.matches(packet):
                action = program.apply(packet, program.pipeline.new_pass(), self)
            else:
                action = None
        # Unclaimed packets are routed without materialising an empty
        # PipelineAction.
        if action is None:
            self._egress(packet, None)
        else:
            self._apply_action(packet, action)

    def _apply_action(self, packet: Packet, action: PipelineAction) -> None:
        counts = self._counts
        for copy, port in action.mirrors:
            counts["mirrored"] += 1
            self._egress(copy, port)
        for copy in action.recirculate:
            counts["recirculated"] += 1
            self.sim.call_after(
                self.recirc_latency_ns + self.pipeline_latency_ns,
                self._run_recirculated,
                copy,
            )
        if action.drop:
            counts["dropped_by_program"] += 1
            packet.release()
            return
        self._egress(packet, action.egress_port)

    def _run_recirculated(self, packet: Packet) -> None:
        """A recirculated copy re-enters the pipeline as a fresh pass."""
        if self.down:
            self.counters.incr("dropped_down")
            packet.release()
            return
        packet.recirculated = True
        self._run_pass(packet)

    def _egress(self, packet: Packet, port: Optional[int]) -> None:
        if port is None:
            # Fast path: statically routed destination, link and
            # direction known from one dict get.
            info = self._link_for_ip.get(packet.dst)
            if info is None:
                route = self.routes.get(packet.dst)
                if route is not None and not isinstance(route, int):
                    route = route(packet)
                if route is None:
                    self._counts["no_route"] += 1
                    packet.release()
                    return
                link = self.ports.get(route)
                if link is None:
                    self._counts["no_route"] += 1
                    packet.release()
                    return
                from_a = link.a is self
            else:
                link, from_a = info
        else:
            link = self.ports.get(port)
            if link is None:
                self._counts["no_route"] += 1
                packet.release()
                return
            from_a = link.a is self
        self._counts["tx"] += 1
        if link.down or link.loss_probability > 0.0:
            link.send(packet, self)
            return
        # Link.send inlined (clean-link case): one egress per switched
        # packet makes the extra frame measurable.
        size = packet.size
        ser = link._ser_ns.get(size)
        if ser is None:
            ser = link.serialization_ns(size)
        sim = self.sim
        now = sim.now
        if from_a:
            start = link._free_at_a
            if start < now:
                start = now
            done_serialising = start + ser
            link._free_at_a = done_serialising
            link._tx_bytes_a += size
            mode = link._mode_b
            entry = link._entry_b
            when = done_serialising + link._sched_off_b
        else:
            start = link._free_at_b
            if start < now:
                start = now
            done_serialising = start + ser
            link._free_at_b = done_serialising
            link._tx_bytes_b += size
            mode = link._mode_a
            entry = link._entry_a
            when = done_serialising + link._sched_off_a
        link.tx_count += 1
        if mode == 2:
            entry(packet, when)
            return
        if mode == 1:
            dest = link.b if from_a else link.a
            # Express trunk hop: an ``_express_ok`` switch (a plain
            # two-port spine in a fabric that declared itself static)
            # forwards deterministically, and each of its egress
            # directions has a single upstream trunk whose
            # serialisation order equals this booking order — so its
            # pass (at ``when``) can be computed here, one event per
            # trunk hop saved.  Falls back to the evented pass when the
            # route is dynamic or missing, the next link can drop, or
            # the packet would hairpin (a hairpin direction has two
            # upstreams, breaking the monotone-booking argument).
            if dest._express_ok:
                info = dest._link_for_ip.get(packet.dst)
                if info is not None:
                    link2, from_a2 = info
                    if (
                        link2 is not link
                        and not link2.down
                        and link2.loss_probability == 0.0
                    ):
                        packet.ingress_port = link._port_b if from_a else link._port_a
                        packet.recirculated = False
                        dcounts = dest._counts
                        dcounts["rx"] += 1
                        dcounts["tx"] += 1
                        ser2 = link2._ser_ns.get(size)
                        if ser2 is None:
                            ser2 = link2.serialization_ns(size)
                        if from_a2:
                            start2 = link2._free_at_a
                            if start2 < when:
                                start2 = when
                            done2 = start2 + ser2
                            link2._free_at_a = done2
                            link2._tx_bytes_a += size
                            mode2 = link2._mode_b
                            entry2 = link2._entry_b
                            when2 = done2 + link2._sched_off_b
                        else:
                            start2 = link2._free_at_b
                            if start2 < when:
                                start2 = when
                            done2 = start2 + ser2
                            link2._free_at_b = done2
                            link2._tx_bytes_b += size
                            mode2 = link2._mode_a
                            entry2 = link2._entry_a
                            when2 = done2 + link2._sched_off_a
                        link2.tx_count += 1
                        if mode2 == 2:
                            entry2(packet, when2)
                            return
                        when = when2
                        entry = entry2
                        link = link2
        # Simulator.call_at, inlined: one seq per event, one heappush
        # (``when`` can never precede ``now``).
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._heap, (when, seq, entry, (packet, link)))

    # ------------------------------------------------------------------
    # Failure handling (§5.6.4)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Power the switch off: all traffic is dropped."""
        self.down = True
        self._power_epoch += 1
        # Defence in depth: a failed switch must never be expressed
        # past again — the drop window is the point of the drill.
        self._express_ok = False
        self.counters.incr("failures")

    def recover(self, reinit_delay_ns: int = 0) -> None:
        """Power the switch back on.

        All pipeline register state is **wiped** (soft state only);
        forwarding resumes after ``reinit_delay_ns`` of port/ASIC
        re-initialisation.
        """
        program = self.program
        if program is not None:
            for register in program.pipeline.all_registers():
                register.clear()
            program.on_register_wipe()
        if reinit_delay_ns <= 0:
            self.down = False
        else:
            self.sim.call_after(reinit_delay_ns, self._finish_recovery, self._power_epoch)

    def _finish_recovery(self, epoch: int) -> None:
        # A fail() during the re-init delay bumps the epoch; the stale
        # recovery callback must not power the switch back on.
        if epoch != self._power_epoch:
            return
        self.down = False
        self.counters.incr("recoveries")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProgrammableSwitch {self.name} ports={len(self.ports)}>"
