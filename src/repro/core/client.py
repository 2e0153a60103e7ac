"""The NetClone client.

NetClone clients do not know server addresses (§3.3): each request is
addressed to a virtual service IP with a randomly chosen *group ID*
(picking the candidate pair) and a randomly chosen *filter-table
index*; the switch does the rest.  Both the request and its responses
carry the reserved NetClone UDP port so the ToR applies the custom
logic in both directions.

Group IDs are drawn from the client's **local ToR's** group table
(:class:`~repro.core.placement.GroupTable`): on a multi-rack fabric
each ToR may install a different, placement-aware pair set, and the
table also carries the sampling rule (uniform, or a rack-local /
global probability mix).  The legacy ``num_groups`` form — a uniform
draw over a dense group-ID space — remains for hand-assembled
testbeds and for control-plane updates that shrink the group count
after a server failure.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.apps.client import OpenLoopClient
from repro.core.constants import (
    CLO_NOT_CLONED,
    MSG_REQ,
    NETCLONE_UDP_PORT,
    VIRTUAL_SERVICE_IP,
)
from repro.core.header import NetCloneHeader
from repro.core.placement import GroupTable
from repro.core.program import CLO_NEVER_CLONE
from repro.errors import ExperimentError
from repro.net.packet import Packet
from repro.sim.rng import randbelow

__all__ = ["NetCloneClient"]


class NetCloneClient(OpenLoopClient):
    """Open-loop client speaking the NetClone protocol."""

    def __init__(
        self,
        *args: Any,
        num_groups: Optional[int] = None,
        group_table: Optional[GroupTable] = None,
        num_filter_tables: int = 2,
        **kwargs: Any,
    ):
        super().__init__(*args, **kwargs)
        if group_table is not None:
            if num_groups is not None and num_groups != group_table.num_groups:
                raise ExperimentError(
                    f"num_groups={num_groups} conflicts with the "
                    f"{group_table.num_groups}-group table"
                )
            num_groups = group_table.num_groups
        if num_groups is None:
            raise ExperimentError(
                "NetClone clients need a group_table or a num_groups count"
            )
        if num_groups < 2:
            raise ExperimentError("NetClone needs at least two groups (two servers)")
        if num_filter_tables < 1:
            raise ExperimentError("need at least one filter table")
        self._group_table: Optional[GroupTable] = None
        self._table_epoch: Optional[int] = None
        self._num_groups = num_groups
        if group_table is not None:
            self.install_group_table(group_table)
        self.num_filter_tables = num_filter_tables

    # -- control-plane table swap --------------------------------------
    def install_group_table(self, table: GroupTable) -> None:
        """Atomically swap in a (control-plane pushed) group table.

        Table, group count and epoch move together, so the client can
        never draw from a table the switch no longer holds.  This is
        the update :class:`~repro.core.failures.ServerFailureHandler`
        pushes after a §3.6 rebuild.
        """
        if not isinstance(table, GroupTable):
            raise ExperimentError(
                f"expected a GroupTable, got {type(table).__name__}"
            )
        self._group_table = table
        self._num_groups = table.num_groups
        self._table_epoch = table.epoch
        # Pre-drawn arrivals hold group IDs sampled from the old table.
        self._flush_arrivals()

    @property
    def group_table(self) -> Optional[GroupTable]:
        """The local ToR's table this client currently samples from."""
        return self._group_table

    @group_table.setter
    def group_table(self, table: Optional[GroupTable]) -> None:
        if table is None:
            self._group_table = None
            self._table_epoch = None
        else:
            self.install_group_table(table)

    @property
    def num_groups(self) -> int:
        """Dense group-ID space size the client draws from."""
        return self._num_groups

    @num_groups.setter
    def num_groups(self, value: int) -> None:
        # The legacy count-only control-plane update: the switch now
        # holds a dense *uniform* table of this size, so whatever table
        # the client cached is stale — even when the count happens to
        # match (the epoch mismatch below is what _pick_group checks).
        self._num_groups = int(value)
        self._table_epoch = None
        # Pre-drawn arrivals may reference groups past the new count.
        self._flush_arrivals()

    def _pick_group(self) -> int:
        """One group ID from the local ToR's table.

        The cached table is used only while its epoch matches the one
        recorded at install time: a count-only control-plane update
        (e.g. a legacy server-failure rebuild) clears the recorded
        epoch, and the draw falls back to the uniform rule over the
        updated count — the switch-side legacy rebuild always installs
        a dense uniform table.  Size alone is *not* trusted: a rebuilt
        table with a coincidentally equal group count must not keep
        the client sampling dead pairs.
        """
        table = self._group_table
        if table is not None and table.epoch == self._table_epoch:
            return table.sample(self.rng)
        return self.rng.randrange(self._num_groups)

    def build_packets(self, request: Any) -> List[Packet]:
        # Same draws as _pick_group() then randrange(num_filter_tables),
        # at primitive cost: a current uniform table is one randrange.
        getrandbits = self.rng.getrandbits
        table = self._group_table
        if table is not None and table.epoch == self._table_epoch and table.is_uniform:
            grp = randbelow(getrandbits, len(table.pairs))
        else:
            grp = self._pick_group()
        clo = CLO_NEVER_CLONE if getattr(request, "write", False) else CLO_NOT_CLONED
        idx = randbelow(getrandbits, self.num_filter_tables)
        # msg_type, req_id (assigned by the switch), grp, sid, state,
        # clo, idx, swid.
        header = NetCloneHeader(MSG_REQ, 0, grp, 0, 0, clo, idx, 0)
        size = self.workload.request_size(request) + NetCloneHeader.WIRE_SIZE
        pool = self.packet_pool
        if pool is not None:
            packet = pool.acquire(
                self.ip, VIRTUAL_SERVICE_IP, NETCLONE_UDP_PORT, NETCLONE_UDP_PORT,
                size, request, header,
            )
        else:
            packet = Packet(
                src=self.ip,
                dst=VIRTUAL_SERVICE_IP,
                sport=NETCLONE_UDP_PORT,
                dport=NETCLONE_UDP_PORT,
                size=size,
                payload=request,
                nc=header,
            )
        return [packet]
