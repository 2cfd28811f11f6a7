"""Stuck-I/O watchdog: silent wedges become diagnostic failures."""

from __future__ import annotations

import pytest

from repro.fabric.initiator import Initiator
from repro.fabric.target import Target
from repro.faults import FaultPlan, LossBurst, StuckIOError, StuckIOWatchdog
from repro.faults.inject import FaultInjector
from repro.net.topology import build_star
from repro.nvme.ssq import SSQDriver
from repro.profiling import InstrumentedSimulator
from repro.sim.engine import Simulator
from repro.sim.units import KIB, MS, US
from repro.ssd.device import SSD
from repro.workloads.request import IORequest, OpType
from tests.conftest import FAST_SSD


def build_cell(*, lossy: bool, sim: Simulator | None = None):
    sim = sim if sim is not None else Simulator()
    net = build_star(sim, ["init0", "tgt0"], rate_gbps=40.0, delay_ns=US)
    ssd = SSD(sim, FAST_SSD)
    Target(sim, net.hosts["tgt0"], [ssd], [SSQDriver(1, 1)])
    ini = Initiator(sim, net.hosts["init0"])  # no retry, no reliability
    if lossy:
        # Certain loss with no recovery machinery: guaranteed wedge.
        plan = FaultPlan(specs=(LossBurst("init0->sw0", 0, 1 * MS, loss_prob=1.0),))
        FaultInjector(sim, plan).attach_network(net).arm()
    watchdog = StuckIOWatchdog().install(sim)
    watchdog.track_initiator(ini)
    for i in range(3):
        req = IORequest(arrival_ns=0, op=OpType.READ, lba=i * 64, size_bytes=4 * KIB)
        req.target = "tgt0"
        ini.issue(req)
    return sim, ini, watchdog


def test_wedged_run_raises_at_quiescence():
    sim, ini, _ = build_cell(lossy=True)
    with pytest.raises(StuckIOError) as excinfo:
        sim.run()  # heap drains with commands still in flight
    err = excinfo.value
    assert len(err.wedged) == 3
    names = {w[0] for w in err.wedged}
    assert names == {"init0"}
    assert "never completed" in str(err)
    assert ini.outstanding() == 3


def test_wedged_run_raises_under_the_profiler():
    """``repro profile`` runs reach the quiescence watchdog too."""
    sim, ini, _ = build_cell(lossy=True, sim=InstrumentedSimulator())
    with pytest.raises(StuckIOError):
        sim.run()
    assert sim.profile().events_dispatched == sim.events_dispatched > 0


def test_clean_run_stays_quiet():
    sim, ini, watchdog = build_cell(lossy=False)
    sim.run()
    assert ini.outstanding() == 0
    watchdog.check_now()  # explicit end-of-run assertion also passes


def test_horizon_stop_does_not_fire_watchdog():
    # Stopping at a horizon with events still queued is not quiescence:
    # the in-flight I/O may yet complete, so the watchdog must not fire.
    sim, ini, watchdog = build_cell(lossy=False)
    sim.run(until=1_000)  # far too early for any completion
    assert ini.outstanding() == 3
    with pytest.raises(StuckIOError):
        watchdog.check_now()  # but the explicit check still reports
