"""A contention quota with hardware stall enforcement.

Master 1 floods the shared bus with long writes while master 0 tries to
read from memory.  Master 1 carries a quota: at most 500 cycles of
contention caused per 10,000-cycle period.  When the meter crosses the
limit the hardware stalls master 1 at the bus -- except for one
guaranteed grant per 100-cycle guard window, so it is throttled, never
starved.  At the period boundary the budget replenishes and the cycle
repeats.
"""

import statistics

from socsim.config import parse_config
from socsim.system import System
from socsim.verify import check_quota

PERIOD = 10_000
GUARD = 100

TREE = {
    "schema_version": 1,
    "sim": {"cycles": 30_000, "seed": 11},
    "masters": {"cores": 2, "accelerators": 0},
    "l2": {"enabled": False},
    "bus": {"occupancy": {"read": 5, "write": 15}},
    "noc": {"ports": [
        {"name": "mem", "base": "0x0", "size": "0x10000000", "width": 8},
        {"name": "io", "base": "0x20000000", "size": "0x1000000",
         "width": 8, "device_read_latency": 4, "device_write_latency": 4},
    ]},
    "memory": {"port": "mem", "read_latency": 40, "write_latency": 30},
    "qos": {"period": PERIOD, "guard_window": GUARD,
            "quotas": [{"master": 1, "limit": 500, "mode": "hw_stall"}]},
    "workloads": [
        {"master": 0, "outstanding": 4,
         "profile": {"pattern": "saturating", "kind_mix": 1.0, "base": "0x0",
                     "footprint": 4096, "stride": 8, "size": 8}},
        {"master": 1, "outstanding": 4,
         "profile": {"pattern": "saturating", "kind_mix": 0.0,
                     "base": "0x20000000", "footprint": 4096, "stride": 8,
                     "size": 8}},
    ],
}


def run_keeping_completions(cfg):
    """Run ``cfg``: the system and the transactions it completed, in
    completion order.  A system only counts these, so keep them here."""
    system = System(cfg)
    completed = []
    for master in system.masters:
        def keep(txn, now, complete=master.complete):
            complete(txn, now)
            completed.append(txn)
        master.complete = keep
    system.run()
    return system, completed


def main():
    system, completed = run_keeping_completions(parse_config(TREE))

    stalls = [(e["t"], e["period"]) for e in system.events
              if e["kind"] == "stall_asserted" and e["master"] == 1]
    print("stall asserted at:", [f"t={t} (period {p})" for t, p in stalls])

    history = system.monitor.period_history[1]
    verdict = check_quota(system)
    print("offender caused per period:", history,
          "  bound:", verdict["bounds"][1],
          "  adherence check:", "pass" if verdict["pass"] else "FAIL")

    guard_grants = [g for g in system.bus.grants if g.guard]
    print(f"guard grants while stalled: {len(guard_grants)} "
          f"(~1 per {GUARD}-cycle window)")

    victim = [t for t in completed if t.owner == 0]
    t0 = stalls[0][0]
    before = [t.t_done - t.t_issued for t in victim if t.t_done <= t0]
    after = [t.t_done - t.t_issued for t in victim
             if t.t_issued >= t0 + 300 and t.t_done <= PERIOD]
    print(f"victim mean latency under attack:   "
          f"{statistics.mean(before):7.1f} cycles")
    print(f"victim mean latency while stalled:  "
          f"{statistics.mean(after):7.1f} cycles")

    iso_tree = dict(TREE)
    iso_tree["workloads"] = [TREE["workloads"][0]]
    _, alone = run_keeping_completions(parse_config(iso_tree))
    iso = [t.t_done - t.t_issued for t in alone
           if t.t_issued >= 1_000 and t.t_done <= PERIOD]
    print(f"victim mean latency running alone:  "
          f"{statistics.mean(iso):7.1f} cycles")
    print()
    print("Once the quota trips, the victim performs as if it owned the")
    print("machine -- while the offender still completes one transaction")
    print("per guard window instead of starving.")


if __name__ == "__main__":
    main()
