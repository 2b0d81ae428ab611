"""Round-robin fairness under saturation.

Four identical cores hammer memory as fast as they can.  With
round-robin arbitration and no quotas, the shared bus and the memory
controller must treat them identically: cumulative grant counts never
drift apart by more than one, at any point in the run.
"""

from socsim.config import parse_config
from socsim.system import System


def main():
    tree = {
        "schema_version": 1,
        "sim": {"cycles": 100_000, "seed": 5},
        "masters": {"cores": 4, "accelerators": 0},
        "l2": {"enabled": False},
        "qos": {"quotas": []},
        "workloads": [
            {"master": m, "outstanding": 1,
             "profile": {"pattern": "saturating", "kind_mix": 1.0,
                         "base": hex(0x10000 * m), "footprint": 4096,
                         "stride": 8, "size": 8}}
            for m in range(4)
        ],
    }
    system = System(parse_config(tree))
    system.run()

    counts = [0, 0, 0, 0]
    worst = 0
    for g in system.bus.grants:
        counts[g.slot] += 1
        worst = max(worst, max(counts) - min(counts))
    print("bus grants per core:        ", counts)
    print("worst spread at any prefix: ", worst)

    services = [0, 0, 0, 0]
    sworst = 0
    for r in system.memctrl.records:
        services[r.initiator] += 1
        sworst = max(sworst, max(services) - min(services))
    print("memory services per core:   ", services)
    print("worst spread at any prefix: ", sworst)

    means = [m.latency_total / m.completed for m in system.masters]
    print("mean latency per core:      ", [round(x, 1) for x in means])
    print()
    print("Every core gets the same service, cycle for cycle: the rotation")
    print("never lets any core fall more than one grant behind another.")


if __name__ == "__main__":
    main()
