"""Why transaction counts are the wrong fairness metric.

Two cores issue exactly the same number of reads, but one moves 64-byte
lines that hold the bus three times longer than the other's 8-byte
words.  Counting transactions says the cores are equal; counting
occupied cycles shows a 1:3 imbalance.  The contention ledger works in
cycles for exactly this reason.
"""

from socsim.config import parse_config
from socsim.system import System


def main():
    tree = {
        "schema_version": 1,
        "sim": {"cycles": 21_000, "seed": 2},
        "masters": {"cores": 2, "accelerators": 0},
        "l2": {"enabled": False},
        "bus": {"occupancy": {"read": 5, "sizes": {"read": {8: 5, 64: 15}}}},
        "qos": {"quotas": []},
        "workloads": [
            {"master": 0, "outstanding": 1,
             "profile": {"pattern": "periodic", "period": 100, "count": 200,
                         "kind_mix": 1.0, "base": "0x0", "footprint": 4096,
                         "stride": 8, "size": 8}},
            {"master": 1, "outstanding": 1,
             "profile": {"pattern": "periodic", "period": 100, "count": 200,
                         "kind_mix": 1.0, "base": "0x100000",
                         "footprint": 4096, "stride": 64, "size": 64}},
        ],
    }
    system = System(parse_config(tree))
    system.run()

    busy = [0, 0]
    count = [0, 0]
    for g in system.bus.grants:
        busy[g.slot] += g.occupancy
        count[g.slot] += 1

    print("               core 0 (8 B)   core 1 (64 B)")
    print(f"transactions   {count[0]:>12}   {count[1]:>13}")
    print(f"bus cycles     {busy[0]:>12}   {busy[1]:>13}")
    print(f"cycle ratio    core1/core0 = {busy[1] / busy[0]:.3f}")
    print()
    mat = system.monitor.matrices["bus"].counts
    print("bus contention matrix (caused x suffered, cycles):")
    for row in mat:
        print("   ", row)
    print()
    print("Equal transaction counts, threefold difference in bus time --")
    print("and the caused-contention ledger shows who made whom wait.")


if __name__ == "__main__":
    main()
