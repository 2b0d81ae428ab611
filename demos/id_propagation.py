"""Owner IDs survive the whole fabric, so blame lands on the right core.

A mixed system -- two cores behind the L2, one accelerator injecting
straight into the NoC -- runs a contended workload.  Every request that
reaches the memory controller still carries the ID of the master that
created it, including L2 fills and writebacks performed on a core's
behalf.  That propagated ID is what keys the controller's FIFOs and the
contention attribution, so per-pair blame is exact.
"""

from socsim.config import parse_config
from socsim.report import build_report
from socsim.system import System

TREE = {
    "schema_version": 1,
    "sim": {"cycles": 20_000, "seed": 7},
    "masters": {"cores": 2, "accelerators": 1},
    "l2": {"enabled": True, "sets": 32, "ways": 4, "line_size": 64,
           "partitions": {0: [0, 1], 1: [2, 3]}},
    "qos": {"quotas": []},
    "workloads": [
        {"master": 0, "outstanding": 2,
         "profile": {"pattern": "saturating", "kind_mix": 0.7, "base": "0x0",
                     "footprint": 16384, "stride": 64, "size": 8}},
        {"master": 1, "outstanding": 2,
         "profile": {"pattern": "saturating", "kind_mix": 0.5,
                     "base": "0x100000", "footprint": 16384, "stride": 64,
                     "size": 8}},
        {"master": 2, "outstanding": 4,
         "profile": {"pattern": "bursty", "period": 400, "burst_len": 8,
                     "kind_mix": 1.0, "base": "0x200000", "footprint": 32768,
                     "stride": 64, "size": 64}},
    ],
}


def main():
    system = System(parse_config(TREE))
    system.run()

    records = system.memctrl.records
    intact = sum(1 for r in records if r.initiator == r.owner)
    print(f"memory controller observed {len(records)} requests; "
          f"{intact} carried the originating id "
          f"({100.0 * intact / len(records):.1f}%)")

    per_id = {}
    for r in records:
        per_id[r.initiator] = per_id.get(r.initiator, 0) + 1
    print("services by propagated id:", dict(sorted(per_id.items())))
    print("  (core traffic includes L2 fills/writebacks done on its behalf)")

    sample = system.completed_txns[-1]
    print(f"\none transaction end to end (owner {sample.owner}, "
          f"{sample.kind}, issued t={sample.t_issued}, done t={sample.t_done}):")
    for resource, requested, granted, done in system.timeline(sample):
        print(f"  {resource:<8} requested {requested:>6}  "
              f"granted {granted:>6}  done {done:>6}")

    report = build_report(system)
    print("\ncontention matrices (cycles caused x suffered):")
    for name, res in report["resources"].items():
        print(f"  {name}: busy {res['busy_cycles']} cycles, "
              f"utilization {res['utilization']:.2f}")
        for row in res["matrix"]:
            print("     ", row)
    print("\ncontention cycles per resource (matrix totals):")
    for name, entry in report["conservation"].items():
        print(f"  {name}: {entry['matrix_total']}")


if __name__ == "__main__":
    main()
