"""SimPush query benchmark: closed-loop workloads, an oracle gate on every
answer, and a traced run that attributes query time to the layers of Alg. 1.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of the repository; see
``perfbench/README.md``.
"""
