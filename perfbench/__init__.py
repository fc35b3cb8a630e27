"""The provisioning-pipeline benchmark: four workloads over the public ``repro`` API.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; ``perfbench/README.md``
explains the workloads, the metrics and how each one maps onto the layers.
"""
