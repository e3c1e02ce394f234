"""An empty module, kept importable by name.

The fleet's coordinator is :class:`repro.fleet.executor.FleetExecutor`,
for socket brokers too.  perfbench's tracer still imports this module
before it wraps the layers it times; delete the module once it no
longer does.
"""
