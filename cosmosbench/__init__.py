"""End-to-end COSMOS benchmark: seeded workloads, closed-loop load generator, tracer."""
