"""Distributed subgraph enumeration substrate: level-synchronous gSpan over
Spark (one scan/aggregate job per DFS level) plus frequent-subgraph mining
via support-threshold pruning."""
