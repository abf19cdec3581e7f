"""Subgraph-isomorphism substrate: gSpan DFS-code machinery (canonical
minimal codes, rightmost extension), the embedding matcher that computes
cover sets, brute-force references used as test oracles, and a pure
DataFrame/SQL join-based matcher exercised through Catalyst and DuckDB."""
