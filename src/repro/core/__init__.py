"""The paper's contribution: PES-Index, swapping-based PatternMaintain,
the TED framework (base / PRM / IPS / full), and the four adapted baselines
ALL_g, ALL_t, FSG_g, FSG_t plus the exact-OPT reference wiring."""
