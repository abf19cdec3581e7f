"""Max-k-cover substrate: the greedy (1-1/e) solver used by MaxCover in
Algorithms 1–2 and an exact branch-and-bound optimum for the Figure-13-style
OPT comparison on small databases."""
