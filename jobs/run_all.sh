#!/usr/bin/env bash
# Regenerate every table/experiment result in sequence (several minutes each).
set -e
cd "$(dirname "$0")/.."
for job in table2_datasets table34_pes vqf_studies exp1_vary_k \
           exp1_vary_emax exp2_baselines exp2_opt exp3_opts exp5_swap; do
  echo "=== jobs/$job.py ==="
  python "jobs/$job.py"
done
