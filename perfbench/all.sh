#!/bin/sh
# Run every workload, end to end and traced, from the checkout root:
#   sh perfbench/all.sh [seed]
set -e
for workload in abc_cold lockstep_378 sweep_0_200; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
            --seconds 20 --trace "$trace"
    done
done
