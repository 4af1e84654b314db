#!/usr/bin/env bash
# Run the desk flow of one checkout and write its 22 outputs to OUTDIR.
#
#   tools/desk_flow.sh CHECKOUT OUTDIR
#
# The flow generates a train set (seed 3, 16 per kind, with --dump-config),
# a test set (seed 4, 21 per kind) and the benchmark's golden full-geometry
# set (--preset full, seed 1, 1 per kind: 600x512 maps, whose extrema run
# in row bands on one thread); trains multitask, intent and capability
# models (8 epochs, batch 8, seed 5, with --log); trains a multitask run
# for 4 epochs and resumes it to 8; then runs eval --rows-out, baseline
# --rows-out at theta 1e-2, 1e-3 and 1e-4, the 3-theta baseline sweep,
# eval --mode sequential and assess of the test set.  Last it writes one
# seeded random desk series (64 x 72 samples) to series.npz and assesses
# it with config.json, which covers the raw-series input path.
#
# Outputs: 3 datasets, config.json, 5 checkpoints, 5 loss logs, 4 row dumps,
# report.csv, series.npz, series_report.csv and stdout.txt.  Every command runs inside OUTDIR on relative
# paths, so stdout.txt holds no OUTDIR and two OUTDIRs compare with diff -r.
# Takes about 8 s on 2 shared cores (numpy 2.4.6), 0.6 s of it the
# full-geometry set.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
checkout=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
: > stdout.txt

run() {
    echo "\$ cpaware $*" >> stdout.txt
    PYTHONPATH="$checkout/src" python3 -m cpaware.cli "$@" >> stdout.txt
}

train() {  # train MODE OUT EPOCHS [more flags]
    local mode=$1 out=$2 epochs=$3
    shift 3
    run train --dataset train.cpad --mode "$mode" --out "$out" --epochs "$epochs" \
        --batch-size 8 --seed 5 "$@"
}

run generate --out train.cpad --seed 3 --count-per-kind 16 --dump-config config.json
run generate --out test.cpad --seed 4 --count-per-kind 21
run generate --preset full --out full.cpad --seed 1 --count-per-kind 1
for mode in multitask intent capability; do
    train "$mode" "$mode.ckpt" 8 --log "$mode.log.csv"
done
train multitask half.ckpt 4 --log half.log.csv
train multitask resumed.ckpt 8 --resume half.ckpt --log resumed.log.csv

run eval --dataset test.cpad --ckpt multitask.ckpt --rows-out multitask.rows.csv
cascade=(--dataset test.cpad --ckpt capability.ckpt --ckpt2 intent.ckpt)
for theta in 1e-2 1e-3 1e-4; do
    run baseline "${cascade[@]}" --theta "$theta" --rows-out "cascade_$theta.rows.csv"
done
run baseline "${cascade[@]}"
run eval --mode sequential "${cascade[@]}"
run assess --ckpt multitask.ckpt --input test.cpad --out report.csv

# np.savez stamps each member with the time of writing; a fixed ZipInfo keeps
# series.npz byte-identical between runs.
python3 - <<'PY'
import zipfile

import numpy as np

rng = np.random.default_rng(6)
series = rng.normal(size=64 * 72) + 1j * rng.normal(size=64 * 72)
with zipfile.ZipFile("series.npz", "w") as archive:
    with archive.open(zipfile.ZipInfo("samples.npy"), "w") as member:
        np.lib.format.write_array(member, series)
PY
run assess --ckpt multitask.ckpt --input series.npz --config config.json \
    --out series_report.csv
