#!/usr/bin/env bash
# The rerun chain: gen-data, train (every architecture on every grid rank
# it takes, --val, --estimate-dict, 0 and 3 epochs), sweep (every learned
# method on each rank), single, complexity, ingest (on both routes of the
# sensing operator: dense, and by FFT on a 32x32 grid) and a
# --config sweep, writing every output file into DIR and the --config run's
# into DIR-config.  The outputs of a fixed configuration must be
# byte-identical from run to run, so two runs of the chain, for example
# under OPENBLAS_NUM_THREADS=1 and =2, compare file by file with cmp.
#
# Usage, from anywhere in a checkout:  scripts/rerun_chain.sh DIR
set -euo pipefail
if [ "$#" -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$root/src"
mkdir -p "$1"
out="$(cd "$1" && pwd)"
h="python3 -m hunfold.cli"

cd "$out"
$h gen-data --problem 1d --m 32 --n 12 --k 2 --sigma2 0.01 \
  --samples 300 --seed 3 --sample-seed 11 --out d1.hud
$h gen-data --problem 1d --m 32 --n 12 --k 2 --sigma2 0.01 \
  --samples 60 --seed 13 --sample-seed 11 --out d1-val.hud
$h gen-data --problem 1d --m 2048 --n 64 --k 5 --sigma2 0.01 \
  --samples 16 --seed 3 --sample-seed 11 --out d1-2048.hud
$h gen-data --problem 2d --m1 4 --m2 6 --n 12 --k 2 --sigma2 0.01 \
  --samples 300 --seed 4 --sample-seed 11 --out d2.hud --export-iq g.hiq
# a paper-scale grid above the matrix-free crossover, ingested by FFT
$h gen-data --problem 2d --m1 32 --m2 32 --n 256 --k 5 --sigma2 0.01 \
  --samples 4 --seed 4 --sample-seed 11 --out d2-32.hud --export-iq g32.hiq
for arch in lista toeplitz1d convlista; do
  $h train --data d1.hud --arch "$arch" --depth 3 --batch 64 \
    --epochs 2 --seed 5 --out "$arch.hun"
done
# train()'s two exits: no epoch returns the start, and three epochs at this
# rate return the best, an earlier epoch (2)
$h train --data d1.hud --arch toeplitz1d --depth 3 --batch 64 \
  --epochs 0 --seed 5 --out toeplitz1d-e0.hun
$h train --data d1.hud --arch toeplitz1d --depth 3 --batch 64 \
  --epochs 3 --lr 0.1 --seed 5 --out toeplitz1d-e3.hun
$h train --data d1.hud --val d1-val.hud --arch toeplitz1d --depth 3 \
  --batch 64 --epochs 2 --seed 5 --out toeplitz1d-val.hun
# the least-squares estimate of phi into init_network(phi_hat), at one BLAS
# thread in every run: its products round differently at two
# (estimate_dictionary, see ROADMAP)
OPENBLAS_NUM_THREADS=1 $h train --data d1.hud --arch toeplitz1d \
  --depth 3 --batch 64 --epochs 2 --seed 5 --estimate-dict \
  --out toeplitz1d-est.hun
for arch in lista toeplitz2d convlista; do
  $h train --data d2.hud --arch "$arch" --depth 3 --batch 64 \
    --epochs 2 --seed 5 --out "$arch-2d.hun"
done
$h sweep --problem 1d --m 32 --n 12 --k 2 --sample-seed 11 \
  --noise-db=-20,0 --trials 16 --seed 9 \
  --methods ista,fista,lista-toeplitz,convlista,lista \
  --model-lista-toeplitz toeplitz1d.hun --model-convlista convlista.hun \
  --model-lista lista.hun \
  --out sweep.csv
$h sweep --problem 2d --m1 4 --m2 6 --n 12 --k 2 --sample-seed 11 \
  --noise-db=-20,0 --trials 16 --seed 9 \
  --methods ista,fista,lista-toeplitz,convlista,lista \
  --model-lista-toeplitz toeplitz2d-2d.hun --model-convlista convlista-2d.hun \
  --model-lista lista-2d.hun \
  --out sweep-2d.csv
$h sweep --problem 1d --m 32 --n 12 --k 2 --sample-seed 11 \
  --noise-db=-20,0 --trials 16 --seed 9 --methods lista-toeplitz \
  --model-lista-toeplitz toeplitz1d-est.hun --out sweep-est.csv
$h single --problem 1d --m 32 --n 12 --k 2 --sample-seed 11 \
  --sigma2 0.01 --seed 9 --methods ista,fista,lista \
  --model-lista lista.hun --out single.csv
$h single --problem 1d --m 32 --n 12 --k 2 --sample-seed 11 \
  --seed 9 --methods ista,fista --offgrid --frac 0.25 \
  --out single-offgrid.csv
$h complexity --sizes 16,32 --n 8 --no-timing --out complexity.csv
$h ingest --path g.hiq --out ingest-ista.csv
$h ingest --path g.hiq --model toeplitz2d-2d.hun --out ingest-model.csv
$h ingest --path g.hiq --model convlista-2d.hun --out ingest-convlista.csv
$h ingest --path g32.hiq --out ingest-ista-32.csv

# the 1-D sweep again from a --config file, in its own directory under the
# same names, each model with its sidecar (whose sampling set the sweep
# checks): its CSV and manifest equal the flags' run
mkdir -p "$out-config"
cd "$out-config"
for model in toeplitz1d convlista lista; do
  cp "$out/$model.hun" "$out/$model.hun.json" .
done
cat > sweep.json <<'JSON'
{"problem": "1d", "m": 32, "n": 12, "k": 2, "sample_seed": 11,
 "noise_db": [-20, 0], "trials": 16, "seed": 9,
 "methods": "ista,fista,lista-toeplitz,convlista,lista",
 "model_lista_toeplitz": "toeplitz1d.hun", "model_convlista": "convlista.hun",
 "model_lista": "lista.hun"}
JSON
$h sweep --config sweep.json --out sweep.csv
cmp sweep.csv "$out/sweep.csv"
cmp sweep.csv.manifest.json "$out/sweep.csv.manifest.json"
