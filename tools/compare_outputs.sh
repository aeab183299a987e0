#!/usr/bin/env bash
# Compare the CLI outputs of a fixed set of runs between a base revision
# and the working tree, byte for byte.
#
#   tools/compare_outputs.sh BASE
#
# BASE is any git revision (a branch, a tag, HEAD). It is checked out in a
# temporary git worktree, and the same `run` and `diagnose` commands run in
# both trees with one BLAS thread. Every CSV and every stdout, the latter
# without the "written to" line that names the output path, is compared
# with cmp. One line per file is printed, and for a `run` CSV that differs
# one more line per method with the largest relative move of its l2error
# and dgerror over the rows. A last line gives the lines added to and
# deleted from src/ against BASE and their net change. The exit status is
# non-zero if any file differs or is missing, or if a command fails.
set -euo pipefail

base=${1:?usage: tools/compare_outputs.sh BASE}
root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$scratch/tree" >/dev/null 2>&1 || true
    rm -rf "$scratch"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$scratch/tree" "$base"

# name|arguments: a run writes name.csv, a diagnose its sigma CSV name.csv
commands=(
    "ar-p3|run --case AR_EXAMPLE --methods dg,et --p 3 --n 4,8,16,32"
    "ar-p6|run --case AR_EXAMPLE --methods dg,et --p 6 --n 4,8"
    "ar-et-p6|run --case AR_EXAMPLE --methods et --p 6 --n 16,32"
    # 254 sweep levels and several volume batches at n = 64
    "ar-p2|run --case AR_EXAMPLE --methods dg,et --p 2 --n 64"
    "box-p3|run --case BOX_DIFFUSION_2D --methods dg,et,etbox,qt --p 3 --n 4,8,16"
    "dar-p23|run --case DAR_EXAMPLE --methods dg,et,etbox --p 2,3 --n 4,8,16"
    "dar-p6|run --case DAR_EXAMPLE --methods dg,et --p 6 --n 4,8"
    "dar-et-p6|run --case DAR_EXAMPLE --methods et,etbox --p 6 --n 16,32"
    # 3,008 interior facets: the self terms of a SIP mesh sum across runs of 2,048
    "dar-dg-p3|run --case DAR_EXAMPLE --methods dg --p 3 --n 32"
    "diagnose-dar-p6|diagnose --case DAR_EXAMPLE --p 6 --n 12"
    "diagnose-ar-p6|diagnose --case AR_EXAMPLE --p 6 --n 8"
    "diagnose-box-p3|diagnose --case BOX_DIFFUSION_2D --kind DAR_BOX --p 3 --n 8"
    # SIP systems whose Schur solve is refined against the LU of T'AT
    "diagnose-box-dar-p3|diagnose --case BOX_DIFFUSION_2D --kind DAR --p 3 --n 16"
    "diagnose-dar-p3|diagnose --case DAR_EXAMPLE --p 3 --n 32"
)

outputs() {  # tree, output directory
    mkdir -p "$2"
    for entry in "${commands[@]}"; do
        name=${entry%%|*}
        # word splitting of the arguments is intended
        (cd "$1" && OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 -m trefftzdg \
            ${entry#*|} --out "$2/$name.csv") | sed '/ written to /d' > "$2/$name.out"
    done
}

moves() {  # base CSV, head CSV
    python3 - "$1" "$2" <<'PY'
import csv
import sys

base, head = (list(csv.DictReader(open(path))) for path in sys.argv[1:])
if not base or "l2error" not in base[0]:
    sys.exit()  # a diagnose sigma CSV
if [(r["method"], r["p"], r["h"]) for r in base] != [(r["method"], r["p"], r["h"]) for r in head]:
    print("          the rows differ")
    sys.exit()
largest = {}
for old, new in zip(base, head):
    moved = largest.setdefault(old["method"], {"l2error": 0.0, "dgerror": 0.0})
    for key in moved:
        a, b = float(old[key]), float(new[key])
        moved[key] = max(moved[key], abs(b - a) / abs(a) if a else abs(b - a))
for method, moved in largest.items():
    print(f"          {method}: l2error {moved['l2error']:.1e}, dgerror {moved['dgerror']:.1e}")
PY
}

outputs "$scratch/tree" "$scratch/base"
outputs "$root" "$scratch/head"

status=0
for name in $( (ls "$scratch/base"; ls "$scratch/head") | sort -u); do
    if cmp -s "$scratch/base/$name" "$scratch/head/$name"; then
        echo "identical $name"
    else
        echo "DIFFERS   $name"
        status=1
        if [[ $name == *.csv && -f $scratch/base/$name && -f $scratch/head/$name ]]; then
            moves "$scratch/base/$name" "$scratch/head/$name"
        fi
    fi
done
git -C "$root" diff --numstat "$base" -- src | awk '
    { added += $1; deleted += $2 }
    END { printf "src/ lines: +%d -%d, net %+d\n", added, deleted, added - deleted }'
exit $status
