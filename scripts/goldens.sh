#!/usr/bin/env sh
# Golden manifest: every paper figure, ablation and soak binary's
# stdout, stderr and exit code, hashed and compared against the
# committed goldens.sha256 at ACC_JOBS=1 and ACC_JOBS=2.
#
#   scripts/goldens.sh            check both job counts against the manifest
#   scripts/goldens.sh --record   rewrite the manifest (ACC_JOBS=1), then check
#
# A changed golden therefore shows up as a diff of goldens.sha256,
# which the change must explain. Outputs are kept under
# target/goldens/jobs<N>/ for diffing when a check fails.
set -eu

cd "$(dirname "$0")/.."
manifest="$PWD/goldens.sha256"
bins="$PWD/target/release"
out_root="$PWD/target/goldens"

# label|binary and arguments. Binaries with a smoke mode run in it.
cases='fig4a|fig4a
fig4b|fig4b
fig5a|fig5a
fig5b|fig5b
fig8a|fig8a
fig8b|fig8b
ablation_cardbus|ablation_cardbus
ablation_credit_window|ablation_credit_window
ablation_faults|ablation_faults
ablation_model_knobs|ablation_model_knobs
ablation_modes|ablation_modes
ablation_protocol|ablation_protocol
ablation_skew|ablation_skew
ablation_transient|ablation_transient
ablation_collectives|ablation_collectives --smoke
ablation_coll_faults|ablation_coll_faults --smoke
ablation_fabric_faults|ablation_fabric_faults --smoke
soak_coll|soak --rounds 16 --coll'

cargo build --release -q -p acc-bench --bins

# Runs every case at ACC_JOBS=$1 into $out_root/jobs$1, one
# <label>.stdout / .stderr / .exit triple per case.
run_all() {
    dir="$out_root/jobs$1"
    rm -rf "$dir"
    mkdir -p "$dir"
    echo "$cases" | while IFS='|' read -r label cmd; do
        set +e
        # shellcheck disable=SC2086 # cmd is a binary plus its arguments
        ACC_JOBS="$1" "$bins"/$cmd > "$dir/$label.stdout" 2> "$dir/$label.stderr"
        echo $? > "$dir/$label.exit"
        set -e
    done
}

if [ "${1:-}" = "--record" ]; then
    run_all 1
    (cd "$out_root/jobs1" && sha256sum -- *.stdout *.stderr *.exit) > "$manifest"
    echo "recorded $(wc -l < "$manifest") hashes into goldens.sha256"
fi

for jobs in 1 2; do
    run_all "$jobs"
    if ! (cd "$out_root/jobs$jobs" && sha256sum --quiet -c "$manifest"); then
        echo "goldens differ at ACC_JOBS=$jobs (outputs in target/goldens/jobs$jobs)" >&2
        exit 1
    fi
    echo "goldens match at ACC_JOBS=$jobs"
done
