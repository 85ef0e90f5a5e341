#!/bin/sh
# Run the repository benchmarks and record the result in benchmarks/latest.txt
# (plus a machine-readable benchmarks/latest.json: name -> ns/op, B/op,
# allocs/op), comparing ns/op against benchmarks/baseline.txt when one exists.
#
# The comparison is a gate, not a report: if any benchmark regresses by more
# than BENCH_MAX_REGRESSION_PCT percent (default 20) against the baseline the
# script exits nonzero. Benchmarks run -benchtime 1x, so single-run jitter is
# real — tune the threshold up for noisy environments rather than ignoring
# the exit status.
#
# Usage:
#   scripts/bench.sh             run every benchmark (paper-scale; slow)
#   scripts/bench.sh -short      analytic + reduced-scale subset (CI smoke)
#   scripts/bench.sh -baseline   promote the latest run to the baseline
#   scripts/bench.sh -ladder     the in-package rungs: the FR hot path
#                                (internal/core: OutResTableFindCommitCredit,
#                                RouterTickDormant/Idle/Loaded,
#                                NetworkTick16x16Sparse/8x8Mid, NetworkNew8x8),
#                                the wire and the VC lineage (internal/sim
#                                PipeSendRecv; internal/vcrouter
#                                VCRouterTickIdle, VCNetworkTick8x8Mid,
#                                VCNetworkNew8x8), then the daemon's warm path
#                                (internal/harness JobHash bare/shared,
#                                internal/service WarmCampaign), five runs
#                                each; prints only, records nothing
#   scripts/bench.sh -profile    also collect pprof profiles into benchmarks/
#                                (cpu.pprof, mem.pprof; inspect with
#                                `go tool pprof benchmarks/cpu.pprof`)
#
# Environment:
#   BENCH_MAX_REGRESSION_PCT     fail threshold, percent ns/op over baseline
#                                (default 20)
set -eu

cd "$(dirname "$0")/.."
mkdir -p benchmarks

if [ "${1:-}" = "-baseline" ]; then
    if [ ! -f benchmarks/latest.txt ]; then
        echo "bench.sh: no benchmarks/latest.txt to promote; run scripts/bench.sh first" >&2
        exit 1
    fi
    cp benchmarks/latest.txt benchmarks/baseline.txt
    echo "baseline updated from latest.txt"
    exit 0
fi

if [ "${1:-}" = "-ladder" ]; then
    go test ./internal/core -run '^$' -bench . -benchmem -count 5
    go test ./internal/sim ./internal/vcrouter -run '^$' -bench . -benchmem -count 5
    exec go test ./internal/harness ./internal/service -run '^$' -bench 'JobHash|WarmCampaign' -benchmem -count 5
fi

pattern='.'
shortflag=''
profileflags=''
for arg in "$@"; do
    case "$arg" in
    -short)
        # The analytic tables are instant; the storage/bandwidth models are
        # the regression canary that every change to the overhead code must
        # hold. The sweep benchmark guards the harness's parallel speedup and
        # serial/parallel determinism on a reduced grid.
        pattern='Table1|Table2|SweepSerialVsParallel|ProfileDisabledOverhead|WaterfallDisabledOverhead'
        shortflag='-short'
        ;;
    -profile)
        profileflags='-cpuprofile benchmarks/cpu.pprof -memprofile benchmarks/mem.pprof'
        ;;
    *)
        echo "bench.sh: unknown option $arg" >&2
        exit 2
        ;;
    esac
done

go test -run '^$' -bench "$pattern" -benchtime 1x -benchmem $shortflag $profileflags . | tee benchmarks/latest.txt

# Machine-readable twin of latest.txt for tooling (cmd/report reads it):
# one object per benchmark with ns/op and, when -benchmem reported them,
# B/op and allocs/op.
awk '
    BEGIN { print "{" ; n = 0 }
    $1 ~ /^Benchmark/ && $2 ~ /^[0-9]+$/ {
        ns = ""; bytes = ""; allocs = ""
        for (i = 3; i < NF; i += 2) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "B/op") bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "  \"%s\": {\"nsPerOp\": %s", $1, ns
        if (bytes != "") printf ", \"bytesPerOp\": %s", bytes
        if (allocs != "") printf ", \"allocsPerOp\": %s", allocs
        printf "}"
    }
    END { if (n) printf "\n"; print "}" }
' benchmarks/latest.txt > benchmarks/latest.json
echo "# machine-readable summary: benchmarks/latest.json"

if [ -n "$profileflags" ]; then
    echo
    echo "# profiles: go tool pprof benchmarks/cpu.pprof | go tool pprof benchmarks/mem.pprof"
fi

if [ -f benchmarks/baseline.txt ]; then
    max="${BENCH_MAX_REGRESSION_PCT:-20}"
    echo
    echo "# vs baseline (ns/op; +/- is latest relative to baseline; fail above +${max}%)"
    awk -v max="$max" '
        FNR == NR {
            if ($2 ~ /^[0-9]+$/ && $4 == "ns/op") base[$1] = $3
            next
        }
        $2 ~ /^[0-9]+$/ && $4 == "ns/op" && ($1 in base) {
            delta = base[$1] > 0 ? ($3 - base[$1]) * 100.0 / base[$1] : 0
            flag = ""
            if (delta > max + 0) { flag = "  REGRESSED"; failed = 1 }
            printf "%-50s %14.0f -> %14.0f  %+6.1f%%%s\n", $1, base[$1], $3, delta, flag
        }
        END {
            if (failed) {
                printf "bench.sh: regression above %s%% threshold (BENCH_MAX_REGRESSION_PCT)\n", max > "/dev/stderr"
                exit 1
            }
        }
    ' benchmarks/baseline.txt benchmarks/latest.txt
fi
