#!/bin/sh
# The in-package rungs under the repository benchmark (bench/ +
# BENCHMARK.json, which is what measures speed end to end: bench/run.sh), five
# runs each; prints only, records nothing:
#
#   internal/core      OutResTableFindCommitCredit, RouterTickDormant/Idle/
#                      Loaded (the loaded router tick: 8x8Mid's routers alone),
#                      NetworkTick16x16Sparse/8x8Mid, NetworkNew8x8/16x16 (46
#                      allocs/op at either radix), NetworkReset8x8 (what a job
#                      pays instead of New once its configuration's network
#                      exists; 0 allocs/op)
#   internal/sim       PipeSendRecv
#   internal/vcrouter  VCRouterTickIdle, VCNetworkTick8x8Mid, VCNetworkNew8x8,
#                      VCNetworkReset8x8
#   internal/harness   JobHash bare/shared
#   internal/service   WarmCampaign (the daemon's warm path)
#
# For a profile of one rung add -cpuprofile to the go test line it runs; for a
# whole run, frsim and sweep take -cpuprofile themselves.
#
# Usage: scripts/bench.sh   (no arguments)
set -eu

if [ $# -ne 0 ]; then
    echo "bench.sh: takes no arguments (got: $*)" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
go test ./internal/core -run '^$' -bench . -benchmem -count 5
go test ./internal/sim ./internal/vcrouter -run '^$' -bench . -benchmem -count 5
exec go test ./internal/harness ./internal/service -run '^$' -bench 'JobHash|WarmCampaign' -benchmem -count 5
