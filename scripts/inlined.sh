#!/bin/sh
# The routers and interfaces of the flit-reservation, virtual-channel,
# packet-switched and circuit fabrics, the flit-reservation sink and the sink
# the others eject through receive with loops over sim.Pipe.Recv, which pay
# only while the compiler inlines it: kept out of line, every poll of every
# wire is a call (a wrapper that was cost vc-mid 25 %; ROADMAP, "Settled").
# Fail unless the compiler reports Recv inlined at every call of it — as many
# times as the line makes the call — in the files that hold the Router.Ticks,
# the interfaces' Ticks and the sinks' Ticks.
#
# Usage: scripts/inlined.sh   (no arguments)
set -eu
cd "$(dirname "$0")/.."

report=$(go build -gcflags=-m ./internal/core ./internal/vcrouter ./internal/noc ./internal/packetswitch ./internal/circuit 2>&1) || { echo "$report" >&2; exit 1; }
status=0
for f in internal/core/router.go internal/core/ni.go internal/vcrouter/router.go internal/vcrouter/ni.go internal/noc/terminal.go \
    internal/packetswitch/packetswitch.go internal/packetswitch/network.go internal/circuit/circuit.go internal/circuit/network.go; do
    sites=$(grep -n '\.Recv(now)' "$f" | cut -d: -f1)
    [ -n "$sites" ] || { echo "inlined.sh: $f calls Recv nowhere: the check is stale" >&2; exit 1; }
    for line in $sites; do
        want=$(sed -n "${line}p" "$f" | grep -o '\.Recv(now)' | wc -l)
        got=$(echo "$report" | grep -c "^$f:$line:[0-9]*: inlining call to sim\.(\*Pipe\[.*\])\.Recv\$" || true)
        if [ "$got" -lt "$want" ]; then
            echo "inlined.sh: $f:$line calls Recv $want times, $got inlined" >&2
            status=1
        fi
    done
done
[ $status -eq 0 ] && echo "inlined.sh: Recv is inlined at every receive site of the four fabrics' routers and interfaces and of the sinks"
exit $status
