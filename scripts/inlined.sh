#!/bin/sh
# The hot paths of every fabric rest on small helpers that pay only while the
# compiler inlines them: kept out of line, each is a call per wire per cycle
# (a receive wrapper that was cost vc-mid 25 %; ROADMAP, "Settled").
#
#   - The routers and interfaces of the flit-reservation, virtual-channel,
#     packet-switched and circuit fabrics, the flit-reservation sink and the
#     sink the others eject through receive with loops over sim.Pipe.Recv.
#   - The flit-reservation router and interface arm their due calendar
#     (internal/core/calendar.go) beside every send with calendar.arm, arm a
#     wire again after reading it with calendar.rearm, and find when with
#     sim.Pipe.HeadAt; the input ports arm departures and expiries with
#     calendar.arm.
#
# Fail unless the compiler reports each helper inlined at every call of it —
# as many times as the line makes the call — in the files that hold those
# sites.
#
# Usage: scripts/inlined.sh   (no arguments)
set -eu
cd "$(dirname "$0")/.."

report=$(go build -gcflags=-m ./internal/core ./internal/vcrouter ./internal/noc ./internal/packetswitch ./internal/circuit 2>&1) || { echo "$report" >&2; exit 1; }
status=0

# check CALL INLINED FILE...: every line of each FILE that contains the text
# CALL must have as many "inlining call to INLINED" reports (a regular
# expression) as it has calls.
check() {
    call=$1 inlined=$2
    shift 2
    for f in "$@"; do
        sites=$(grep -nF "$call" "$f" | cut -d: -f1)
        [ -n "$sites" ] || { echo "inlined.sh: $f calls $call nowhere: the check is stale" >&2; exit 1; }
        for line in $sites; do
            want=$(sed -n "${line}p" "$f" | grep -oF "$call" | wc -l)
            got=$(echo "$report" | grep -c "^$f:$line:[0-9]*: inlining call to $inlined\$" || true)
            if [ "$got" -lt "$want" ]; then
                echo "inlined.sh: $f:$line calls $call $want times, $got inlined" >&2
                status=1
            fi
        done
    done
}

check '.Recv(now)' 'sim\.(\*Pipe\[.*\])\.Recv' internal/core/router.go internal/core/ni.go internal/vcrouter/router.go internal/vcrouter/ni.go internal/noc/terminal.go \
    internal/packetswitch/packetswitch.go internal/packetswitch/network.go internal/circuit/circuit.go internal/circuit/network.go
check '.arm(' 'calendar\.arm' internal/core/router.go internal/core/ni.go internal/core/inputport.go
check '.rearm(' 'calendar\.rearm' internal/core/router.go internal/core/ni.go
check '.HeadAt()' 'sim\.(\*Pipe\[.*\])\.HeadAt' internal/core/router.go internal/core/ni.go
[ $status -eq 0 ] && echo "inlined.sh: Recv is inlined at every receive site of the four fabrics' routers and interfaces and of the sinks, and the calendar's arm, rearm and HeadAt at every site in internal/core"
exit $status
