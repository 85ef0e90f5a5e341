#!/bin/sh
# The hot paths of every fabric rest on small helpers that pay only while the
# compiler inlines them: kept out of line, each is a call per wire per cycle
# (a receive wrapper that was cost vc-mid 25 %; ROADMAP, "Settled").
#
#   - The routers and interfaces of the flit-reservation, virtual-channel,
#     packet-switched and circuit fabrics, the flit-reservation sink and the
#     sink the others eject through read a wire with one sim.Pipe.Take(now),
#     which hands them the wire's arrival slot for the cycle: its fast path
#     fits the inliner's budget of 80 because a replaying wire's link layer
#     is a call of its own (sim.Pipe.Replay, run by the network).
#   - Every one of them acts on its node's due calendar (internal/sim
#     calendar.go): it reads its word with sim.Calendar.Cell, and each wire is
#     bound to its receiver's bit when the fabric wires the node and arms it
#     in its own Send at every cycle it delivers at, so no receiver arms a
#     wire again (core's inputs arm their own bits with sim.Calendar.Arm, and
#     core rebuilds a calendar after an outage with sim.Calendar.Arm at every
#     cycle sim.Pipe.Arrivals reports).
#   - Every router orders its arbitration candidates with sim.Shuffle.
#   - The flit-reservation router ends every control stream with
#     Router.endStream, which releases the downstream control VC the stream
#     held and unroutes its channel; forward calls it on each tail, once per
#     packet per hop.
#   - The flit-reservation router reports every tick, dormant or not, to the
#     self-profile through profile.Registry.RouterTick, a nil test when
#     profiling is off, and experiment.RunInstrumented asks
#     profile.Registry.Due every cycle whether memory is due a sample.
#
# Fail unless the compiler reports each helper inlined at every call of it —
# as many times as the line makes the call — in the files that hold those
# sites; if a receive the arrival slots replaced (sim.Pipe.Recv(now), a read
# of one item) or one of the wake mechanisms the calendar replaced (the
# post helper, the in-flight counts, the sinks' ejection pointers) is back in
# the non-test code of those packages; or if the wake state the wires took over
# is back on the sending side there: a field naming the receiver's calendar
# (peer[, dataCal, creditCal, upCal, downCal) or a hand arm beside a send
# (.Arm(now+...)); or if a hand-written Fisher-Yates loop over Intn(i + 1) is
# back; or if a non-test file of internal/core releases a downstream control
# VC by hand (owned[...] = false, or a clear of owned) anywhere but in
# endStream, which ends one stream, and in Router.reset and
# Network.repairLink, which clear a whole port; or if the virtual-channel,
# packet-switched or circuit fabric makes a wire, carves a calendar or counts
# the packets offered for itself (sim.NewPipe, sim.CalendarCells, an offered
# field) instead of through the noc.Terminals it embeds; or if the
# flit-reservation router's per-port control state is back where its channel
# vectors replaced it: a portVC candidate, an occupancy field in ctrlInput, or
# a candidates that tests each front flit's arrival instead of reading
# occ &^ fresh; or if a non-test file of cmd/paperfigs runs the simulator
# itself (experiment.Run, RunInstrumented, Sweep, BaseLatency or Bisect)
# instead of as jobs of the harness executor, whose result cache and failure
# policy every number it prints goes through; or if a non-test file under cmd/
# or internal/ imports the root package frfc, the library built on top of
# them, so that a command names each type one way; or if a non-test file under
# cmd/ or internal/ outside internal/metrics builds a probe as a composite
# literal (metrics.Probe{) instead of with metrics.NewProbe, the one
# constructor, which arms the collectors an option implies together; or if a
# resolved sweep forks its rows again: a non-test Cells() method or a use of
# experiment.Cell under cmd/ or internal/, a Cell type in internal/experiment,
# or a String() there on a resolved-sweep point (Resolved or a ...Point type)
# — a row is one Spec resolved by experiment.Resolve into one
# experiment.Resolved, and cmd/sweep's tables print it.
#
# Usage: scripts/inlined.sh   (no arguments)
set -eu
cd "$(dirname "$0")/.."

report=$(go build -gcflags=-m ./internal/core ./internal/vcrouter ./internal/noc ./internal/packetswitch ./internal/circuit ./internal/experiment 2>&1) || { echo "$report" >&2; exit 1; }
status=0

# check CALL INLINED FILE...: every line of each FILE that matches CALL (an
# extended regular expression) must have as many "inlining call to INLINED"
# reports (a regular expression) as it has matches.
check() {
    call=$1 inlined=$2
    shift 2
    for f in "$@"; do
        sites=$(grep -nE "$call" "$f" | cut -d: -f1)
        [ -n "$sites" ] || { echo "inlined.sh: $f calls $call nowhere: the check is stale" >&2; exit 1; }
        for line in $sites; do
            want=$(sed -n "${line}p" "$f" | grep -oE "$call" | wc -l)
            got=$(echo "$report" | grep -c "^$f:$line:[0-9]*: inlining call to $inlined\$" || true)
            if [ "$got" -lt "$want" ]; then
                echo "inlined.sh: $f:$line calls $call $want times, $got inlined" >&2
                status=1
            fi
        done
    done
}

pkgs="internal/core internal/vcrouter internal/noc internal/packetswitch internal/circuit"

# sites CALL: the non-test files of the packages that match CALL.
sites() {
    for d in $pkgs; do
        grep -lE "$1" "$d"/*.go | grep -v '_test\.go$' || true
    done
}

check '\.Take\(now\)' 'sim\.(\*Pipe\[.*\])\.Take' $(sites '\.Take\(now\)')
check '\.Cell\(' 'sim\.Calendar\.Cell' $(sites '\.Cell\(')
check '\.Arm\(' 'sim\.Calendar\.Arm' $(sites '\.Arm\(')
check 'sim\.Shuffle\(' 'sim\.Shuffle\[.*\]' $(sites 'sim\.Shuffle\(')
check '\.RouterTick\(' 'profile\.(\*Registry)\.RouterTick' internal/core/router.go
check '\.endStream\(' '(\*Router)\.endStream' internal/core/router.go
check 'prof\.Due\(' 'profile\.(\*Registry)\.Due' internal/experiment/run.go

receives=$(for d in $pkgs; do grep -nE '\.Recv\(now\)' "$d"/*.go /dev/null | grep -v '_test\.go:' || true; done)
if [ -n "$receives" ]; then
    echo "inlined.sh: a receive the arrival slots replaced is back (read the cycle's slot with sim.Pipe.Take; the sends arm every arrival):" >&2
    echo "$receives" >&2
    status=1
fi

gone=$(for d in $pkgs; do grep -nE '\bpost\(|FlitsIn|flitsIn|creditsIn|\.ejected\b|\bejected +\*' "$d"/*.go /dev/null | grep -v '_test\.go:' || true; done)
if [ -n "$gone" ]; then
    echo "inlined.sh: a wake mechanism the due calendar replaced is back:" >&2
    echo "$gone" >&2
    status=1
fi

senders=$(for d in $pkgs; do grep -nE '\bpeer\[|\b(dataCal|creditCal|upCal|downCal)\b|\.Arm\(now ?\+' "$d"/*.go /dev/null | grep -v '_test\.go:' || true; done)
if [ -n "$senders" ]; then
    echo "inlined.sh: a sender arms its receiver's calendar by hand (bind the wire with sim.Pipe.Wakes; its Send arms):" >&2
    echo "$senders" >&2
    status=1
fi

replaced=$(for d in $pkgs; do grep -nE 'Intn\(i ?\+ ?1\)' "$d"/*.go /dev/null | grep -v '_test\.go:' || true; done)
if [ -n "$replaced" ]; then
    echo "inlined.sh: a hand-written shuffle is back (use sim.Shuffle):" >&2
    echo "$replaced" >&2
    status=1
fi

release=$(for f in internal/core/*.go; do
    case $f in *_test.go) continue ;; esac
    awk -v f="$f" '/^func / { fn = $0 } /owned\[[^]]*\] *= *false|clear\([^)]*owned\)/ && fn !~ /\) (endStream|reset|repairLink)\(/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$release" ]; then
    echo "inlined.sh: a control stream releases its downstream control VC by hand (end it with Router.endStream):" >&2
    echo "$release" >&2
    status=1
fi

own=$(for d in internal/vcrouter internal/packetswitch internal/circuit; do grep -nE 'sim\.NewPipe|CalendarCells|\.offered\b|^\s*offered\s' "$d"/*.go /dev/null | grep -v '_test\.go:' || true; done)
if [ -n "$own" ]; then
    echo "inlined.sh: a fabric that embeds noc.Terminals builds its own wire, calendar or offered count (use noc.NewWire, Terminals.Cal and Terminals.Offer):" >&2
    echo "$own" >&2
    status=1
fi

chans=$(for f in internal/core/*.go; do
    case $f in *_test.go) continue ;; esac
    grep -nE '\bportVC\b' "$f" /dev/null || true
    awk -v f="$f" '/^type ctrlInput struct/,/^}/ { if ($0 ~ /(^|[^.A-Za-z0-9_])occ([^A-Za-z0-9_]|$)/) print f ":" FNR ": ctrlInput: " $0 }' "$f"
    awk -v f="$f" '/^func \(r \*Router\) candidates\(/,/^}/ { if ($0 ~ /arrivedAt/) print f ":" FNR ": candidates: " $0 }' "$f"
done)
if [ -n "$chans" ]; then
    echo "inlined.sh: per-port control state the router's channel vectors replaced is back (candidates are occ &^ fresh, as channel indices):" >&2
    echo "$chans" >&2
    status=1
fi

direct=$(grep -nE '\bexperiment\.(Run|RunInstrumented|Sweep|BaseLatency|Bisect)\b' cmd/paperfigs/*.go /dev/null | grep -v '_test\.go:' || true)
if [ -n "$direct" ]; then
    echo "inlined.sh: cmd/paperfigs runs the simulator outside the harness executor (use harness.RunJobs, SaturationSearch or SummarizeAll):" >&2
    echo "$direct" >&2
    status=1
fi

root=$(find cmd internal -name '*.go' ! -name '*_test.go' -exec grep -nE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"frfc"' {} + || true)
if [ -n "$root" ]; then
    echo "inlined.sh: a command or internal package imports the root package frfc (import the internal package it aliases):" >&2
    echo "$root" >&2
    status=1
fi

literal=$(find cmd internal -name '*.go' ! -name '*_test.go' ! -path 'internal/metrics/*' -exec grep -nE '\bmetrics\.Probe\{' {} + || true)
if [ -n "$literal" ]; then
    echo "inlined.sh: a probe is built as a composite literal (use metrics.NewProbe):" >&2
    echo "$literal" >&2
    status=1
fi

fork=$( (find cmd internal -name '*.go' ! -name '*_test.go' -exec grep -nE '^func \([^)]*\) Cells\(|\bexperiment\.Cell\b' {} +
    grep -nE '^type Cell\b|^func \([A-Za-z_]+ \*?(Resolved|[A-Za-z]*Point)\) String\(' internal/experiment/*.go /dev/null | grep -v '_test\.go:') || true)
if [ -n "$fork" ]; then
    echo "inlined.sh: a resolved sweep forks its rows again (enumerate them as Rows() []Spec, resolve them with harness.ResolveRows, print them in cmd/sweep's tables):" >&2
    echo "$fork" >&2
    status=1
fi

[ $status -eq 0 ] && echo "inlined.sh: Take, Shuffle and the due calendar's Cell and Arm are inlined at every site of the four fabrics' routers, interfaces and sinks, RouterTick at both of the flit-reservation router's, endStream at each of its calls and Registry.Due in RunInstrumented's step; no Recv(now) receive, no post, in-flight count or ejection pointer is left, no sender-side wake field or hand arm beside a send, no hand-written shuffle, no hand release of a control VC outside endStream, reset and repairLink, the virtual-channel, packet-switched and circuit fabrics take every wire, calendar and offered count from noc.Terminals, and the flit-reservation router reads its candidates off occ &^ fresh with no portVC or per-port occupancy word; cmd/paperfigs runs every job through the harness; no command or internal package imports the root package; every probe outside internal/metrics comes from metrics.NewProbe; every resolved sweep is Rows() of one Spec type, with no Cells(), Cell or point String()"
exit $status
