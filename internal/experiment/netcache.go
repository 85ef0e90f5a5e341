package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"frfc/internal/noc"
)

// idleNetworksPerProc sizes the network cache: it holds at most this many
// idle networks per processor the Go scheduler may use. A worker alternating
// between a few configurations keeps them all; a campaign walking through
// dozens keeps the most recently used.
//
// maxIdleNodes is the largest mesh whose network is kept at all: the paper's
// 8×8. What an idle network costs is its size twice over — a
// garbage-collected heap lets everything else the process allocates pile up
// in proportion to what is live — and a flit-reservation network is 1.2 MiB
// at 64 nodes and 4.9 MiB at 256 (core.BenchmarkNetworkNew8x8, …16x16).
// Building the larger one is cheap — the same 45 allocations, 2.5 ms of an
// 18 ms small job — so what keeps it out is what it would weigh, not what it
// costs to make: bench/'s fr-sparse, 16×16, had a peak RSS of 16.5 MiB
// building a network per run and 27.8 MiB holding one (at 6.0 MiB a
// network), +68 % against a bound of 15 %.
const (
	idleNetworksPerProc = 4
	maxIdleNodes        = 64
)

// networkCache holds the networks finished runs left behind, so that the next
// run of the same configuration resets one instead of building its own. A
// network is in the cache only while idle: take removes it, and it belongs to
// the taking run alone until put returns it. Eviction is least recently
// returned first and depends on nothing but the order of takes and puts, so a
// fixed sequence of runs allocates the same every time.
type networkCache struct {
	mu     sync.Mutex
	idle   []idleNetwork // least recently returned first
	hits   int           // takes that found a network; for tests
	misses int           // takes that did not
}

type idleNetwork struct {
	key string
	net noc.Network
}

var networks networkCache

// networkKey renders everything NewNetwork reads of a normalized spec except
// the seed, which Reset takes: two specs with equal keys build
// interchangeable networks. Fields are struck out rather than picked, so a
// field added to Spec is part of the key until someone decides otherwise.
func networkKey(s Spec) string {
	s.Name, s.Seed = "", 0
	s.PacketLen, s.Pattern, s.Bernoulli = 0, nil, false
	s.WarmupCycles, s.MaxWarmupCycles, s.SamplePackets, s.DrainFactor = 0, 0, 0, 0
	s.BandwidthPenalty = 0
	return fmt.Sprintf("%#v", s)
}

// take removes and returns the most recently returned idle network built for
// key, or nil when there is none.
func (c *networkCache) take(key string) noc.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.idle) - 1; i >= 0; i-- {
		if c.idle[i].key == key {
			net := c.idle[i].net
			c.idle = slices.Delete(c.idle, i, i+1)
			c.hits++
			return net
		}
	}
	c.misses++
	return nil
}

// acquire gives a run of s, a normalized spec, a network to itself with the
// given hooks: one an earlier run of the same configuration left behind, reset
// from s's seed to its constructed state, or — the first time, and always on a
// mesh too large to keep — one built here. The run hands it back with put
// under the returned key, from its normal return only, so a cancelled or
// panicking run leaves nothing for the next to find.
func (c *networkCache) acquire(s Spec, hooks *noc.Hooks) (noc.Network, string) {
	key := networkKey(s)
	net := c.take(key)
	if net != nil {
		net.Reset(s.Seed, hooks)
	} else {
		net, _ = NewNetwork(s, hooks)
	}
	return net, key
}

// put returns a network whose run completed, evicting the least recently
// returned one when the cache is full. The network is reset first, so that an
// idle one holds nothing of the run that used it — its packets, its hooks and
// through them its statistics — only its own structures.
func (c *networkCache) put(key string, net noc.Network, nodes int) {
	if nodes > maxIdleNodes {
		return
	}
	net.Reset(0, nil)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle = append(c.idle, idleNetwork{key, net})
	if over := len(c.idle) - idleNetworksPerProc*runtime.GOMAXPROCS(0); over > 0 {
		c.idle = slices.Delete(c.idle, 0, over)
	}
}
