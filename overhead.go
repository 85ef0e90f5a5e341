package frfc

import "frfc/internal/overhead"

// StorageRow is one column of the paper's Table 1: the per-node storage
// breakdown of a flow-control configuration, in bits.
type StorageRow = overhead.StorageRow

// StorageTable evaluates Table 1 for the paper's five configurations with
// 256-bit data flits, 2-bit type tags, d=1 and a 32-cycle horizon.
func StorageTable() []StorageRow { return overhead.StorageTable() }

// BandwidthRow is one column of the paper's Table 2: per-data-flit control
// bandwidth in bits.
type BandwidthRow = overhead.BandwidthRow

// BandwidthTable evaluates Table 2 for the paper's configuration (64 nodes,
// 5-flit packets, 2 VCs, d=1, horizon 32), plus the flit-reservation penalty
// as a fraction of a 256-bit flit.
func BandwidthTable() (rows []BandwidthRow, frPenalty float64) { return overhead.BandwidthTable() }
