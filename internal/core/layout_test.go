package core

import (
	"testing"
	"unsafe"

	"frfc/internal/noc"
	"frfc/internal/sim"
)

// TestHotStateLayout pins the sizes of what every hop touches: the data wire
// and its cells, the pool slot a data flit waits in, the control-queue cell a
// control flit waits in and the lead state each of its leads is scheduled by.
// A field added to one of them is paid for at every hop.
func TestHotStateLayout(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"sim.Pipe[noc.DataFlit]", unsafe.Sizeof(sim.Pipe[noc.DataFlit]{}), 64},
		{"queuedCtrl", unsafe.Sizeof(queuedCtrl{}), 64},
		{"poolSlot", unsafe.Sizeof(poolSlot{}), 40},
		{"leadState", unsafe.Sizeof(leadState{}), 24},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d: every hop pays for a field added there", tc.name, tc.got, tc.want)
		}
	}
}

// TestCtrlVCFitsOneLine: a control VC — its ring, lead states, position,
// route and allocation — is read whole by every arbitration that picks it,
// and a router's channels sit side by side, so each is one cache line.
func TestCtrlVCFitsOneLine(t *testing.T) {
	if size := unsafe.Sizeof(ctrlVC{}); size > 64 {
		t.Errorf("ctrlVC is %d bytes, want at most 64: a router's channels are one line each", size)
	}
}
