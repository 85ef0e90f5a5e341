package sim

import (
	"testing"
	"unsafe"
)

// TestPipeLayout pins the pipe header to one cache line, whatever it carries:
// every Send and Take of every hop reads it, so a field added to it is paid
// for at every hop. State only a fault model reads goes in pipeFaults. A slot
// cell is the item and its due cycle, no more: 32 bytes for a 24-byte data
// flit.
func TestPipeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Pipe[int]{}); got != 64 {
		t.Errorf("Pipe is %d bytes, want 64: every hop pays for a field added there", got)
	}
	if got := unsafe.Sizeof(Arrival[[24]byte]{}); got != 32 {
		t.Errorf("a ring cell of a 24-byte item is %d bytes, want 32: every hop pays for a field added there", got)
	}
}
