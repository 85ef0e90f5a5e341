package noc

import (
	"testing"
	"unsafe"
)

// TestFlitLayout pins the flits' sizes: every hop copies a flit, and every
// wire cell, buffer slot and queue cell holds one, so a field added here is
// paid for at every hop. Narrow it, or put it last where the padding is.
func TestFlitLayout(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"DataFlit", unsafe.Sizeof(DataFlit{}), 24},
		{"ControlFlit", unsafe.Sizeof(ControlFlit{}), 48},
		{"Packet", unsafe.Sizeof(Packet{}), 48},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d: every hop pays for a field added there", tc.name, tc.got, tc.want)
		}
	}
}
