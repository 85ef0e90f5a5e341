package experiment

import (
	"strings"
	"testing"
)

// FuzzParsePattern: whatever the bytes, ParsePattern returns a pattern or an
// error naming the field — never a panic, never both or neither — and it
// accepts exactly the vocabulary its error message lists.
func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{"", "uniform", "transpose", "bitcomp", "tornado", "neighbor", "bitrev", "shuffle",
		"Uniform", "uniform ", "bit-rev", "\x00", "transpose\ntranspose"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePattern(s)
		switch {
		case err != nil && p != nil:
			t.Fatalf("ParsePattern(%q) returned %v with the error %v", s, p, err)
		case err == nil && p == nil:
			t.Fatalf("ParsePattern(%q) returned neither a pattern nor an error", s)
		case err != nil && !strings.HasPrefix(err.Error(), "pattern "):
			t.Fatalf("ParsePattern(%q): error %q does not name the pattern field", s, err)
		case err == nil && s != "" && !strings.Contains("uniform transpose bitcomp tornado neighbor bitrev shuffle", s):
			t.Fatalf("ParsePattern(%q) accepted a name outside the vocabulary", s)
		}
	})
}

// FuzzParseWiring: whatever the bytes, ParseWiring returns fast or leading
// wiring for "", "fast" and "leading" and an error for anything else, never a
// panic.
func FuzzParseWiring(f *testing.F) {
	for _, seed := range []string{"", "fast", "leading", "Fast", "lead", "leading ", "\xff"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := ParseWiring(s)
		want, known := map[string]Wiring{"": FastControl, "fast": FastControl, "leading": LeadingControl}[s]
		switch {
		case known && (err != nil || w != want):
			t.Fatalf("ParseWiring(%q) = %q, %v; want %q", s, w, err, want)
		case !known && (err == nil || w != ""):
			t.Fatalf("ParseWiring(%q) = %q, %v; want an error and no wiring", s, w, err)
		}
	})
}
