package iofault

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParsePlan throws arbitrary strings at the fault-plan grammar and checks
// the parser's contract: it never panics, a parse error never comes with
// faults attached, and every accepted plan round-trips — formatting the parsed
// faults with their own String() methods and reparsing yields the identical
// plan.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"eio write @3",
		"enospc sync @0",
		"short write @1 7",
		"crash before-sync @5",
		"kill after-close @9",
		"eio rename @1; enospc remove @4; crash after-open @0",
		"eio sync @2; short write @1 7 ;; kill after-sync @5",
		"eio write @+7",
		"",
		"   ;  ",
		"eio write",
		"eio write 3",
		"eio frobnicate @1",
		"eio write @-1",
		"eio write @99999999999999999999",
		"short sync @1 5",
		"short write @1",
		"short write @1 -2",
		"crash sync @1",
		"crash during-sync @1",
		"kill after-zap @1",
		"explode write @1",
		"eio write @1 extra",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParsePlan(s)
		if err != nil {
			if plan != nil {
				t.Fatalf("parse error came with faults attached: %v", err)
			}
			return
		}
		parts := make([]string, len(plan))
		for i, flt := range plan {
			parts[i] = flt.String()
		}
		again, err := ParsePlan(strings.Join(parts, "; "))
		if err != nil {
			t.Fatalf("round-trip reparse failed: %v\nplan: %v", err, plan)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("round-trip changed the plan:\n first: %#v\nsecond: %#v", plan, again)
		}
	})
}
