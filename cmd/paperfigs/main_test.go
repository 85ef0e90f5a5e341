package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRejectsBadSelectionsByName: a bad -scale, -fig, -table or -extra is exit
// 2 with one stderr line naming the flag and the value, before anything
// prints — -scale too on the analytic tables, which never measure at one.
func TestRejectsBadSelectionsByName(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "1", "-scale", "bogus"}, `-scale "bogus"`},
		{[]string{"-fig", "5", "-scale", ""}, `-scale ""`},
		{[]string{"-fig", "4"}, "-fig 4"},
		{[]string{"-all", "-fig", "10"}, "-fig 10"},
		{[]string{"-table", "7"}, "-table 7"},
		{[]string{"-table", "-1"}, "-table -1"},
		{[]string{"-extra", "nonsense"}, `-extra "nonsense"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed before rejecting:\n%s", tc.args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "paperfigs: "+tc.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line starting %q", tc.args, msg, "paperfigs: "+tc.want)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of paperfigs") {
		t.Errorf("no selection: exit %d, stdout %q, stderr %q; want usage and exit 2", code, stdout.String(), stderr.String())
	}
}

// TestAnalyticTablesMatchTheArtefact: Tables 1 and 2 print the committed
// artefact's sections byte for byte. The simulated sections take minutes, so
// the whole file is compared where that can be afforded: CI regenerates it
// with `paperfigs -all -scale quick | cmp - docs/paperfigs-quick.txt`.
func TestAnalyticTablesMatchTheArtefact(t *testing.T) {
	raw, err := os.ReadFile("../../docs/paperfigs-quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	artefact := string(raw)
	for _, tc := range []struct{ table, header string }{
		{"1", "== Table 1:"},
		{"2", "== Table 2:"},
	} {
		start := strings.Index(artefact, tc.header)
		if start < 0 {
			t.Fatalf("artefact has no %q section", tc.header)
		}
		want := artefact[start:]
		want = want[:strings.Index(want, "\n\n")+2]

		var stdout, stderr bytes.Buffer
		if code := run([]string{"-table", tc.table}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("-table %s: exit %d, stderr %q", tc.table, code, stderr.String())
		}
		if stdout.String() != want {
			t.Errorf("-table %s differs from docs/paperfigs-quick.txt:\n--- printed\n%s--- artefact\n%s", tc.table, stdout.String(), want)
		}
	}
}
