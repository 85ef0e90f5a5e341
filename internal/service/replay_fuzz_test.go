package service

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"frfc/internal/harness"
)

// FuzzReplaySegment writes arbitrary bytes as a segment and arbitrary bytes as
// its checksum sidecar, and opens the database over them. Opening never
// panics or fails, and every line the replay scans gets exactly one verdict:
// accepted lines are ones that decode, healed lines are ones that do not, and
// the three counts add up to the lines scanned — with no sidecar at all,
// nothing is quarantined and every decodable line is accepted. A second open
// of the same directory reaches the same verdicts and leaves the quarantine
// file holding one record a quarantined line, not two.
func FuzzReplaySegment(f *testing.F) {
	good := []byte(`{"hash":"a1","spec":"FR6","load":0.1,"seed":1,"result":{}}`)
	other := []byte(`{"hash":"b2","spec":"VC8","load":0.2,"result":{}}`)
	sum := func(lines ...[]byte) []byte {
		var b bytes.Buffer
		for _, l := range lines {
			fmt.Fprintf(&b, "%08x\n", crc32.Checksum(l, castagnoli))
		}
		return b.Bytes()
	}
	join := func(lines ...[]byte) []byte { return append(bytes.Join(lines, []byte("\n")), '\n') }
	flipped := bytes.Replace(good, []byte("0.1"), []byte("0.3"), 1)
	for _, seed := range [][2][]byte{
		{join(good, other), sum(good, other)},                    // intact
		{join(good, other), nil},                                 // no sidecar
		{join(flipped, other), sum(good, other)},                 // a flipped byte: quarantined
		{append(join(good), `{"hash":"c3","sp`...), sum(good)},   // torn tail: healed
		{join(good, []byte("junk")), sum(good, []byte("junk"))},  // checksummed junk: quarantined
		{join(good, other), []byte("zz\n" + string(sum(other)))}, // a malformed sidecar line
		{join(good, good, []byte(""), other), sum(good)},         // repeats, a blank line, a short sidecar
		{[]byte("\r\n\n \n"), []byte("\n\n\n\n\n")},
		{nil, sum(good)},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, segment, sidecar []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(sidecar) > 0 {
			if err := os.WriteFile(filepath.Join(dir, sumName(0)), sidecar, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// What the replay's scanner will see, and which of it decodes.
		scanned, decodable := 0, 0
		sc := bufio.NewScanner(bytes.NewReader(segment))
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			scanned++
			if _, err := harness.DecodeEntry(bytes.TrimSpace(sc.Bytes())); err == nil {
				decodable++
			}
		}
		open := func() (DBStats, []byte) {
			db, err := OpenDB(dir, DBOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			st := db.Stats()
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			q, err := os.ReadFile(filepath.Join(dir, quarantineName(0)))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			return st, q
		}
		first, q1 := open()
		accepted := scanned - first.Healed - first.Quarantined
		switch {
		case accepted < 0 || accepted > decodable || first.Healed > scanned-decodable:
			t.Fatalf("%d lines scanned, %d decodable: %d healed and %d quarantined", scanned, decodable, first.Healed, first.Quarantined)
		case first.Entries > accepted || (first.Entries == 0) != (accepted == 0):
			t.Fatalf("%d lines accepted, %d entries", accepted, first.Entries)
		case len(sidecar) == 0 && (first.Quarantined != 0 || accepted != decodable):
			t.Fatalf("no sidecar, yet %d quarantined and %d of %d decodable lines accepted", first.Quarantined, accepted, decodable)
		case bytes.Count(q1, []byte("\n")) != first.Quarantined:
			t.Fatalf("%d lines quarantined, %d records in the quarantine file", first.Quarantined, bytes.Count(q1, []byte("\n")))
		}
		second, q2 := open()
		if second.Healed != first.Healed || second.Quarantined != first.Quarantined || second.Entries != first.Entries {
			t.Fatalf("second open %+v, first %+v", second, first)
		}
		if !bytes.Equal(q1, q2) {
			t.Fatalf("the second open rewrote the quarantine file:\n%q\n%q", q1, q2)
		}
	})
}
