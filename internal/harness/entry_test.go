package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"frfc/internal/experiment"
)

// v6Store is the parent commit's benchmarks/campaign.jsonl — 18 lines, every
// one observed by both -profile and -waterfall, the observations as 16 flat
// keys inside result — followed by two lines the parent's sweep stored with
// no observer armed (VC16 and FR13 at load 0.2; the same 16 keys, all zero).
const v6Store = "testdata/store-v6.jsonl"

// jsonLines reads a store as untyped JSON keyed "spec@load", so a comparison
// sees every key a line holds and not only those Entry declares.
func jsonLines(t *testing.T, path string) map[string]map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]map[string]any{}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("%s: %v in %s", path, err, line)
		}
		lines[fmt.Sprintf("%v@%v", m["spec"], m["load"])] = m
	}
	return lines
}

// TestV6StoreOpensAndIsNeverServed is the upgrade path of the one-file store:
// lines written before the Observed sidecar existed open without a skip,
// decode to their measurement with a nil sidecar — the flat observer keys are
// ignored, not an error — and answer no lookup a current job makes, because
// every current hash is v7.
func TestV6StoreOpensAndIsNeverServed(t *testing.T) {
	raw, err := os.ReadFile(v6Store)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v6.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 20 || st.Skipped() != 0 {
		t.Fatalf("v6 store opened with %d entries, %d skipped; want 20 and 0", st.Len(), st.Skipped())
	}
	for key, line := range jsonLines(t, v6Store) {
		r, ok := st.Get(line["hash"].(string))
		if !ok {
			t.Fatalf("%s: v6 line not loaded under its own hash", key)
		}
		if r.Observed != nil {
			t.Errorf("%s: v6 line decoded with a sidecar: %+v", key, r.Observed)
		}
		want := line["result"].(map[string]any)
		if r.Spec != want["Spec"] || r.AvgLatency != want["AvgLatency"] || float64(r.Cycles) != want["Cycles"] ||
			r.AvgRetryLatency != want["AvgRetryLatency"] || r.DeliveredFraction != want["DeliveredFraction"] {
			t.Errorf("%s: v6 measurement misread: %+v", key, r)
		}
	}
	// The committed store is the same grid under v7 hashes (pinned to the
	// jobs themselves by internal/service's TestSharedRenderingHashesArePinned).
	for key, line := range jsonLines(t, "../../benchmarks/campaign.jsonl") {
		if _, ok := st.Get(line["hash"].(string)); ok {
			t.Errorf("%s: a v6 line was served for the v7 hash %v", key, line["hash"])
		}
	}
	for _, j := range AppendJobs(nil, experiment.FR6(experiment.FastControl, 5).Scaled(400, 600), []float64{0.2, 0.4}) {
		if _, ok := st.Get(j.Hash()); ok {
			t.Errorf("FR6@%v: the v6 store served a current job", j.Load)
		}
	}
}

// TestRegeneratedStoreHoldsParentValues: benchmarks/campaign.jsonl was
// regenerated once when the observer summaries moved into the sidecar. Per
// (spec, load), every measurement key holds the value the parent's line held,
// the sidecar holds the parent's 16 flat values, no key was gained or lost
// otherwise, and the hash is the only thing that moved.
func TestRegeneratedStoreHoldsParentValues(t *testing.T) {
	flat := map[string][2]string{
		"ProfTicks": {"Activity", "ticks"}, "ProfActiveTicks": {"Activity", "activeTicks"},
		"ProfIdleFraction": {"Activity", "idleFraction"}, "ProfSchedWork": {"Activity", "schedWork"},
		"ProfArbWork": {"Activity", "arbWork"}, "ProfSwitchWork": {"Activity", "switchWork"},
		"ProfCreditWork":   {"Activity", "creditWork"},
		"WaterfallPackets": {"Waterfall", "packets"}, "WaterfallTotal": {"Waterfall", "total"},
		"WaterfallQueue": {"Waterfall", "queue"}, "WaterfallReserve": {"Waterfall", "reserve"},
		"WaterfallArb": {"Waterfall", "arb"}, "WaterfallStall": {"Waterfall", "stall"},
		"WaterfallSched": {"Waterfall", "sched"}, "WaterfallLink": {"Waterfall", "link"},
		"WaterfallDrain": {"Waterfall", "drain"},
	}
	parent := jsonLines(t, v6Store)
	now := jsonLines(t, "../../benchmarks/campaign.jsonl")
	if len(now) != 18 {
		t.Fatalf("committed store holds %d lines, want 18", len(now))
	}
	for key, line := range now {
		old, ok := parent[key]
		if !ok {
			t.Fatalf("%s: no such point in the parent's store", key)
		}
		if line["hash"] == old["hash"] {
			t.Errorf("%s: hash %v did not move with the hash version", key, line["hash"])
		}
		for _, k := range []string{"spec", "load", "seed"} {
			if !reflect.DeepEqual(line[k], old[k]) {
				t.Errorf("%s: %s is %v, the parent's %v", key, k, line[k], old[k])
			}
		}
		res, oldRes := line["result"].(map[string]any), old["result"].(map[string]any)
		observed, _ := res["Observed"].(map[string]any)
		if len(res)-1+len(flat) != len(oldRes) {
			t.Errorf("%s: result has %d keys beside Observed, the parent's %d beside the %d flat ones",
				key, len(res)-1, len(oldRes)-len(flat), len(flat))
		}
		for k, v := range oldRes {
			got, ok := res[k]
			if at, moved := flat[k]; moved {
				member, _ := observed[at[0]].(map[string]any)
				got, ok = member[at[1]]
			}
			if !ok || !reflect.DeepEqual(got, v) {
				t.Errorf("%s: %s is %v (present %v), the parent's %v", key, k, got, ok, v)
			}
		}
	}
}

// storeLineSeeds are FuzzStoreLine's corpus: a v7 observed line, a v7
// unobserved one, a v6 line, a tail torn mid-value, a sidecar of the wrong
// JSON type, and an empty hash.
var storeLineSeeds = []string{
	`{"hash":"1897710de1f96519","spec":"FR6","load":0.2,"result":{"Spec":"FR6","Load":0.2,"AvgLatency":30.865,"P99":56,"Cycles":954,"DeliveredFraction":1,"Observed":{"Activity":{"ticks":183168,"activeTicks":62489,"idleFraction":0.6588432477288609,"schedWork":38649},"Waterfall":{"packets":400,"total":12346,"reserve":400,"sched":650,"link":9276,"drain":2020}}}}`,
	`{"hash":"57e57acd0d837c8b","spec":"VC8","load":0.4,"seed":7,"result":{"Spec":"VC8","Load":0.4,"AvgLatency":33.77,"Saturated":true,"Cycles":1012}}`,
	`{"hash":"26f5316966516660","spec":"VC8","load":0.2,"result":{"Spec":"VC8","Load":0.2,"AvgLatency":36.845,"Cycles":967,"ProfTicks":185664,"ProfActiveTicks":61187,"ProfIdleFraction":0.67,"WaterfallPackets":400,"WaterfallTotal":14738,"WaterfallDrain":2685}}`,
	`{"hash":"204aa402311a376e","spec":"VC8","load":0.4,"result":{"Spec":"VC8","Load":0.4,"AvgLat`,
	`{"hash":"aa","spec":"FR6","load":0.2,"result":{"Spec":"FR6","Observed":5}}`,
	`{"hash":"","spec":"FR6","load":0.2,"result":{"Spec":"FR6"}}`,
}

// FuzzStoreLine feeds arbitrary bytes to the store's replay — OpenStore over a
// file holding them, so the line splitting, the decoder and the index are all
// under test. It must never panic, and every line must go one of two ways:
// DecodeEntry accepts it, the entry names a hash, survives a re-marshal
// unchanged, and the store serves exactly the last such entry per hash; or
// DecodeEntry refuses it, it is counted in Skipped, and nothing of it is
// served.
func FuzzStoreLine(f *testing.F) {
	for _, s := range storeLineSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(storeLineSeeds[1] + "\n" + storeLineSeeds[3] + "\r\n\n" + storeLineSeeds[0]))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path)
		if err != nil {
			// The one refusal: a line longer than the 4 MiB scanner buffer.
			if len(data) <= 4<<20 {
				t.Fatalf("OpenStore refused %d bytes: %v", len(data), err)
			}
			return
		}
		defer st.Close()

		want := map[string]experiment.Result{}
		skipped := 0
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			e, err := DecodeEntry(sc.Bytes())
			if err != nil {
				skipped++
				continue
			}
			if e.Hash == "" {
				t.Fatalf("DecodeEntry accepted a line without a hash: %q", sc.Bytes())
			}
			again, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("accepted entry does not re-marshal: %v", err)
			}
			if back, err := DecodeEntry(again); err != nil || !reflect.DeepEqual(back, e) {
				t.Fatalf("entry changed across a re-marshal (%v):\n was %+v\n now %+v", err, e, back)
			}
			want[e.Hash] = e.Result
		}
		if st.Skipped() != skipped || st.Len() != len(want) {
			t.Fatalf("store counts %d skipped, %d entries; the lines say %d and %d", st.Skipped(), st.Len(), skipped, len(want))
		}
		for hash, r := range want {
			if got, ok := st.Get(hash); !ok || !reflect.DeepEqual(got, r) {
				t.Fatalf("store serves %+v (%v) for %q, the last line under that hash says %+v", got, ok, hash, r)
			}
		}
	})
}
