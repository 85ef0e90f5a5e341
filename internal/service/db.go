// Package service is the long-running campaign daemon layered on the
// harness: a REST job-submission API, a persistent result database keyed by
// the harness's sha256 job hashes, and a fair scheduler that multiplexes
// concurrent campaigns over one shared worker pool.
//
// The determinism contract of the harness carries through unchanged: every
// job has a network to itself for the run, reset from the job's seed to its
// constructed state, so scheduling order — which campaign a
// worker serves next — can never affect any job's result, only when it
// lands. A campaign run through the service is bit-identical to the same
// campaign run one-shot through harness.RunJobs.
package service

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/iofault"
)

// DefaultSegmentBytes is the rotation threshold for database segments: once
// the active segment grows past it, the next Put opens a new one. Small
// enough that a damaged segment loses little, large enough that a long
// campaign does not shower the directory with files.
const DefaultSegmentBytes = 4 << 20

// FsyncMode selects when Put fsyncs the segment files.
type FsyncMode int

// Fsync modes. The durability ladder, fastest to safest: Off (the OS decides
// when bytes reach the platter — a crash can lose everything since the last
// rotation), Batch (bounded loss: at most BatchPuts results or
// BatchInterval of work), Always (a Put that returned nil is on disk).
// Rotation and Close sync regardless of mode.
const (
	FsyncAlways FsyncMode = iota
	FsyncBatch
	FsyncOff
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	default:
		return "always"
	}
}

// ParseFsyncMode parses "always", "batch" or "off" (the -fsync flag).
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("service: unknown fsync mode %q (want always|batch|off)", s)
}

// FsyncPolicy tunes the durability/throughput tradeoff of DB.Put. See the
// FsyncMode constants for the ladder; docs/service.md has the measurements.
type FsyncPolicy struct {
	Mode FsyncMode
	// BatchPuts syncs after this many unsynced Puts (FsyncBatch only);
	// 0 means 16.
	BatchPuts int
	// BatchInterval syncs when the oldest unsynced Put is this old,
	// checked at Put time (FsyncBatch only); 0 means 100ms.
	BatchInterval time.Duration
}

// DBOptions tunes OpenDB. The zero value uses DefaultSegmentBytes, FsyncAlways
// and the real filesystem.
type DBOptions struct {
	// SegmentBytes is the rotation threshold; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync is the durability policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FS is the filesystem the database runs on; nil means the real one.
	// Tests and the kill-9 soak thread an iofault.Injector through here.
	FS iofault.FS
}

// DBStats is a point-in-time snapshot of the database's accounting.
type DBStats struct {
	// Entries is the number of distinct job hashes resolvable.
	Entries int `json:"entries"`
	// Segments is how many segment files exist, including the active one.
	Segments int `json:"segments"`
	// Hits and Misses count Get outcomes since open — the dedup ledger.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Healed counts undecodable lines without checksum coverage skipped
	// while opening: the footprint of a kill mid-write (at most one per
	// segment) or foreign junk.
	Healed int `json:"healed"`
	// Quarantined counts lines that failed their recorded CRC32C (or
	// carried a valid checksum over undecodable content) while opening —
	// mid-segment corruption, preserved in seg-*.quarantine sidecars
	// instead of being served or silently dropped.
	Quarantined int `json:"quarantined"`
	// PutErrors counts Put calls that failed in the storage path (write,
	// sync, rotation) since open — the disk-is-lying ledger.
	PutErrors int64 `json:"putErrors"`
}

// dbEntry is one cached result: the decoded Result served to the harness and
// the exact line bytes served to results streams and snapshots, so that what
// the service returns is byte-identical to what a one-shot store would hold.
type dbEntry struct {
	spec string
	load float64
	seed uint64
	res  experiment.Result
	line []byte // canonical JSONL line, no trailing newline
}

// DB is the service's persistent result database: append-only JSONL segments
// under one directory plus an in-memory index keyed by the harness job hash.
// It implements harness.ResultStore, so campaigns executed through it dedup
// resubmitted jobs to cached results instantly, and it survives restart the
// same way the one-shot store does — every complete line loads, a truncated
// tail (the footprint of a kill mid-write) is skipped and simply re-run.
//
// Segment lines use the identical schema the harness store writes
// (harness.MarshalEntry), so a segment decodes with harness.DecodeEntry like
// any one-shot store. Integrity lives out-of-band: each seg-NNNNNN.jsonl
// has a seg-NNNNNN.sum sidecar holding one CRC32C per line, positionally
// aligned, so the data segments stay byte-identical to one-shot stores while
// replay can tell a torn tail (healed, re-run) from a flipped byte in the
// middle (quarantined to seg-NNNNNN.quarantine, never served).
//
// After any write or sync error the active segment is poisoned: the next Put
// abandons it for a fresh segment, so partial bytes from a failed write can
// never concatenate with later good lines — damage stays a healable tail.
type DB struct {
	mu       sync.Mutex
	dir      string
	segLimit int64
	fsync    FsyncPolicy
	fs       iofault.FS

	f        iofault.File // active segment, opened for append
	fsum     iofault.File // its CRC32C sidecar, same positions
	seq      int          // active segment number, or next to create if f == nil
	size     int64        // bytes written to the active segment
	poisoned bool         // active segment took a write/sync error; rotate next Put

	pendingPuts int       // Puts not yet synced (FsyncBatch)
	oldestDirty time.Time // when the first of them landed

	entries     map[string]dbEntry
	segments    int
	hits        int64
	misses      int64
	healed      int
	quarantined int
	putErrors   int64
	closed      bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segmentName renders the file name of segment n; lexicographic order is
// creation order, which is what OpenDB relies on for last-write-wins replay.
func segmentName(n int) string { return fmt.Sprintf("seg-%06d.jsonl", n) }

// sumName is segment n's checksum sidecar: one 8-hex-digit CRC32C
// (Castagnoli) per data line, same position.
func sumName(n int) string { return fmt.Sprintf("seg-%06d.sum", n) }

// quarantineName is where segment n's corrupt lines are preserved.
func quarantineName(n int) string { return fmt.Sprintf("seg-%06d.quarantine", n) }

// segmentSeq extracts the sequence number from a segment path; compaction
// leaves holes in the numbering, so names are parsed, never counted.
func segmentSeq(path string) (int, bool) {
	base := filepath.Base(path)
	if len(base) != len("seg-000000.jsonl") {
		return 0, false
	}
	n, err := strconv.Atoi(base[4:10])
	return n, err == nil && n >= 0
}

// OpenDB opens (creating if absent) the database directory and replays every
// segment in creation order, last write per hash winning — the same resume
// semantics as the one-shot store. Lines failing their recorded checksum are
// quarantined; undecodable lines without checksum coverage are healed
// (counted, skipped). The highest-numbered segment is reopened for append
// only when it is fully intact and its sidecar covers every line — anything
// less starts a fresh segment, so checksum positions can never desynchronize
// from data lines.
func OpenDB(dir string, o DBOptions) (*DB, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Fsync.BatchPuts <= 0 {
		o.Fsync.BatchPuts = 16
	}
	if o.Fsync.BatchInterval <= 0 {
		o.Fsync.BatchInterval = 100 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = iofault.OS
	}
	if err := o.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: create db dir: %w", err)
	}
	names, err := o.FS.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("service: scan db dir: %w", err)
	}
	sort.Strings(names)
	db := &DB{
		dir: dir, segLimit: o.SegmentBytes, fsync: o.Fsync, fs: o.FS,
		entries: make(map[string]dbEntry),
	}
	maxSeq := -1
	lastIntact := false
	for _, name := range names {
		seq, ok := segmentSeq(name)
		if !ok {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		rep, err := db.replaySegment(name, seq)
		if err != nil {
			return nil, err
		}
		lastIntact = rep.intact
		db.segments++
	}
	db.seq = maxSeq + 1
	if lastIntact {
		last := filepath.Join(dir, segmentName(maxSeq))
		if st, err := o.FS.Stat(last); err == nil && st.Size() < o.SegmentBytes {
			f, err := o.FS.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("service: reopen segment: %w", err)
			}
			fsum, err := o.FS.OpenFile(filepath.Join(dir, sumName(maxSeq)), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				f.Close() //nolint:errcheck // surfacing the sidecar error
				return nil, fmt.Errorf("service: reopen segment sidecar: %w", err)
			}
			db.f, db.fsum = f, fsum
			db.seq = maxSeq
			db.size = st.Size()
		}
	}
	return db, nil
}

// segReplay summarizes one segment's replay for the append-reopen decision.
type segReplay struct {
	// intact: every line decoded, the sidecar exists and covers every line,
	// and nothing was healed or quarantined — safe to append to, because a
	// new line's checksum will land at the matching sidecar position.
	intact bool
}

// readSums loads segment seq's checksum sidecar. A missing sidecar (legacy
// segment) returns nil. A malformed sidecar line marks that position — and
// alignment — untrusted without failing the open.
func (db *DB) readSums(seq int) (sums []uint32, valid []bool, exists bool, err error) {
	f, err := db.fs.Open(filepath.Join(db.dir, sumName(seq)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("service: open sidecar: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, false, fmt.Errorf("service: read sidecar: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		v, perr := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 32)
		sums = append(sums, uint32(v))
		valid = append(valid, perr == nil)
	}
	return sums, valid, true, nil
}

// replaySegment loads one segment's verifiable lines into the index.
//
// Three verdicts per line, in trust order:
//   - checksum matches and the line decodes: accepted.
//   - a checksum is recorded but the line contradicts it (CRC mismatch, or
//     valid CRC over undecodable content): quarantined — the bytes were once
//     whole and are now lying, so they are preserved in the .quarantine
//     sidecar for forensics and never served.
//   - no checksum recorded (legacy segment, or a crash landed the data line
//     but not its sidecar line): decode decides — decodable lines load,
//     undecodable ones are healed as a torn tail.
//
// Nothing here is fatal: the recovery story is that damage costs at most the
// jobs affected, never the database.
func (db *DB) replaySegment(path string, seq int) (segReplay, error) {
	sums, sumsValid, haveSums, err := db.readSums(seq)
	if err != nil {
		return segReplay{}, err
	}
	f, err := db.fs.Open(path)
	if err != nil {
		return segReplay{}, fmt.Errorf("service: open segment: %w", err)
	}
	defer f.Close()

	var quarantine iofault.File
	defer func() {
		if quarantine != nil {
			quarantine.Close() //nolint:errcheck // best-effort forensics file
		}
	}()
	quarantineLine := func(raw []byte) {
		db.quarantined++
		if quarantine == nil {
			// Truncate on first write this open: reopening a damaged
			// segment must not duplicate its quarantine records.
			q, qerr := db.fs.OpenFile(filepath.Join(db.dir, quarantineName(seq)),
				os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			if qerr != nil {
				return // counted anyway; preservation is best-effort
			}
			quarantine = q
		}
		quarantine.Write(append(raw, '\n')) //nolint:errcheck // best-effort
	}

	clean := true
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for i := 0; sc.Scan(); i++ {
		lines++
		raw := sc.Bytes()
		covered := i < len(sums) && sumsValid[i]
		if covered && crc32.Checksum(raw, castagnoli) != sums[i] {
			quarantineLine(raw)
			clean = false
			continue
		}
		line := bytes.TrimSpace(raw)
		e, err := harness.DecodeEntry(line)
		if err != nil {
			if covered {
				// The checksum vouches for these bytes, yet they don't
				// decode: recorded-then-corrupted beyond what CRC sees,
				// or a schema bug. Either way: preserve, don't serve.
				quarantineLine(raw)
			} else {
				db.healed++
			}
			clean = false
			continue
		}
		db.entries[e.Hash] = dbEntry{
			spec: e.Spec, load: e.Load, seed: e.Seed, res: e.Result,
			line: append([]byte(nil), line...),
		}
	}
	if err := sc.Err(); err != nil {
		return segReplay{}, fmt.Errorf("service: read segment %s: %w", path, err)
	}
	allValid := true
	for _, v := range sumsValid {
		allValid = allValid && v
	}
	return segReplay{intact: clean && haveSums && allValid && len(sums) == lines}, nil
}

// Get returns the cached result for a job hash, counting the dedup ledger.
func (db *DB) Get(hash string) (experiment.Result, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.entries[hash]
	if ok {
		db.hits++
	} else {
		db.misses++
	}
	return e.res, ok
}

// peek is Get for admission: it counts a hit, but not a miss, because a job
// the database does not hold goes to a worker whose Get counts it. Either way
// the ledger counts each job once.
func (db *DB) peek(hash string) (experiment.Result, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.entries[hash]
	if ok {
		db.hits++
	}
	return e.res, ok
}

// GetLine returns the stored canonical JSONL line for a job hash.
func (db *DB) GetLine(hash string) ([]byte, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.entries[hash]
	return e.line, ok
}

// rotateLocked retires the active segment: sync both files, close both, and
// surface every error — a failed close can drop buffered state right before
// the segment is abandoned, which is exactly the loss this database exists
// to prevent. Even on error the segment is abandoned (the files are closed
// or unusable either way) so the next Put starts fresh.
func (db *DB) rotateLocked() error {
	f, fsum := db.f, db.fsum
	db.f, db.fsum = nil, nil
	db.seq++
	db.pendingPuts = 0
	db.poisoned = false
	if f == nil {
		return nil
	}
	var firstErr error
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"sync segment", f.Sync},
		{"sync sidecar", func() error {
			if fsum == nil {
				return nil
			}
			return fsum.Sync()
		}},
		{"close segment", f.Close},
		{"close sidecar", func() error {
			if fsum == nil {
				return nil
			}
			return fsum.Close()
		}},
	} {
		if err := step.fn(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("service: rotate: %s: %w", step.name, err)
		}
	}
	return firstErr
}

// Put records a completed job durably: one canonical JSONL line appended to
// the active segment, its CRC32C appended to the sidecar, both synced per
// the FsyncPolicy before the index is updated, rotating to a fresh segment
// when the active one is over the limit or poisoned by an earlier error.
// Implements harness.ResultStore, so it slots straight into
// harness.Options.Store.
func (db *DB) Put(j harness.Job, hash string, r experiment.Result) error {
	line, err := harness.MarshalEntry(j, hash, r)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("service: put on closed db")
	}
	if db.f != nil && (db.size >= db.segLimit || db.poisoned) {
		poisoned := db.poisoned
		if err := db.rotateLocked(); err != nil && !poisoned {
			// A poisoned segment's close failing is old news — its error
			// was already surfaced by the Put that poisoned it.
			db.putErrors++
			return err
		}
	}
	if db.f == nil {
		path := filepath.Join(db.dir, segmentName(db.seq))
		f, err := db.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			db.putErrors++
			return fmt.Errorf("service: create segment: %w", err)
		}
		fsum, err := db.fs.OpenFile(filepath.Join(db.dir, sumName(db.seq)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			f.Close() //nolint:errcheck // surfacing the sidecar error
			db.putErrors++
			return fmt.Errorf("service: create segment sidecar: %w", err)
		}
		db.f, db.fsum = f, fsum
		db.size = 0
		db.segments++
	}
	if _, err := db.f.Write(append(line, '\n')); err != nil {
		db.poisoned = true
		db.putErrors++
		return fmt.Errorf("service: append result: %w", err)
	}
	sum := fmt.Sprintf("%08x\n", crc32.Checksum(line, castagnoli))
	if _, err := db.fsum.Write([]byte(sum)); err != nil {
		db.poisoned = true
		db.putErrors++
		return fmt.Errorf("service: append checksum: %w", err)
	}
	if err := db.maybeSyncLocked(); err != nil {
		db.poisoned = true
		db.putErrors++
		return err
	}
	db.size += int64(len(line)) + 1
	spec := j.EffectiveSpec()
	db.entries[hash] = dbEntry{spec: spec.Name, load: j.Load, seed: j.Seed, res: r, line: line}
	return nil
}

// maybeSyncLocked applies the fsync policy to the Put that just wrote.
func (db *DB) maybeSyncLocked() error {
	switch db.fsync.Mode {
	case FsyncOff:
		return nil
	case FsyncBatch:
		db.pendingPuts++
		if db.pendingPuts == 1 {
			db.oldestDirty = time.Now()
		}
		if db.pendingPuts < db.fsync.BatchPuts &&
			time.Since(db.oldestDirty) < db.fsync.BatchInterval {
			return nil
		}
	}
	return db.syncLocked()
}

// syncLocked flushes both active files to disk: data first, then checksums,
// so a crash between the two leaves data lines without sidecar coverage
// (replayed by decode) rather than checksums vouching for absent bytes.
func (db *DB) syncLocked() error {
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("service: sync segment: %w", err)
	}
	if err := db.fsum.Sync(); err != nil {
		return fmt.Errorf("service: sync sidecar: %w", err)
	}
	db.pendingPuts = 0
	return nil
}

// Compact merges every segment into one: the full index, in Snapshot order,
// written to a fresh highest-numbered segment (with sidecar), after which
// the old segments and sidecars are removed. Superseded duplicates — the
// same hash re-recorded across restarts — and quarantined bytes are what
// compaction sheds. Quarantine files are deliberately left behind: they are
// forensic evidence, removed by the operator, not by the machine.
//
// Crash-safe at every boundary: the merged segment is built under temp
// names, synced, then renamed into place (data before sidecar) — and
// because it carries the highest sequence number, last-write-wins replay
// makes it authoritative whether or not the old segments' removal completed.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("service: compact on closed db")
	}
	if err := db.rotateLocked(); err != nil {
		return err
	}
	// rotateLocked advanced db.seq past the active segment: that number is
	// free for the merged segment.
	newSeq := db.seq
	old, err := db.fs.Glob(filepath.Join(db.dir, "seg-*.jsonl"))
	if err != nil {
		return fmt.Errorf("service: scan db dir: %w", err)
	}
	sort.Strings(old)

	keys := db.sortedKeysLocked()
	tmpData := filepath.Join(db.dir, "compact.jsonl.tmp")
	tmpSum := filepath.Join(db.dir, "compact.sum.tmp")
	write := func(path string, emit func(io.Writer) error) error {
		f, err := db.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close() //nolint:errcheck // surfacing the write error
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close() //nolint:errcheck // surfacing the sync error
			return err
		}
		return f.Close()
	}
	if err := write(tmpData, func(w io.Writer) error {
		for _, h := range keys {
			if _, err := w.Write(append(db.entries[h].line, '\n')); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("service: compact data: %w", err)
	}
	if err := write(tmpSum, func(w io.Writer) error {
		for _, h := range keys {
			sum := fmt.Sprintf("%08x\n", crc32.Checksum(db.entries[h].line, castagnoli))
			if _, err := io.WriteString(w, sum); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("service: compact sidecar: %w", err)
	}
	// Data before sidecar: a crash between the renames leaves the merged
	// data covered by decode-replay, never a sidecar vouching for nothing.
	if err := db.fs.Rename(tmpData, filepath.Join(db.dir, segmentName(newSeq))); err != nil {
		return fmt.Errorf("service: install compacted segment: %w", err)
	}
	if err := db.fs.Rename(tmpSum, filepath.Join(db.dir, sumName(newSeq))); err != nil {
		return fmt.Errorf("service: install compacted sidecar: %w", err)
	}
	for _, name := range old {
		seq, ok := segmentSeq(name)
		if !ok || seq == newSeq {
			continue
		}
		if err := db.fs.Remove(name); err != nil {
			return fmt.Errorf("service: remove old segment: %w", err)
		}
		sidecar := filepath.Join(db.dir, sumName(seq))
		if err := db.fs.Remove(sidecar); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("service: remove old sidecar: %w", err)
		}
	}
	db.seq = newSeq + 1
	db.segments = 1
	db.size = 0
	return nil
}

// sortedKeysLocked returns every hash in Snapshot order: spec, load, seed,
// then hash — the deterministic order reports and compaction share.
func (db *DB) sortedKeysLocked() []string {
	keys := make([]string, 0, len(db.entries))
	for h := range db.entries {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := db.entries[keys[i]], db.entries[keys[j]]
		if a.spec != b.spec {
			return a.spec < b.spec
		}
		if a.load != b.load {
			return a.load < b.load
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Len reports how many distinct job hashes the database resolves.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// Stats snapshots the database accounting for /status and /metrics.
func (db *DB) Stats() DBStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return DBStats{
		Entries: len(db.entries), Segments: db.segments,
		Hits: db.hits, Misses: db.misses,
		Healed: db.healed, Quarantined: db.quarantined, PutErrors: db.putErrors,
	}
}

// Snapshot writes every entry as canonical JSONL in a stable order (spec,
// load, seed, then hash), so two databases holding the same results
// snapshot byte-identically whatever their segment layout.
func (db *DB) Snapshot(w io.Writer) error {
	db.mu.Lock()
	keys := db.sortedKeysLocked()
	lines := make([][]byte, len(keys))
	for i, h := range keys {
		lines[i] = db.entries[h].line
	}
	db.mu.Unlock()
	for _, line := range lines {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and closes the active segment and sidecar, surfacing any
// error from either. Further Puts fail; a second Close is a no-op.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	f, fsum := db.f, db.fsum
	db.f, db.fsum = nil, nil
	var firstErr error
	for _, c := range []iofault.File{f, fsum} {
		if c == nil {
			continue
		}
		if err := c.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
