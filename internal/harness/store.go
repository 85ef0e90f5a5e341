package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"frfc/internal/experiment"
)

// ResultStore is the cache a campaign consults before running a job and
// appends to after each success. Get reports whether the hash resolved; Put
// must be durable before it returns. Implementations must be safe for
// concurrent use from worker goroutines. *Store is the single-file
// implementation; internal/service's segmented database is another.
type ResultStore interface {
	Get(hash string) (experiment.Result, bool)
	Put(j Job, hash string, r experiment.Result) error
}

// Entry is one JSONL line of a result store — the JSONL store's, a segment of
// the service database's, a results stream's. Spec, Load and Seed are recorded
// for human inspection and downstream tooling; only Hash keys lookups. Result
// is the simulator's Result under its Go field names, its Observed sidecar
// present only on lines whose run was observed.
type Entry struct {
	Hash   string            `json:"hash"`
	Spec   string            `json:"spec"`
	Load   float64           `json:"load"`
	Seed   uint64            `json:"seed,omitempty"`
	Result experiment.Result `json:"result"`
}

// MarshalEntry renders the canonical JSONL store line (no trailing newline)
// for one completed job. Every store implementation writes lines through it,
// so a result serialized by the service database is byte-identical to the
// same result serialized by a one-shot campaign store — the property the
// byte-identity smoke tests compare across layers.
func MarshalEntry(j Job, hash string, r experiment.Result) ([]byte, error) {
	line, err := json.Marshal(Entry{
		Hash: hash, Spec: j.EffectiveSpec().Name, Load: j.Load, Seed: j.Seed, Result: r,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: encode result: %w", err)
	}
	return line, nil
}

// DecodeEntry is MarshalEntry's inverse and the one decoder of store lines:
// OpenStore, the service database's replay and the report reader all go
// through it. A line that is not a JSON entry, or that names no hash, is an
// error — what each reader then does with such a line (skip, heal, quarantine,
// refuse the file) is its own policy. Keys the Entry does not declare are
// ignored, so a line an older version wrote (flat observer fields inside
// result, hash v6 and earlier) decodes to its measurement with a nil sidecar;
// it is never served, because no current job hashes to its key.
func DecodeEntry(line []byte) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return Entry{}, err
	}
	if e.Hash == "" {
		return Entry{}, errors.New("missing hash")
	}
	return e, nil
}

// Store is an append-only JSONL result cache keyed by job content hash. It is
// safe for concurrent use; every Put is flushed before it returns, so a
// killed campaign loses at most the jobs in flight. Opening tolerates a
// truncated final line (the footprint of a kill mid-write): complete lines
// load, the partial line is ignored and simply re-run. The zero Store is its
// file-less form: a cache for one process, held in memory only.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	entries map[string]experiment.Result
	skipped int
}

// OpenStore opens (creating if absent) the JSONL store at path and loads
// every decodable line. Undecodable lines — a truncated tail from a killed
// run, or foreign junk — are counted in Skipped and otherwise ignored.
func OpenStore(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open store: %w", err)
	}
	s := &Store{f: f, entries: make(map[string]experiment.Result)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := DecodeEntry(line)
		if err != nil {
			s.skipped++
			continue
		}
		s.entries[e.Hash] = e.Result
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: read store: %w", err)
	}
	// Append after whatever was read, including any partial tail; a
	// leading newline guard on the next Put would complicate the format,
	// so instead complete the file to a line boundary now.
	if off, err := f.Seek(0, 2); err == nil && off > 0 {
		buf := make([]byte, 1)
		if _, err := f.ReadAt(buf, off-1); err == nil && buf[0] != '\n' {
			f.Write([]byte("\n"))
		}
	}
	return s, nil
}

// Get returns the cached result for a job hash.
func (s *Store) Get(hash string) (experiment.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.entries[hash]
	return r, ok
}

// Put records a completed job, appending one JSONL line and syncing it when
// the store has a file.
func (s *Store) Put(j Job, hash string, r experiment.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		line, err := MarshalEntry(j, hash, r)
		if err != nil {
			return err
		}
		if _, err := s.f.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("harness: append result: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("harness: sync store: %w", err)
		}
	}
	if s.entries == nil {
		s.entries = make(map[string]experiment.Result)
	}
	s.entries[hash] = r
	return nil
}

// Len reports how many results the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Skipped reports how many undecodable lines OpenStore ignored.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Close closes the underlying file. Further Puts fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}
