// Package store implements the persistent backing stash behind the
// global cache: a content-addressed on-disk object store playing the
// role DAOS/Lustre play in the paper. Authoritative copies of cached
// artifacts live here; cache tiers repopulate from it after node
// failures, and a "disk stash" read is the cache's last resort before
// recomputing.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"ids/internal/fault"
)

// ErrNotFound is returned for absent objects.
var ErrNotFound = errors.New("store: object not found")

// CostModel is the modeled access time of the backing store
// (Lustre-class: milliseconds of latency, hundreds of MB/s).
type CostModel struct {
	Latency   float64
	Bandwidth float64
}

// DefaultCost approximates a busy parallel filesystem.
func DefaultCost() CostModel {
	return CostModel{Latency: 5e-3, Bandwidth: 500e6}
}

// Cost returns the modeled seconds for n bytes.
func (c CostModel) Cost(n int) float64 {
	if c.Bandwidth <= 0 {
		return c.Latency
	}
	return c.Latency + float64(n)/c.Bandwidth
}

// Store is a content-addressed object store with a name index.
type Store struct {
	dir  string
	cost CostModel
	fs   fault.FS

	mu    sync.RWMutex
	index map[string]string // name -> content hash
}

// Open creates or reopens a store rooted at dir.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, fault.OS)
}

// OpenFS is Open through an explicit filesystem, making every object
// write, index swap, and read a fault-injection seam.
func OpenFS(dir string, fsys fault.FS) (*Store, error) {
	if fsys == nil {
		fsys = fault.OS
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, cost: DefaultCost(), fs: fsys, index: map[string]string{}}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

func (s *Store) loadIndex() error {
	data, err := s.fs.ReadFile(s.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(data, &s.index); err != nil {
		return fmt.Errorf("store: corrupt index: %w", err)
	}
	return nil
}

func (s *Store) saveIndexLocked() error {
	data, err := json.Marshal(s.index)
	if err != nil {
		return err
	}
	tmp := s.indexPath() + ".tmp"
	if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return s.fs.Rename(tmp, s.indexPath())
}

// tmpSeq numbers object temp files process-wide, since several Stores
// in one process may share an objects directory.
var tmpSeq atomic.Int64

// Hash returns the content hash of data as hex.
func Hash(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// Put stores data under name, returning the content hash and the
// modeled write cost in seconds. Re-putting the same name replaces the
// mapping; identical content is stored once.
func (s *Store) Put(name string, data []byte) (string, float64, error) {
	hash := Hash(data)
	path := filepath.Join(s.dir, "objects", hash)
	if _, err := s.fs.Stat(path); errors.Is(err, os.ErrNotExist) {
		// A writer-unique temp name: concurrent Puts of the same content
		// each rename their own complete copy into place.
		tmp := fmt.Sprintf("%s.%d-%d.tmp", path, os.Getpid(), tmpSeq.Add(1))
		if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
			return "", 0, fmt.Errorf("store: %w", err)
		}
		if err := s.fs.Rename(tmp, path); err != nil {
			return "", 0, fmt.Errorf("store: %w", err)
		}
	} else if err != nil {
		return "", 0, fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.index[name] = hash
	err := s.saveIndexLocked()
	s.mu.Unlock()
	if err != nil {
		return "", 0, fmt.Errorf("store: %w", err)
	}
	return hash, s.cost.Cost(len(data)), nil
}

// Get returns the object stored under name and the modeled read cost.
func (s *Store) Get(name string) ([]byte, float64, error) {
	s.mu.RLock()
	hash, ok := s.index[name]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	data, err := s.fs.ReadFile(filepath.Join(s.dir, "objects", hash))
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return data, s.cost.Cost(len(data)), nil
}

// Has reports whether name is stored.
func (s *Store) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[name]
	return ok
}

// HashOf returns the content hash recorded for name.
func (s *Store) HashOf(name string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.index[name]
	return h, ok
}

// Delete removes the name mapping (content remains for other names).
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.index, name)
	return s.saveIndexLocked()
}

// List returns all stored names, sorted.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for name := range s.index {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored names.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}
