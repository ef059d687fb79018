package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"syrep/internal/routing"
	"syrep/internal/verify"
)

// solvedTables keeps, per operation id, the first solved routing (for the
// brute-force re-verification) and its fingerprint (for the determinism
// checks). Later rounds only compare fingerprints.
type solvedTables struct {
	tables map[string]*routing.Routing
	ks     map[string]int
	fps    map[string]string
	errs   []error
}

func newSolvedTables() *solvedTables {
	return &solvedTables{
		tables: map[string]*routing.Routing{},
		ks:     map[string]int{},
		fps:    map[string]string{},
	}
}

// add records a solved operation's routing at resilience level k.
func (s *solvedTables) add(id string, r *routing.Routing, k int) {
	fp := r.Fingerprint().String()
	if prev, ok := s.fps[id]; ok {
		if prev != fp {
			s.errs = append(s.errs, fmt.Errorf("%s: fingerprint %s differs from an earlier round's %s", id, fp, prev))
		}
		return
	}
	s.tables[id], s.ks[id], s.fps[id] = r, k, fp
}

// verifyAll re-verifies every recorded table with brute-force verify.Check
// at its k and returns the first failure, together with any cross-round
// fingerprint mismatch.
func (s *solvedTables) verifyAll(ctx context.Context) error {
	if len(s.errs) > 0 {
		return errors.Join(s.errs...)
	}
	for _, id := range s.ids() {
		rep, err := verify.Check(ctx, s.tables[id], s.ks[id], verify.Options{StopAtFirst: true})
		if err != nil {
			return fmt.Errorf("%s: verify: %w", id, err)
		}
		if !rep.Resilient {
			return fmt.Errorf("%s: table counted as solved is not %d-resilient", id, s.ks[id])
		}
	}
	return nil
}

func (s *solvedTables) ids() []string {
	ids := make([]string, 0, len(s.fps))
	for id := range s.fps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// golden compares the fingerprints with those an earlier run of the same
// workload and seed stored under dir, failing on any operation both runs
// solved with different tables; operations new to this run are added to the
// file. It returns a digest over all fingerprints of this run.
func (s *solvedTables) golden(dir, workload string, seed int64) (string, error) {
	h := sha256.New()
	for _, id := range s.ids() {
		fmt.Fprintf(h, "%s %s\n", id, s.fps[id])
	}
	digest := hex.EncodeToString(h.Sum(nil))[:16]

	path := filepath.Join(dir, fmt.Sprintf("fingerprints-%s-seed%d.json", workload, seed))
	stored := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &stored); err != nil {
			return digest, fmt.Errorf("read %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return digest, err
	}
	changed := false
	for _, id := range s.ids() {
		prev, ok := stored[id]
		switch {
		case !ok:
			stored[id] = s.fps[id]
			changed = true
		case prev != s.fps[id]:
			return digest, fmt.Errorf("%s: fingerprint %s differs from %s stored by an earlier run of seed %d (%s)",
				id, s.fps[id], prev, seed, path)
		}
	}
	if !changed {
		return digest, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return digest, err
	}
	data, err := json.MarshalIndent(stored, "", "  ")
	if err != nil {
		return digest, err
	}
	return digest, os.WriteFile(path, append(data, '\n'), 0o644)
}
