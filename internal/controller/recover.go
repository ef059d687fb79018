package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"syrep/internal/network"
	"syrep/internal/obs"
)

// RecoveryInfo summarizes what Recover reconstructed from the journal.
type RecoveryInfo struct {
	// Epoch is the recovered topology epoch.
	Epoch uint64
	// Down lists the recovered down links, sorted.
	Down []string
	// Records counts replayed tail records; SnapshotLoaded tells whether a
	// state snapshot seeded the replay.
	Records        int
	SnapshotLoaded bool
	// TornTail tells whether the journal's final segment ended mid-record;
	// when set, every destination is poisoned (the torn record's
	// destination is unknowable) and resynced by snapshot.
	TornTail bool
	// Poisoned lists destinations that will be resynced with a full
	// snapshot: dead-lettered before the crash, holding unacknowledged
	// in-flight deltas at the crash, or everything after a torn tail.
	Poisoned []string
	// CacheSeeded counts destinations whose acked tables were decoded back
	// into the warm cache.
	CacheSeeded int
	// DeadLetters counts restored dead-letter queue entries.
	DeadLetters int
}

// replayState folds the journal's record stream back into a frontier.
type replayState struct {
	epoch    uint64
	down     map[string]bool
	acked    map[string]walAcked
	pending  map[string][]Delta // journaled, not yet acked, in push order
	poisoned map[string]bool
	dlq      []DeadLetter
}

func newReplayState() *replayState {
	return &replayState{
		down:     make(map[string]bool),
		acked:    make(map[string]walAcked),
		pending:  make(map[string][]Delta),
		poisoned: make(map[string]bool),
	}
}

func (s *replayState) apply(snapshot bool, payload []byte) error {
	if snapshot {
		var snap walSnap
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("controller: recover snapshot decode: %w", err)
		}
		*s = *newReplayState()
		s.epoch = snap.Epoch
		for _, link := range snap.Down {
			s.down[link] = true
		}
		for dest, a := range snap.Acked {
			if a.Table == nil {
				a.Table = make(map[string]TableEntry)
			}
			s.acked[dest] = a
		}
		for _, dest := range snap.Poisoned {
			s.poisoned[dest] = true
		}
		for _, dl := range snap.DLQ {
			s.dlq = append(s.dlq, DeadLetter{
				Delta: dl.Delta, Err: errors.New(dl.Err), Attempts: dl.Attempts,
			})
		}
		return nil
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("controller: recover record decode: %w", err)
	}
	switch rec.T {
	case "event":
		if rec.Up {
			delete(s.down, rec.Link)
		} else {
			s.down[rec.Link] = true
		}
		if rec.Epoch > s.epoch {
			s.epoch = rec.Epoch
		}
	case "delta":
		if rec.Delta == nil {
			return errors.New("controller: recover: delta record without delta")
		}
		s.pending[rec.Delta.Dest] = append(s.pending[rec.Delta.Dest], *rec.Delta)
	case "ack":
		// The pusher is FIFO per destination, so acks fold the pending
		// queue front-first up to the acked epoch.
		queue := s.pending[rec.Dest]
		folded := 0
		for _, d := range queue {
			if d.Epoch > rec.Epoch {
				break
			}
			a := s.acked[rec.Dest]
			a.Table = applyDelta(a.Table, d)
			a.Epoch = d.Epoch
			a.Degraded = d.Degraded
			s.acked[rec.Dest] = a
			folded++
		}
		s.pending[rec.Dest] = queue[folded:]
		// A delivered snapshot re-baselines the receiver: poison clears,
		// mirroring the live pusher's clearPoison.
		if s.poisoned[rec.Dest] {
			delete(s.poisoned, rec.Dest)
		}
	case "dead":
		if rec.Delta == nil {
			return errors.New("controller: recover: dead record without delta")
		}
		d := *rec.Delta
		queue := s.pending[d.Dest]
		for i, p := range queue {
			if p.Epoch == d.Epoch {
				s.pending[d.Dest] = append(queue[:i], queue[i+1:]...)
				break
			}
		}
		s.poisoned[d.Dest] = true
		s.dlq = append(s.dlq, DeadLetter{
			Delta: d, Err: errors.New(rec.Err), Attempts: rec.Attempts,
		})
	default:
		return fmt.Errorf("controller: recover: unknown record type %q", rec.T)
	}
	return nil
}

// Recover rebuilds a controller from its journal instead of starting cold.
// cfg.Journal must be freshly opened (journal.Open, no appends yet) over
// the surviving directory. The replayed frontier reconstructs the epoch,
// the down-link set, and each destination's sink-acknowledged table; the
// pusher resumes idempotently (per-destination ack watermarks ensure an
// acked delta is never re-pushed); destinations with in-flight deltas at
// the crash — and every destination after a torn tail — are poisoned, so
// their next push is a full snapshot, which the sink applies as an
// idempotent wholesale replace. Acked tables are decoded back into the
// warm cache so post-restart repairs start warm. Every destination is
// marked dirty: the first reconcile pass recomputes tables against the
// recovered topology and pushes only genuine differences.
//
// Recovery finishes by writing a fresh state snapshot — compacting the
// replayed records — before Run starts; a crash anywhere inside Recover
// leaves the journal replayable again (double-crash safety, proven by the
// crash matrix).
func Recover(cfg Config) (*Controller, RecoveryInfo, error) {
	var info RecoveryInfo
	if cfg.Journal == nil {
		return nil, info, errors.New("controller: Recover requires Config.Journal")
	}
	c, err := New(cfg)
	if err != nil {
		return nil, info, err
	}
	st := newReplayState()
	stats, err := cfg.Journal.Replay(st.apply)
	if err != nil {
		return nil, info, fmt.Errorf("controller: recover replay: %w", err)
	}
	info.Records = stats.Records
	info.SnapshotLoaded = stats.Snapshot
	info.TornTail = stats.TornTail

	// A torn tail means the journal's final records are unattributable:
	// poison every destination and trust nothing beyond the acked epochs.
	if stats.TornTail {
		for _, dest := range c.dests {
			st.poisoned[dest] = true
		}
	}
	for dest, queue := range st.pending {
		if len(queue) > 0 {
			st.poisoned[dest] = true
		}
	}

	c.epoch = st.epoch
	c.obs().Gauge(obs.CtlEpoch).Set(int64(c.epoch))
	var drops []network.EdgeID
	for link := range st.down {
		e, ok := cfg.Base.EdgeByKey(link)
		if !ok {
			return nil, info, fmt.Errorf("controller: recover: journaled link %q not in base topology", link)
		}
		c.down[link] = e
		drops = append(drops, e)
		info.Down = append(info.Down, link)
	}
	sort.Strings(info.Down)
	sort.Slice(drops, func(i, j int) bool { return drops[i] < drops[j] })

	watermarks := make(map[string]uint64, len(st.acked))
	for dest, a := range st.acked {
		watermarks[dest] = a.Epoch
		if st.poisoned[dest] {
			// The sink's exact state is unknowable past the last ack:
			// drop the baseline so the next delta is a full snapshot.
			continue
		}
		c.acked[dest] = a.Table
		c.ackedEpoch[dest] = a.Epoch
		c.ackedDegraded[dest] = a.Degraded
		c.lastPushed[dest] = cloneTable(a.Table)
	}
	for dest := range st.poisoned {
		info.Poisoned = append(info.Poisoned, dest)
	}
	sort.Strings(info.Poisoned)
	info.DeadLetters = len(st.dlq)
	c.push.seedRecovery(info.Poisoned, watermarks, st.dlq)

	// Re-seed the warm cache from trustworthy acked tables so the first
	// repair pass starts warm instead of synthesizing cold. Tables that no
	// longer decode on the recovered topology (e.g. referencing a link
	// that is now down) are skipped, not fatal — the pass will resynthesize.
	if cfg.Cache != nil {
		if topo, terr := network.WithoutEdges(cfg.Base, drops); terr == nil {
			for dest, a := range st.acked {
				if st.poisoned[dest] || a.Degraded || len(a.Table) == 0 {
					continue
				}
				if r, derr := decodeTable(topo, dest, a.Table); derr == nil {
					c.cachePut(topo, r)
					info.CacheSeeded++
				}
			}
		}
	}

	// Everything is dirty: the first pass recomputes each table and
	// pushes only what actually differs from the acked baseline.
	for _, dest := range c.dests {
		c.dirty[dest] = true
	}
	c.inbox.signal()

	// Seal recovery with a fresh snapshot, compacting the replayed
	// records. This write is itself a journaled crash point: dying here
	// leaves either the old records (recovered again) or the snapshot.
	ferr := func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.walSnapshotLocked()
		return c.walFatal
	}()
	if ferr != nil {
		return nil, info, fmt.Errorf("controller: recover snapshot: %w", ferr)
	}
	info.Epoch = c.epoch
	return c, info, nil
}

// cloneTable copies a wire table so recovered state never aliases the
// acked baseline.
func cloneTable(t map[string]TableEntry) map[string]TableEntry {
	if t == nil {
		return nil
	}
	out := make(map[string]TableEntry, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}
