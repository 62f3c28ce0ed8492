package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// LogSet shards the command log one file per partition, the way
// H-Store logs per execution site (§3.1): each partition appends to
// its own Logger — its own file, its own mutex, its own fsyncs — so
// durability-on configurations scale with partitions instead of
// serializing on one fsync queue. Every record is stamped
// from one lock-free global commit sequence, so the per-partition
// files merge back into total commit order for strong recovery.
type LogSet struct {
	loggers []*Logger
	// byPid maps a global partition ID to its logger; on a cluster
	// node the set covers only the node's own partitions (the sparse
	// case), so durability and recovery stay node-local.
	byPid map[int]*Logger
	seq   atomic.Uint64
}

// SetOptions configures a LogSet.
type SetOptions struct {
	// Path is the log directory, created if missing; partition N
	// logs to <dir>/cmd-p<N>.log.
	Path string
	// Partitions is the number of per-partition logs.
	Partitions int
	// Policy selects the durability mode, per Logger.
	Policy SyncPolicy
	// SegmentBytes rotates each partition's log into bounded segments,
	// per Logger.Options: sealed segments age out whole during
	// compaction instead of being rewritten. Zero keeps one file per
	// partition.
	SegmentBytes int64
	// PartitionIDs, when non-nil, opens logs for exactly these global
	// partition IDs instead of the dense 0..Partitions-1 range: a
	// cluster node logs only the partitions it owns, under their
	// global IDs, so shard files stay addressable cluster-wide while
	// each node's recovery replays only local state.
	PartitionIDs []int
}

// PartitionPath names a partition's log file in the log directory:
// <dir>/cmd-p<N>.log.
func PartitionPath(dir string, pid int) string {
	return filepath.Join(dir, fmt.Sprintf("cmd-p%d.log", pid))
}

// OpenSet opens one Logger per partition in the log directory, all
// drawing LSNs from the set's shared commit sequence.
func OpenSet(opts SetOptions) (*LogSet, error) {
	if err := os.MkdirAll(opts.Path, 0o755); err != nil {
		return nil, fmt.Errorf("wal: log dir: %w", err)
	}
	pids := opts.PartitionIDs
	if pids == nil {
		if opts.Partitions <= 0 {
			opts.Partitions = 1
		}
		pids = make([]int, opts.Partitions)
		for i := range pids {
			pids[i] = i
		}
	}
	s := &LogSet{byPid: make(map[int]*Logger, len(pids))}
	for _, pid := range pids {
		l, err := Open(Options{
			Path:         PartitionPath(opts.Path, pid),
			Policy:       opts.Policy,
			Seq:          &s.seq,
			SegmentBytes: opts.SegmentBytes,
		})
		if err != nil {
			//lint:allow errdrop -- best-effort cleanup; the open error is what the caller needs
			s.Close()
			return nil, err
		}
		s.loggers = append(s.loggers, l)
		s.byPid[pid] = l
	}
	return s, nil
}

// Partitions returns the number of per-partition logs.
func (s *LogSet) Partitions() int { return len(s.loggers) }

// Append stamps the record with the next global sequence number and
// appends it to the partition's log, blocking until durable per the
// sync policy. Appends to different partitions proceed in parallel —
// no shared lock, no shared fsync queue.
func (s *LogSet) Append(pid int, rec *Record) (uint64, error) {
	l, ok := s.byPid[pid]
	if !ok {
		return 0, fmt.Errorf("wal: no log for partition %d", pid)
	}
	return l.Append(rec)
}

// LastSeq returns the most recently assigned global sequence number
// (0 when none).
func (s *LogSet) LastSeq() uint64 { return s.seq.Load() }

// SetNextSeq positions the global sequence counter; used after replay
// so new commits continue past everything already logged.
func (s *LogSet) SetNextSeq(seq uint64) { s.seq.Store(seq - 1) }

// Stats sums appended records and fsync calls across all partition
// logs.
func (s *LogSet) Stats() (appends, syncs uint64) {
	for _, l := range s.loggers {
		a, y := l.Stats()
		appends += a
		syncs += y
	}
	return appends, syncs
}

// Bytes sums the bytes appended across all partition logs since open —
// a monotonic counter (compaction does not rewind it) that drives the
// automatic-checkpoint policy: checkpoint once the log has grown by a
// configured amount since the last one.
func (s *LogSet) Bytes() uint64 {
	var total uint64
	for _, l := range s.loggers {
		total += l.Bytes()
	}
	return total
}

// CompactBefore truncates every partition's log against the snapshot
// sequence stamp: records at or below keepAfter are reflected in that
// partition's checkpoint and never replay. Each log is rewritten
// independently and atomically; the caller must hold the engine
// quiesced.
func (s *LogSet) CompactBefore(keepAfter uint64) error {
	for _, l := range s.loggers {
		if err := l.CompactBefore(keepAfter); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every partition's log, flushing buffered records.
func (s *LogSet) Close() error {
	var first error
	for _, l := range s.loggers {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetPaths lists the per-partition log base paths in the log
// directory in partition order. A partition rotated into segments is
// recognized by its cmd-p<N>.log.s<k> files and listed once, by its
// base path — OpenReader chains the segments back into one stream,
// even when the base file itself aged out. A missing directory holds
// no logs.
func SetPaths(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list logs: %w", err)
	}
	var pids []int
	for _, ent := range ents {
		// A log file is cmd-p<N>.log or its segment cmd-p<N>.log.s<k>.
		rest, ok := strings.CutPrefix(ent.Name(), "cmd-p")
		if !ok {
			continue
		}
		num, seg, ok := strings.Cut(rest, ".log")
		if !ok {
			continue
		}
		pid, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		if seg != "" {
			k, ok := strings.CutPrefix(seg, ".s")
			if n, err := strconv.Atoi(k); !ok || err != nil || n <= 0 {
				continue
			}
		}
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	paths := make([]string, 0, len(pids))
	for _, pid := range slices.Compact(pids) {
		paths = append(paths, PartitionPath(dir, pid))
	}
	return paths, nil
}

// SetReader k-way merge-streams every log in a directory by global
// sequence number, reconstructing total commit order across
// partitions while holding only one record per shard in memory.
// Strong recovery replays this merged stream.
type SetReader struct {
	readers []*Reader
	heads   []*Record
	err     error
}

// OpenSetReader opens every log in the log directory for a merged
// streaming read. Empty and absent logs are skipped.
func OpenSetReader(dir string) (*SetReader, error) {
	paths, err := SetPaths(dir)
	if err != nil {
		return nil, err
	}
	s := &SetReader{}
	for _, p := range paths {
		r, err := OpenReader(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			s.Close()
			return nil, fmt.Errorf("wal: read: %w", err)
		}
		rec, rerr := r.Next()
		if rerr == io.EOF {
			r.Close() // empty log (or torn from the first frame)
			continue
		}
		if rerr != nil {
			r.Close()
			s.Close()
			return nil, rerr
		}
		s.readers = append(s.readers, r)
		s.heads = append(s.heads, rec)
	}
	return s, nil
}

// Next returns the record with the lowest sequence number across all
// shards, or io.EOF when every shard is exhausted. A genuine read
// failure on any shard is reported (after the records already merged
// are delivered) rather than read as end-of-log, so a failing disk
// never silently truncates the merged stream.
func (s *SetReader) Next() (*Record, error) {
	best := -1
	for i, h := range s.heads {
		if h == nil {
			continue
		}
		if best < 0 || h.LSN < s.heads[best].LSN {
			best = i
		}
	}
	if best < 0 {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	rec := s.heads[best]
	nxt, err := s.readers[best].Next()
	if err != nil {
		if err != io.EOF && s.err == nil {
			s.err = err
		}
		s.heads[best] = nil
		s.readers[best].Close()
		s.readers[best] = nil
	} else {
		s.heads[best] = nxt
	}
	return rec, nil
}

// Close releases any shards not yet exhausted.
func (s *SetReader) Close() error {
	for i, r := range s.readers {
		if r != nil {
			r.Close()
			s.readers[i] = nil
		}
	}
	return nil
}

// ReadSetMerged reads every log in the log directory into memory in
// merged global-sequence order; replay paths should prefer streaming
// with OpenSetReader.
func ReadSetMerged(dir string) ([]*Record, error) {
	r, err := OpenSetReader(dir)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var recs []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}
