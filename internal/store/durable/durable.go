package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"exlengine/internal/exlerr"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/store"
)

// ErrFailed is wrapped by every write rejected after a disk fault: once
// an append or fsync fails, the on-disk tail is in an unknown state, so
// the store fails writes fast (reads keep serving the in-memory state)
// until it is reopened and recovery re-establishes a consistent prefix.
var ErrFailed = errors.New("durable: store disabled after disk fault; reopen to recover")

// diskErr classifies a disk fault as a typed exlerr error: Fatal,
// because retrying the same write against a failing device cannot help,
// but errors.Is still reaches the underlying cause.
func diskErr(op string, err error) error {
	return exlerr.New(exlerr.Fatal, fmt.Errorf("durable: %s: %w", op, err))
}

// Options configure a durable store.
type Options struct {
	// FS is the filesystem; nil means the real one (OSFS).
	FS FS
	// CompactAfterBytes triggers a segment snapshot + WAL rotation once
	// the active WAL exceeds this many bytes. Zero means the default
	// (4 MiB); negative disables automatic compaction.
	CompactAfterBytes int64
	// Metrics receives durability metrics (wal bytes, fsyncs,
	// recovery_ms, truncated records). Nil records nothing.
	Metrics *obs.Registry
}

// Option mutates Options.
type Option func(*Options)

// WithFS substitutes the filesystem (fault injection, tests).
func WithFS(fs FS) Option { return func(o *Options) { o.FS = fs } }

// WithCompactAfter sets the WAL size that triggers compaction
// (negative: never compact automatically).
func WithCompactAfter(bytes int64) Option {
	return func(o *Options) { o.CompactAfterBytes = bytes }
}

// WithMetrics attaches a metrics registry.
func WithMetrics(m *obs.Registry) Option { return func(o *Options) { o.Metrics = m } }

// RecoveryStats describes what Open found and repaired.
type RecoveryStats struct {
	// SnapshotGen is the generation of the segment snapshot recovery
	// started from (0: no snapshot, cold start).
	SnapshotGen uint64
	// CorruptSegments counts newer snapshots that failed verification
	// and were skipped in favour of an older consistent one.
	CorruptSegments int
	// ReplayedRecords is the number of WAL records applied on top of
	// the snapshot.
	ReplayedRecords int
	// TruncatedRecords counts torn or corrupt WAL tails that were cut
	// off (at most one per WAL file).
	TruncatedRecords int
	// Generation is the store generation after recovery.
	Generation uint64
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Store is a crash-safe cube store: the in-memory store.Store for reads
// (zero-copy frozen cubes, GetAsOf, generation MVCC — semantics are
// identical), with every mutation written ahead to a checksummed WAL and
// periodically folded into segment snapshots. Generations, provenance and
// overwrite watermarks are on disk too, so the wrapped store's generation
// is the durable one and continues across restarts. It implements the same
// API surface the engine consumes (engine.CubeStore).
type Store struct {
	dir  string
	fs   FS
	opts Options

	mem *store.Store

	mu     sync.Mutex // serializes mutations and compaction
	wal    *walWriter
	failed error // sticky disk fault; writes fail fast

	recovery RecoveryStats
}

// Open recovers (or initializes) a durable store in dir: it loads the
// newest verifiable segment snapshot, replays the WAL chain on top —
// truncating at the first torn or corrupt record — then writes a fresh
// snapshot of the recovered state and rotates a new WAL, pruning
// everything older. After Open returns, dir contains exactly one
// snapshot and one active WAL, and the store's contents are a prefix of
// the generations committed before the last shutdown or crash.
func Open(dir string, options ...Option) (*Store, error) {
	opts := Options{}
	for _, o := range options {
		o(&opts)
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.CompactAfterBytes == 0 {
		opts.CompactAfterBytes = 4 << 20
	}
	start := time.Now()
	d := &Store{dir: dir, fs: opts.FS, opts: opts, mem: store.New()}
	if err := d.fs.MkdirAll(dir); err != nil {
		return nil, diskErr("creating store directory", err)
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	d.recovery.Elapsed = time.Since(start)
	d.recovery.Generation = d.Generation()
	m := opts.Metrics
	m.Gauge(obs.MetricStoreRecoveryMS).Set(d.recovery.Elapsed.Milliseconds())
	m.Counter(obs.MetricStoreTruncatedRecords).Add(int64(d.recovery.TruncatedRecords))
	return d, nil
}

// Recovery returns what Open found and repaired.
func (d *Store) Recovery() RecoveryStats { return d.recovery }

// Dir returns the store directory.
func (d *Store) Dir() string { return d.dir }

func segmentName(gen uint64) string { return fmt.Sprintf("seg-%016x.snap", gen) }
func walName(gen uint64) string     { return fmt.Sprintf("wal-%016x.log", gen) }

// parseGen extracts the generation from a "prefix-<hex>.suffix" name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var gen uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// recover rebuilds the in-memory state from dir; see Open.
func (d *Store) recover() error {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return diskErr("listing store directory", err)
	}
	var segGens, walGens []uint64
	for _, name := range names {
		if g, ok := parseGen(name, "seg-", ".snap"); ok {
			segGens = append(segGens, g)
		} else if g, ok := parseGen(name, "wal-", ".log"); ok {
			walGens = append(walGens, g)
		}
		// Anything else (leftover .tmp files from an interrupted
		// snapshot) is pruned below once recovery succeeds.
	}

	// Newest verifiable snapshot wins; a corrupt one, or one no store could
	// have been in, degrades to the older.
	sortUint64(segGens)
	for i := len(segGens) - 1; i >= 0; i-- {
		st, err := loadSnapshot(d.fs, filepath.Join(d.dir, segmentName(segGens[i])))
		var mem *store.Store
		if err == nil {
			mem, err = store.Restore(st)
		}
		if err != nil {
			d.recovery.CorruptSegments++
			continue
		}
		d.mem, d.recovery.SnapshotGen = mem, st.Gen
		break
	}

	// Replay the WAL chain: each file whose base generation is at or
	// behind the current one contributes its commits past the overlap.
	// A gap (base generation ahead of the recovered one) orphans the
	// rest of the chain — those records are beyond the last consistent
	// prefix and are dropped.
	sortUint64(walGens)
	for _, wg := range walGens {
		if wg > d.mem.Generation() {
			break
		}
		path := filepath.Join(d.dir, walName(wg))
		scan, err := readWAL(d.fs, path)
		if err != nil {
			// An unreadable or truncated-below-header WAL contributes
			// nothing; recovery continues with what it has.
			d.recovery.TruncatedRecords++
			continue
		}
		torn := scan.torn
		skip := d.mem.Generation() - scan.baseGen
		for i, payload := range scan.records {
			rec, err := decodeRecord(payload)
			if err != nil {
				// CRC-valid but undecodable: treat exactly like a torn
				// record — truncate here and stop.
				scan.validSize = scan.offsets[i]
				torn = true
				break
			}
			if rec.op == opDeclare {
				// Declares are idempotent and do not bump the
				// generation; apply them even in the overlap region.
				if err := d.mem.Declare(rec.schema); err != nil {
					scan.validSize = scan.offsets[i]
					torn = true
					break
				}
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			if err := d.applyCommit(rec); err != nil {
				scan.validSize = scan.offsets[i]
				torn = true
				break
			}
			d.recovery.ReplayedRecords++
		}
		if torn {
			d.recovery.TruncatedRecords++
			// Best-effort: chop the torn tail so the file on disk is
			// exactly the prefix that was recovered.
			_ = d.fs.Truncate(path, scan.validSize)
			break
		}
	}

	// Fold the recovered state into a fresh snapshot + empty WAL and
	// prune everything older, so the directory is back to a single
	// consistent pair whatever mix of files the crash left behind.
	gen, err := writeSnapshot(d.fs, d.dir, d.mem)
	if err != nil {
		return diskErr("writing recovery snapshot", err)
	}
	d.opts.Metrics.Counter(obs.MetricStoreSegments).Inc()
	wal, err := newWALWriter(d.fs, filepath.Join(d.dir, walName(gen)), gen, d.opts.Metrics)
	if err != nil {
		return diskErr("creating WAL", err)
	}
	d.wal = wal
	d.prune(gen)
	return nil
}

// applyCommit replays one gen-bumping record into the wrapped store. A
// delta is applied to the cube's latest replayed version, which is the
// version it was made from if the log is what the store wrote; one that
// does not fit it fails the record, and recovery cuts the log there. So
// does a record stamped with another generation than the one it is
// replayed at, or a provenance naming a later one.
func (d *Store) applyCommit(rec *record) error {
	gen := d.mem.Generation() + 1
	if len(rec.cubes) == 0 || rec.op == opCommitGen && rec.gen != gen {
		return fmt.Errorf("durable: commit record (opcode %d) of generation %d, with %d cubes, replayed at %d", rec.op, rec.gen, len(rec.cubes), gen)
	}
	cubes := make(map[string]*model.Cube, len(rec.cubes))
	deltas := make(map[string]*model.CubeDelta, len(rec.cubes))
	provs := make(map[string]*store.Provenance, len(rec.cubes))
	for _, r := range rec.cubes {
		base, _ := d.mem.Get(r.name())
		c, delta, err := r.applyTo(base)
		if err != nil {
			return err
		}
		if dep, ok := r.prov.After(gen); ok {
			return fmt.Errorf("durable: %s at generation %d computed from %s after it", r.name(), gen, dep)
		}
		cubes[r.name()], deltas[r.name()], provs[r.name()] = c, delta, r.prov
	}
	_, err := d.mem.PutAllGen(cubes, deltas, provs, rec.asOf)
	return err
}

// prune removes every snapshot, WAL and temp file except the pair for
// keep. Failures are ignored: stale files are garbage, not state, and
// the next recovery skips them.
func (d *Store) prune(keep uint64) {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if g, ok := parseGen(name, "seg-", ".snap"); ok && g == keep {
			continue
		} else if g, ok := parseGen(name, "wal-", ".log"); ok && g == keep {
			continue
		}
		_ = d.fs.Remove(filepath.Join(d.dir, name))
	}
}

// --- write path ---------------------------------------------------------

// commit validates the mutation, appends its record to the WAL and
// applies it to the wrapped store — all under d.mu, so WAL order and
// memory order coincide and a record never reaches the log unless the
// apply is guaranteed to succeed. After releasing d.mu it blocks until
// the record is fsync'd: a commit is only acknowledged once it is
// durable. A disk fault poisons the store; a failed validation is an
// ordinary rejected write, exactly as on the in-memory store.
func (d *Store) commit(validate func() error, payload func() []byte, apply func() error) error {
	d.mu.Lock()
	if d.failed != nil {
		d.mu.Unlock()
		return diskErr("write rejected", d.failed)
	}
	if err := validate(); err != nil {
		d.mu.Unlock()
		return err
	}
	body := payload()
	end, err := d.wal.append(body)
	if err != nil {
		d.failed = fmt.Errorf("%w (cause: %v)", ErrFailed, err)
		d.mu.Unlock()
		return diskErr("wal append", err)
	}
	if err := apply(); err != nil {
		// Validation just passed under the same lock hold, so this is a
		// store invariant violation; poison — the WAL now holds a
		// record memory refused.
		d.failed = fmt.Errorf("%w (cause: %v)", ErrFailed, err)
		d.mu.Unlock()
		return err
	}
	wal := d.wal
	wal.inflight.Add(1)
	needCompact := d.opts.CompactAfterBytes > 0 && wal.size() >= d.opts.CompactAfterBytes
	d.mu.Unlock()

	err = wal.commit(end)
	wal.inflight.Done()
	if err != nil {
		d.mu.Lock()
		if d.failed == nil {
			d.failed = fmt.Errorf("%w (cause: %v)", ErrFailed, err)
		}
		d.mu.Unlock()
		return diskErr("wal fsync", err)
	}
	m := d.opts.Metrics
	m.Counter(obs.MetricStoreWALBytes).Add(int64(len(body)) + recordHeaderLen)
	m.Counter(obs.MetricStoreWALRecords).Inc()
	if needCompact {
		// Best-effort: the commit itself is durable, and a failed
		// compaction poisons the store on its own.
		_ = d.Compact()
	}
	return nil
}

// Declare registers a cube schema, durably. Re-declaring an existing
// schema with identical dimensions is a no-op that writes nothing.
func (d *Store) Declare(sch model.Schema) error {
	if old, ok := d.mem.Schema(sch.Name); ok && old.SameDims(sch) {
		return nil
	}
	return d.commit(
		func() error {
			if old, ok := d.mem.Schema(sch.Name); ok && !old.SameDims(sch) {
				return fmt.Errorf("store: cube %s already declared with different dimensions (%s vs %s)", sch.Name, old, sch)
			}
			return nil
		},
		func() []byte { return encodeRecord(&record{op: opDeclare, schema: sch}) },
		func() error { return d.mem.Declare(sch) },
	)
}

// Put stores a new version of the cube, valid from asOf. It returns
// only after the commit record is fsync'd to the WAL.
func (d *Store) Put(c *model.Cube, asOf time.Time) error {
	name := ""
	if c != nil { // a nil cube is rejected by validation, like any other bad write
		name = c.Schema().Name
	}
	_, err := d.PutAllGen(map[string]*model.Cube{name: c}, nil, nil, asOf)
	return err
}

// PutAllGen stores a new version of every cube atomically: one WAL record
// carries the whole batch, with its generation and the provenance handed
// in provs, so recovery replays all of it or none — all-or-nothing across
// both the WAL commit and the in-memory apply. It returns the commit
// generation the batch was stamped with, read atomically with the apply,
// and what was logged for it (see store.Store.PutAllGen).
//
// Each cube goes to the log as the delta from its latest stored version
// when that delta is small (model.CubeDelta.Small), and in full
// otherwise. The delta is the one store.NewVersion settles on — the one
// handed in deltas if it is trusted, else the one its own pass produced
// where the cube is a revision of that latest version — and failing both
// computed here, once, by model.DiffSmall. Whichever it is, the in-memory
// store keeps it on the version, so Delta for the preceding generation and
// the next segment reuse it.
func (d *Store) PutAllGen(cubes map[string]*model.Cube, handed map[string]*model.CubeDelta, provs map[string]*store.Provenance, asOf time.Time) (store.Commit, error) {
	if len(cubes) == 0 {
		return store.Commit{Gen: d.Generation()}, nil
	}
	var (
		ci     store.Commit
		frozen = make(map[string]*model.Cube, len(cubes))
		deltas = make(map[string]*model.CubeDelta, len(cubes))
	)
	err := d.commit(
		func() error { return d.mem.CheckPutAll(cubes, asOf) },
		func() []byte {
			recs := make([]cubeRec, 0, len(cubes))
			for name, c := range cubes {
				// Settle what will be stored before diffing it: the delta kept
				// on the version must point at that very cube. commit holds
				// d.mu, so the latest version stays the latest.
				latest, _ := d.mem.Get(name)
				fc, delta := store.NewVersion(latest, c, handed[name])
				frozen[name] = fc
				r := fullRec(fc)
				if delta = deltaToLog(latest, fc, delta, handed[name]); delta != nil {
					deltas[name], r = delta, deltaRec(delta)
				}
				r.prov = provs[name]
				recs = append(recs, r)
			}
			body := encodeRecord(commitRecord(asOf, d.mem.Generation()+1, recs))
			ci.DeltaCubes, ci.FullCubes = len(deltas), len(cubes)-len(deltas)
			ci.WALBytes = int64(len(body)) + recordHeaderLen
			return body
		},
		func() error {
			c, err := d.mem.PutAllGen(frozen, deltas, provs, asOf)
			ci.Gen = c.Gen
			return err
		},
	)
	if err != nil {
		return store.Commit{Gen: d.Generation()}, err
	}
	d.opts.Metrics.Counter(obs.MetricStoreWALDeltaCubes).Add(int64(ci.DeltaCubes))
	return ci, nil
}

// deltaToLog returns the delta to log and keep for c, a frozen cube about
// to supersede latest, or nil to log c in full: when there is no latest
// version, when it has another schema (a delta carries one schema for both
// ends), or when the two differ in too much. delta is what
// store.NewVersion knew of the step, if anything. One the store's own pass
// over the two cubes produced stands as it is; the one handed in from
// outside stands in for the diff only if a record made from it would
// replay.
func deltaToLog(latest, c *model.Cube, delta, handed *model.CubeDelta) *model.CubeDelta {
	if latest == nil || !latest.Schema().Equal(c.Schema()) {
		return nil
	}
	if delta != nil {
		if !delta.Small() {
			return nil
		}
		if delta != handed || replayable(delta) {
			return delta
		}
	}
	return model.DiffSmall(c.Schema().Name, latest, c)
}

// Compact writes a segment snapshot of the current state, rotates to a
// fresh WAL and prunes superseded files. Readers are unaffected; writers
// wait.
func (d *Store) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed != nil {
		return diskErr("compaction rejected", d.failed)
	}
	gen, err := writeSnapshot(d.fs, d.dir, d.mem)
	if err != nil {
		d.failed = fmt.Errorf("%w (cause: %v)", ErrFailed, err)
		return diskErr("writing snapshot", err)
	}
	d.opts.Metrics.Counter(obs.MetricStoreSegments).Inc()
	wal, err := newWALWriter(d.fs, filepath.Join(d.dir, walName(gen)), gen, d.opts.Metrics)
	if err != nil {
		d.failed = fmt.Errorf("%w (cause: %v)", ErrFailed, err)
		return diskErr("rotating WAL", err)
	}
	old := d.wal
	d.wal = wal
	// Drain in-flight commits on the retired WAL before closing it; the
	// snapshot already covers everything it holds.
	old.inflight.Wait()
	_ = old.close()
	d.prune(gen)
	return nil
}

// Close fsyncs and closes the active WAL. The store must not be used
// afterwards. Writers racing Close fail cleanly: holding d.mu means no
// commit can append once Close begins, and commits already appended are
// drained — their group-commit fsync completes — before the file is
// closed, so every acked commit is durable and no committer ever fsyncs
// a closed descriptor.
func (d *Store) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return nil
	}
	d.wal.inflight.Wait()
	err := d.wal.close()
	d.wal = nil
	if d.failed == nil {
		d.failed = ErrFailed
	}
	if err != nil {
		return diskErr("closing WAL", err)
	}
	return nil
}

// --- read path: delegate to the wrapped in-memory store -----------------

// Schema returns the declared schema of a cube.
func (d *Store) Schema(name string) (model.Schema, bool) { return d.mem.Schema(name) }

// Names returns the declared cube names, sorted.
func (d *Store) Names() []string { return d.mem.Names() }

// Get returns the current version of the cube (frozen, shared).
func (d *Store) Get(name string) (*model.Cube, bool) { return d.mem.Get(name) }

// GetAsOf returns the version valid at instant t (frozen, shared).
func (d *Store) GetAsOf(name string, t time.Time) (*model.Cube, bool) { return d.mem.GetAsOf(name, t) }

// Versions returns the validity instants of the cube's versions.
func (d *Store) Versions(name string) []time.Time { return d.mem.Versions(name) }

// Generation returns the write generation: it continues across restarts
// from wherever recovery ended.
func (d *Store) Generation() uint64 { return d.mem.Generation() }

// SnapshotWithGenerations is store.Store.SnapshotWithGenerations.
func (d *Store) SnapshotWithGenerations() (map[string]*model.Cube, uint64, map[string]uint64, map[string]*store.Provenance) {
	return d.mem.SnapshotWithGenerations()
}

// Delta returns the tuple-level changes to the cube since generation
// sinceGen (see store.Store.Delta), for a generation taken before the last
// restart as for any other.
func (d *Store) Delta(name string, sinceGen uint64) (*model.CubeDelta, error) {
	return d.mem.Delta(name, sinceGen)
}

// WALStats returns bytes appended to and fsyncs issued on the active
// WAL since it was opened or rotated.
func (d *Store) WALStats() (bytes, fsyncs int64) {
	d.mu.Lock()
	wal := d.wal
	d.mu.Unlock()
	if wal == nil {
		return 0, 0
	}
	return wal.stats()
}

func sortUint64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
