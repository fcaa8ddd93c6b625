// Package store implements the cube repository shared by the target
// engines, including the historicity feature of Section 6: cubes and
// programs are time-dependent, so every write is a new version stamped
// with its validity instant, and reads can be current or as-of a past
// instant. A CSV import/export layer feeds elementary cubes into the
// system and delivers results out of it.
//
// Reads are zero-copy: versions are frozen on write and handed out by
// reference (see Store), and a generation counter versions snapshots.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"exlengine/internal/model"
)

// ErrNotFound reports a cube that does not exist in the store. Delta wraps
// it with the cube name, so errors.Is(err, ErrNotFound) works.
var ErrNotFound = errors.New("store: cube not found")

// ErrStaleVersion reports an optimistic-concurrency loss: a write's asOf
// stamp is older than the cube's latest committed version. checkPut wraps
// it with the cube name and both instants, so errors.Is(err,
// ErrStaleVersion) works; the write is retryable with a fresher stamp.
var ErrStaleVersion = errors.New("older than the latest")

// ErrDeltaUnavailable reports that the store cannot reconstruct the
// cube's state at the requested generation, so no sound delta exists and
// the caller must fall back to a full recompute. This happens after an
// equal-asOf overwrite: the replaced version vanishes from the history
// (last write wins), and diffing against an older surviving base could
// silently miss changes the caller's snapshot actually observed. A history
// restored without its generations (see Restore) has its watermark at the
// generation it was restored at, so the same rule refuses what came before.
var ErrDeltaUnavailable = errors.New("store: delta unavailable for requested generation; full recompute required")

// Store is a versioned, concurrency-safe cube repository.
//
// Stored cube versions are frozen (model.Cube.Freeze) at write time, so
// reads are zero-copy: Get, GetAsOf and Snapshot return the stored
// instances by reference instead of deep-cloning them under the lock.
// Callers that need to mutate a returned cube must Clone it first; the
// frozen-cube discipline turns accidental in-place mutation into an
// explicit ErrFrozen failure instead of a silent data race.
type Store struct {
	mu      sync.RWMutex
	cubes   map[string][]version
	schemas map[string]model.Schema
	// gen counts committed writes (Put and PutAllGen each bump it once), so
	// snapshots can be versioned: two snapshots with equal generation are
	// guaranteed identical.
	gen uint64
	// overwriteGen records, per cube, the commit generation of the most
	// recent equal-asOf overwrite (a version replaced in place by
	// appendVersion). A reader whose snapshot predates that overwrite may
	// have seen the replaced — now vanished — version, so Delta refuses to
	// serve generations older than this watermark.
	overwriteGen map[string]uint64
}

type version struct {
	asOf time.Time
	cube *model.Cube
	// gen is the commit generation that produced this version; versions of
	// a cube carry strictly increasing generations, so "the version visible
	// at generation g" is the newest one with gen <= g.
	gen uint64
	// delta is how cube differs from the version it superseded, where
	// NewVersion knew: its Base is the preceding history entry's cube, by
	// pointer. Nil when unknown.
	delta *model.CubeDelta
	// prov is what a run computed the version from; nil for a version put
	// from outside a run.
	prov *Provenance
}

// Provenance is what a stored version was computed from: Stmt identifies
// the statement that computed it, by a fingerprint the writer chooses, and
// Inputs holds the generation of each direct operand it read. A run's
// incremental determination reads it back: a version is current while its
// statement and the generations of its operands are, and it is a base to
// maintain from by their deltas since those generations. A Provenance is
// shared by reference once stored and must not be modified.
type Provenance struct {
	Stmt   uint64
	Inputs map[string]uint64
}

// After returns an operand p names at a generation after gen, if there is
// one: a version committed at gen cannot have been computed from it. A nil
// p names none.
func (p *Provenance) After(gen uint64) (string, bool) {
	if p != nil {
		for dep, g := range p.Inputs {
			if g > gen {
				return dep, true
			}
		}
	}
	return "", false
}

// stamped returns p with every operand that is in the batch at generation
// g, the generation the batch is committed at, which its writer cannot know
// beforehand. The copy keeps the caller's map out of the store.
func stamped(p *Provenance, batch map[string]*model.Cube, g uint64) *Provenance {
	if p == nil {
		return nil
	}
	out := &Provenance{Stmt: p.Stmt, Inputs: make(map[string]uint64, len(p.Inputs))}
	for dep, dg := range p.Inputs {
		if _, ok := batch[dep]; ok {
			dg = g
		}
		out.Inputs[dep] = dg
	}
	return out
}

// New returns an empty store.
func New() *Store {
	return &Store{
		cubes:        make(map[string][]version),
		schemas:      make(map[string]model.Schema),
		overwriteGen: make(map[string]uint64),
	}
}

// Declare registers a cube schema. Re-declaring with identical dimensions
// is a no-op; changing the dimensionality of an existing cube is an error.
func (s *Store) Declare(sch model.Schema) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.schemas[sch.Name]; ok {
		if !old.SameDims(sch) {
			return fmt.Errorf("store: cube %s already declared with different dimensions (%s vs %s)", sch.Name, old, sch)
		}
		return nil
	}
	s.schemas[sch.Name] = sch
	return nil
}

// Schema returns the declared schema of a cube.
func (s *Store) Schema(name string) (model.Schema, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sch, ok := s.schemas[name]
	return sch, ok
}

// Names returns the declared cube names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.schemas))
	for n := range s.schemas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewVersion returns c as the immutable instance to store as the version
// that supersedes latest (nil when there is none), with the delta from
// latest to it where that is known. It is the one place a put cube becomes
// a stored version, for this store and for the durable one wrapped around
// it.
//
// handed is what the writer says the delta is. It is trusted only if it is
// about these two cubes by pointer — its Base is latest, its Current the
// frozen c — and then c is stored as it is. Without one, the store asks
// latest how c differs from it (model.Cube.Revise). A mutable c over latest —
// latest's Clone, edited — is its own delta: its edits, sorted, are the lists,
// and the version stored is their fold, a measure column over latest's key
// set where only measures moved. Any other c is compared in one merge of the
// two orders and comes with its delta whatever moved; where it holds latest's
// dimension tuples the version is its measure column over latest's key set.
// A mutable c is stored as a snapshot of its View, so the caller keeps it to
// mutate. A first load, and a c already on latest's key set, is stored as it
// is (a snapshot, if mutable), and the delta is then unknown (nil).
func NewVersion(latest, c *model.Cube, handed *model.CubeDelta) (*model.Cube, *model.CubeDelta) {
	if latest != nil {
		if handed != nil && handed.Base == latest && handed.Current == c && c.Frozen() {
			return c, handed
		}
		if d := latest.Revise(c); d != nil {
			return d.Current, d
		}
	}
	return c.Snapshot(), nil
}

// appendVersion adds a frozen version to a cube's history, replacing the
// latest entry when asOf is exactly equal (last write wins) so GetAsOf
// never sees two versions at the same instant; replaced reports whether
// that happened. The caller validated ordering and holds the write lock.
func appendVersion(vs []version, v version) (_ []version, replaced bool) {
	if n := len(vs); n > 0 && vs[n-1].asOf.Equal(v.asOf) {
		vs[n-1] = v
		return vs, true
	}
	return append(vs, v), false
}

// putLocked commits one already-validated cube version under the write
// lock, stamping it with commit generation g and updating the overwrite
// watermark when the write replaced an equal-asOf version. A delta is kept
// on the version only where it provably describes the step the history
// records (see NewVersion), and not across an overwrite, whose base
// vanishes.
func (s *Store) putLocked(c *model.Cube, handed *model.CubeDelta, prov *Provenance, asOf time.Time, g uint64) {
	name := c.Schema().Name
	if _, ok := s.schemas[name]; !ok {
		s.schemas[name] = c.Schema()
	}
	old := s.cubes[name]
	var latest *model.Cube
	if len(old) > 0 {
		latest = old[len(old)-1].cube
	}
	v := version{asOf: asOf, gen: g, prov: prov}
	v.cube, v.delta = NewVersion(latest, c, handed)
	vs, replaced := appendVersion(old, v)
	if replaced {
		vs[len(vs)-1].delta = nil
		s.overwriteGen[name] = g
	}
	s.cubes[name] = vs
}

// checkPut validates one cube write (schema compatibility and version
// ordering) without applying it. The caller holds at least a read lock.
func (s *Store) checkPut(c *model.Cube, asOf time.Time) error {
	if c == nil {
		return fmt.Errorf("store: nil cube")
	}
	name := c.Schema().Name
	if old, ok := s.schemas[name]; ok && !old.SameDims(c.Schema()) {
		return fmt.Errorf("store: cube %s dimensionality changed", name)
	}
	if vs := s.cubes[name]; len(vs) > 0 && vs[len(vs)-1].asOf.After(asOf) {
		return fmt.Errorf("store: version for %s at %v is %w (%v)", name, asOf, ErrStaleVersion, vs[len(vs)-1].asOf)
	}
	return nil
}

// CheckPutAll reports whether PutAllGen would accept the batch, without
// applying it. Durable wrappers use it to validate a commit before
// appending it to a write-ahead log: a record must never reach the log if
// replaying it would fail.
func (s *Store) CheckPutAll(cubes map[string]*model.Cube, asOf time.Time) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, name := range sortedNames(cubes) {
		if err := s.checkPut(cubes[name], asOf); err != nil {
			return err
		}
	}
	return nil
}

func sortedNames(cubes map[string]*model.Cube) []string {
	names := make([]string, 0, len(cubes))
	for n := range cubes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Put stores a new version of the cube, valid from asOf. The cube's
// schema is declared implicitly on first write. Versions must be written
// in non-decreasing asOf order per cube; a second write at exactly the
// latest asOf replaces that version (last write wins), keeping Versions
// duplicate-free and GetAsOf unambiguous.
func (s *Store) Put(c *model.Cube, asOf time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkPut(c, asOf); err != nil {
		return err
	}
	s.gen++
	s.putLocked(c, nil, nil, asOf, s.gen)
	return nil
}

// Commit describes one committed batch. Gen is the generation it was
// stamped with (the store generation after the write). The rest is what a
// durable store logged for it, and zero on this one: how many of the
// batch's cubes went to the log as deltas and how many in full, in how
// many bytes.
type Commit struct {
	Gen        uint64
	DeltaCubes int
	FullCubes  int
	WALBytes   int64
}

// PutAllGen stores a new version of every cube in the map, all valid from
// asOf, atomically: every cube is validated (schema compatibility and
// version ordering) before any write happens, so a rejected cube leaves
// the store exactly as it was — the snapshot-isolation guarantee the
// dispatcher relies on when a run partially fails. It returns the commit
// generation the batch was stamped with, read atomically with the write,
// since Generation() can observe a concurrent writer's bump. An empty
// batch commits nothing and returns the current generation.
//
// provs may carry, per cube, the provenance of the new version: what the
// run that computed it read. An operand that is itself in the batch is
// recorded at the batch's own generation, whatever provs says of it.
//
// deltas may carry, per cube, how the new version differs from the one it
// supersedes — a run that maintained its outputs from deltas holds exactly
// that. A delta is trusted only if its Base is, by pointer, the cube's
// latest stored version and its Current the cube being stored; anything
// else is dropped, and the store then finds the delta itself if the cube
// turns out to be a revision of that latest version (see NewVersion). A
// kept delta is what Delta answers with for the preceding generation, and
// what a durable store logs instead of the cube.
func (s *Store) PutAllGen(cubes map[string]*model.Cube, deltas map[string]*model.CubeDelta, provs map[string]*Provenance, asOf time.Time) (Commit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := sortedNames(cubes)
	// Validate everything first.
	for _, name := range names {
		if err := s.checkPut(cubes[name], asOf); err != nil {
			return Commit{Gen: s.gen}, err
		}
	}
	if len(names) == 0 {
		return Commit{Gen: s.gen}, nil
	}
	// Commit.
	s.gen++
	for _, name := range names {
		s.putLocked(cubes[name], deltas[name], stamped(provs[name], cubes, s.gen), asOf, s.gen)
	}
	return Commit{Gen: s.gen}, nil
}

// Get returns the current (latest) version of the cube. The returned
// cube is frozen and shared: reading it is free of copies and locks, but
// mutating it requires an explicit Clone.
func (s *Store) Get(name string) (*model.Cube, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.cubes[name]
	if len(vs) == 0 {
		return nil, false
	}
	return vs[len(vs)-1].cube, true
}

// GetAsOf returns the version of the cube valid at instant t (the newest
// version with asOf <= t). The returned cube is frozen and shared. It
// reports false for a cube never stored and for an instant before the
// cube's first version.
func (s *Store) GetAsOf(name string, t time.Time) (*model.Cube, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.cubes[name]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].asOf.After(t) })
	if i == 0 {
		return nil, false
	}
	return vs[i-1].cube, true
}

// Generation returns the store's write generation: it increases by one
// on every committed Put/PutAllGen, so equal generations imply identical
// store contents.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Versions returns the validity instants of the cube's versions, oldest
// first. The result is a freshly allocated, explicitly sorted copy:
// callers may retain or mutate it without aliasing the store's internal
// version history, and the ascending order is part of the contract, not
// an artifact of the internal representation.
func (s *Store) Versions(name string) []time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.cubes[name]
	out := make([]time.Time, len(vs))
	for i, v := range vs {
		out[i] = v.asOf
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Version is one entry of a cube's version history: the validity instant,
// the frozen cube stored at it, the generation that committed it, its
// provenance if a run computed it and, where the store holds it, the delta
// from the entry before (Delta.Base is that entry's Cube).
type Version struct {
	AsOf  time.Time
	Cube  *model.Cube
	Gen   uint64
	Prov  *Provenance
	Delta *model.CubeDelta
}

// Schemas returns a copy of the declared-schema catalog, including
// cubes that have no stored version yet.
func (s *Store) Schemas() map[string]model.Schema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]model.Schema, len(s.schemas))
	for n, sch := range s.schemas {
		out[n] = sch
	}
	return out
}

// SnapshotWithGenerations returns the current version of every stored
// cube, keyed by name — the source instance handed to the execution
// engines — with the store generation the snapshot was taken at, the
// commit generation of each cube's version and the provenance of each
// version that has one, all read atomically under one lock acquisition:
// the view a run pins itself to. The maps are fresh but the cubes and
// provenances are shared references, so a snapshot costs O(#cubes)
// regardless of how many tuples they hold. A cube whose generation has not
// moved since a previous read is guaranteed unchanged (versions are
// immutable once frozen).
func (s *Store) SnapshotWithGenerations() (map[string]*model.Cube, uint64, map[string]uint64, map[string]*Provenance) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := make(map[string]*model.Cube, len(s.cubes))
	gens := make(map[string]uint64, len(s.cubes))
	provs := make(map[string]*Provenance, len(s.cubes))
	for name, vs := range s.cubes {
		if n := len(vs); n > 0 {
			snap[name], gens[name] = vs[n-1].cube, vs[n-1].gen
			if vs[n-1].prov != nil {
				provs[name] = vs[n-1].prov
			}
		}
	}
	return snap, s.gen, gens, provs
}

// Delta returns the tuple-level changes to the cube between the version
// visible at store generation sinceGen and the current version: tuples
// added, changed and deleted, with both endpoint cubes shared by
// reference (zero-copy on the unchanged side).
//
// The delta is shared with every other caller and must not be modified.
//
// If the cube is unchanged since sinceGen the delta is empty. If an
// equal-asOf overwrite has replaced a version after sinceGen, the state
// the caller observed is no longer reconstructable and Delta returns
// ErrDeltaUnavailable — the caller must recompute in full. A cube with
// no stored version yields an empty delta between empty cubes.
func (s *Store) Delta(name string, sinceGen uint64) (*model.CubeDelta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.cubes[name]
	if len(vs) == 0 {
		sch, ok := s.schemas[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		empty := model.NewCube(sch).Freeze()
		return &model.CubeDelta{Name: name, Base: empty, Current: empty}, nil
	}
	cur := vs[len(vs)-1]
	if cur.gen <= sinceGen {
		// Unchanged since the caller's snapshot: nothing to propagate. The
		// overwrite watermark is irrelevant here — the caller saw this very
		// version (or an even newer state of the world that still had it).
		return &model.CubeDelta{Name: name, Base: cur.cube, Current: cur.cube}, nil
	}
	if s.overwriteGen[name] > sinceGen {
		return nil, fmt.Errorf("%w (cube %s: overwritten at generation %d, requested %d)",
			ErrDeltaUnavailable, name, s.overwriteGen[name], sinceGen)
	}
	// Newest surviving version with gen <= sinceGen; generations are
	// strictly increasing within a cube's history.
	i := sort.Search(len(vs), func(i int) bool { return vs[i].gen > sinceGen })
	var base *model.Cube
	if i == 0 {
		base = model.NewCube(cur.cube.Schema()).Freeze()
	} else {
		base = vs[i-1].cube
	}
	if cur.delta != nil && cur.delta.Base == base {
		// How this version differs from the one the caller saw was settled
		// when it was put: the usual question of an incremental run,
		// answered without touching either cube.
		return cur.delta, nil
	}
	return model.DiffCubes(name, base, cur.cube), nil
}

// State is the whole of a store: its generation, every declared schema,
// every stored cube's version history, oldest first, and every cube's
// overwrite watermark (the generation of its latest equal-asOf overwrite,
// absent when there was none). It is what a durable store's segment holds:
// each cube's first version and the deltas that lead from each entry to
// the next.
type State struct {
	Gen       uint64
	Schemas   map[string]model.Schema
	History   map[string][]Version
	Watermark map[string]uint64
}

// State returns the store's State, read under one lock. The maps and
// slices are fresh; the cubes, deltas and provenances are the store's
// shared instances (zero-copy, like Get).
func (s *Store) State() *State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := &State{Gen: s.gen, Schemas: make(map[string]model.Schema, len(s.schemas)),
		History: make(map[string][]Version, len(s.cubes)), Watermark: make(map[string]uint64, len(s.overwriteGen))}
	for n, sch := range s.schemas {
		st.Schemas[n] = sch
	}
	for n, vs := range s.cubes {
		if len(vs) == 0 {
			continue
		}
		h := make([]Version, len(vs))
		for i, v := range vs {
			h[i] = Version{AsOf: v.asOf, Cube: v.cube, Gen: v.gen, Prov: v.prov, Delta: v.delta}
		}
		st.History[n] = h
	}
	for n, g := range s.overwriteGen {
		st.Watermark[n] = g
	}
	return st
}

// Restore returns a store in st, every version at the generation st gives
// it, so that generations read from it continue those of the store st was
// taken from. It refuses a state no store could have been in, such as one
// read from a damaged file: a history of an undeclared cube, versions whose
// instants or generations do not rise strictly, a generation of 0 or past
// st.Gen, a provenance naming a generation after its own version's, or a
// watermark past st.Gen. Each version becomes a stored one as a put makes
// it (NewVersion): one whose delta from the version before is not in st is
// compared with that version, and held on its key set where it can be.
func Restore(st *State) (*Store, error) {
	s := New()
	s.gen = st.Gen
	for n, sch := range st.Schemas {
		s.schemas[n] = sch
	}
	for name, vs := range st.History {
		if _, ok := s.schemas[name]; !ok {
			return nil, fmt.Errorf("store: restoring a history of undeclared cube %s", name)
		}
		hist := make([]version, len(vs))
		for i, v := range vs {
			if v.Gen == 0 || v.Gen > st.Gen || i > 0 && (v.Gen <= vs[i-1].Gen || !v.AsOf.After(vs[i-1].AsOf)) {
				return nil, fmt.Errorf("store: restoring %s: version %d at generation %d, %v does not follow the one before, or is past generation %d",
					name, i, v.Gen, v.AsOf, st.Gen)
			}
			if dep, ok := v.Prov.After(v.Gen); ok {
				return nil, fmt.Errorf("store: restoring %s: the version at generation %d was computed from %s after it", name, v.Gen, dep)
			}
			var prev *model.Cube
			if i > 0 {
				prev = hist[i-1].cube
			}
			hist[i] = version{asOf: v.AsOf, gen: v.Gen, prov: v.Prov}
			hist[i].cube, hist[i].delta = NewVersion(prev, v.Cube, v.Delta)
		}
		s.cubes[name] = hist
		if w := st.Watermark[name]; w > st.Gen {
			return nil, fmt.Errorf("store: restoring %s: overwrite watermark %d is past generation %d", name, w, st.Gen)
		} else if w > 0 {
			s.overwriteGen[name] = w
		}
	}
	return s, nil
}
