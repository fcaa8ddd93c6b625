// Crash-recovery verification for the durable store, from two angles:
//
//   - TestCrashAtEveryOffset simulates power loss at every byte offset of
//     the workload's write stream (via faults.FaultFS) and checks the
//     reopened store is always a consistent prefix of the acknowledged
//     commits — hundreds of deterministic kill-mid-commit iterations.
//   - TestCrashRecoveryKillLoop SIGKILLs a real writer subprocess
//     mid-commit in a loop over one shared directory and checks the same
//     prefix property against the commits the child acknowledged on
//     stdout. EXL_CRASH_ITERS scales the loop (CI runs 100).
package durable_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"exlengine/internal/faults"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/store"
	"exlengine/internal/store/durable"
)

// The crash script is a fixed sequence of commits over two eight-tuple
// cubes, long enough to put every record form and every segment layout
// on disk: commit 1 is the base Put of A (a full record); the commits
// after it are PutAllGen batches of A and B carrying the deltas the
// writer holds (B's first version in full, everything else as delta
// records); every crashOverwriteEvery-th commit reuses the instant of the
// one before it and so overwrites that version; after every
// crashCompactEvery-th commit the writer compacts, which folds the chain
// into a segment (first version full, then deltas, the overwrite in full
// again) and carries on with deltas on a fresh WAL. Commits 3, 11, … come
// the way a client's revision does: the latest versions have been read in
// order, the cubes arrive unfrozen and no delta is handed, so the store
// finds the deltas itself and holds the new versions as columns over their
// predecessors' key sets — the records it logs for them are delta records
// made from its own pass. Every crashRunEvery-th commit is a run's instead:
// D and E, computed from A and B as the commit before left them, with
// their provenance — E's names D, in the same batch — and the writer
// compacts after it too, so provenance goes through the log and through a
// segment.
//
// Commit k sets tuple k mod 8 of A and B to k (B: to 10k); a run's sets
// that of D to 11(k-1) and of E to 22(k-1). So the contents after any prefix
// of the script are known without running it.
const (
	crashTuples         = 8
	crashOverwriteEvery = 5
	crashCompactEvery   = 6
	crashRunEvery       = 9
	crashOwnPassAt      = 3 // k mod crashTuples of the commits that hand no delta
)

// crashScale is the factor of each cube's measures over A's.
var crashScale = map[string]float64{"A": 1, "B": 10, "D": 11, "E": 22}

// crashCompactsAfter says whether the writer compacts after commit k.
func crashCompactsAfter(k int) bool { return k%crashCompactEvery == 0 || k%crashRunEvery == 0 }

func crashSchema(name string) model.Schema {
	return model.NewSchema(name, []model.Dim{{Name: "t", Type: model.TYear}}, "v")
}

// crashCube is cube name as commit k leaves it.
func crashCube(t testing.TB, name string, k int) *model.Cube {
	t.Helper()
	scale := crashScale[name]
	c := model.NewCube(crashSchema(name))
	for i := 0; i < crashTuples; i++ {
		last := 0 // the latest commit j <= k with j mod 8 == i
		if k >= i && (i > 0 || k >= crashTuples) {
			last = k - (k-i)%crashTuples
		}
		if err := c.Put([]model.Value{model.Per(model.NewAnnual(2000 + i))}, scale*float64(last)); err != nil {
			t.Fatal(err)
		}
	}
	return c.Freeze()
}

// crashAsOf is the validity instant of commit k.
func crashAsOf(k int) time.Time {
	if k > 1 && k%crashOverwriteEvery == 0 {
		k-- // overwrites the version of the commit before it
	}
	return time.Unix(int64(k), 0)
}

// crashStore is what the script needs of a store; the durable store under
// test and the in-memory reference both have it.
type crashStore interface {
	Get(name string) (*model.Cube, bool)
	Put(c *model.Cube, asOf time.Time) error
	PutAllGen(cubes map[string]*model.Cube, deltas map[string]*model.CubeDelta, provs map[string]*store.Provenance, asOf time.Time) (store.Commit, error)
}

// crashCommit makes commit k of the script on st.
func crashCommit(t testing.TB, st crashStore, k int) error {
	if k == 1 {
		return st.Put(crashCube(t, "A", 1), crashAsOf(1))
	}
	cubes := map[string]*model.Cube{"A": crashCube(t, "A", k), "B": crashCube(t, "B", k)}
	var provs map[string]*store.Provenance
	if k%crashRunEvery == 0 {
		in := uint64(k - 1) // commit k-1 is the generation A and B were last written at
		cubes = map[string]*model.Cube{"D": crashCube(t, "D", k-1), "E": crashCube(t, "E", k-1)}
		provs = map[string]*store.Provenance{
			"D": {Stmt: 1, Inputs: map[string]uint64{"A": in, "B": in}},
			"E": {Stmt: 2, Inputs: map[string]uint64{"D": in}},
		}
	}
	deltas := map[string]*model.CubeDelta{}
	for name, c := range cubes {
		latest, ok := st.Get(name)
		switch {
		case !ok:
		case k%crashTuples == crashOwnPassAt:
			_ = latest.Ordered(func(model.Tuple) error { return nil })
			cubes[name] = c.Clone()
		default:
			deltas[name] = model.DiffCubes(name, latest, c)
		}
	}
	_, err := st.PutAllGen(cubes, deltas, provs, crashAsOf(k))
	return err
}

// crashWorkload opens a store in dir over fs and runs the script from
// commit 1 to commit commits, compacting where the script says. It
// returns the highest acknowledged commit; a disk fault stops it early.
func crashWorkload(t testing.TB, dir string, fs durable.FS, commits int, opts ...durable.Option) (acked uint64) {
	t.Helper()
	st, err := durable.Open(dir, append(opts, durable.WithFS(fs), durable.WithCompactAfter(-1))...)
	if err != nil {
		return 0
	}
	defer st.Close()
	if err := st.Declare(crashSchema("A")); err != nil {
		return 0
	}
	for k := 1; k <= commits; k++ {
		if err := crashCommit(t, st, k); err != nil {
			break
		}
		acked = uint64(k)
		if crashCompactsAfter(k) && st.Compact() != nil {
			break
		}
	}
	return acked
}

// verifyPrefix checks that st, recovered from a crash, is a consistent
// prefix of the script: its generation g lies between the acknowledged
// commit and the last one attempted, and it holds exactly what the first
// g commits leave in a store that never crashed — the same versions of
// each cube at the same instants, every one of them equal, tuple for
// tuple, to what was put, and the current versions at the same
// generations with the same provenance.
func verifyPrefix(t testing.TB, st *durable.Store, acked uint64, attempted int, label string) {
	t.Helper()
	g := st.Generation()
	if g < acked {
		t.Fatalf("%s: recovered generation %d < acknowledged %d: durable commit lost", label, g, acked)
	}
	if g > uint64(attempted) {
		t.Fatalf("%s: recovered generation %d > %d commits ever attempted", label, g, attempted)
	}
	ref := store.New()
	for k := 1; k <= int(g); k++ {
		if err := crashCommit(t, ref, k); err != nil {
			t.Fatal(err)
		}
	}
	_, _, gens, provs := st.SnapshotWithGenerations()
	_, _, wantGens, wantProvs := ref.SnapshotWithGenerations()
	if !reflect.DeepEqual(gens, wantGens) || !reflect.DeepEqual(provs, wantProvs) {
		t.Fatalf("%s: at generation %d the current versions are at %v with provenance %v, want %v and %v", label, g, gens, provs, wantGens, wantProvs)
	}
	for _, name := range []string{"A", "B", "D", "E"} {
		want, got := ref.Versions(name), st.Versions(name)
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d versions at generation %d, want %d: version history torn", label, name, len(got), g, len(want))
		}
		for i, at := range want {
			if !got[i].Equal(at) {
				t.Fatalf("%s: %s version %d is at %v, want %v", label, name, i, got[i], at)
			}
			w, _ := ref.GetAsOf(name, at)
			c, ok := st.GetAsOf(name, at)
			if !ok || !c.Equal(w, 0) {
				t.Fatalf("%s: %s as of %v at generation %d is not what was put: %v", label, name, at, g, c.Diff(w, 0, 4))
			}
		}
	}
}

// reopenAndVerify reopens dir fault-free after a crash and verifies it.
func reopenAndVerify(t testing.TB, dir string, acked uint64, attempted int, label string) {
	t.Helper()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	defer st.Close()
	verifyPrefix(t, st, acked, attempted, label)
}

// TestCrashAtEveryOffset sweeps a simulated power loss across the whole
// byte range of the script's write stream: full records, delta records,
// an overwrite, a segment with its delta chain, deltas on the WAL rotated
// after it, and a run's commit with its provenance and the segment after.
func TestCrashAtEveryOffset(t *testing.T) {
	const commits = crashRunEvery
	// Fault-free run to learn the byte range of the write stream, and to
	// see that the script puts on disk what it is meant to.
	probe := faults.NewFaultFS(durable.OSFS{})
	reg := obs.NewRegistry()
	if acked := crashWorkload(t, t.TempDir(), probe, commits, durable.WithMetrics(reg)); acked != commits {
		t.Fatalf("fault-free workload acknowledged %d of %d commits", acked, commits)
	}
	// A from commit 2 on and B from commit 3 on go to the log as deltas, up
	// to the run's commit, whose D and E are first versions; Open and the
	// compactions after commits 6 and 9 each write a segment.
	if n := reg.Counter(obs.MetricStoreWALDeltaCubes).Value(); n != 2*(commits-1)-3 {
		t.Fatalf("the script logged %d cubes as deltas, want %d", n, 2*(commits-1)-3)
	}
	if n := reg.Counter(obs.MetricStoreSegments).Value(); n != 3 {
		t.Fatalf("the script wrote %d segments, want 3", n)
	}
	// Commit 3 handed no delta, and what it stored shares a key set.
	ownPass := store.New()
	for k := 1; k <= crashOwnPassAt; k++ {
		if err := crashCommit(t, ownPass, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"A", "B"} {
		h := ownPass.State().History[name]
		if v := h[len(h)-1]; !v.Cube.SharesKeySet(h[len(h)-2].Cube) || v.Delta == nil || len(v.Delta.Changed) != 1 {
			t.Fatalf("commit %d did not leave %s as a revision with the store's own delta", crashOwnPassAt, name)
		}
	}
	total := probe.BytesWritten()
	step := int64(1)
	if testing.Short() {
		step = max(1, total/120)
	}
	if iters := total/step + 1; iters < 100 {
		t.Fatalf("only %d crash iterations; the sweep must cover at least 100", iters)
	}
	// Every offset is its own directory and its own store, so the sweep
	// runs in a few parallel strides; most of an iteration is fsync.
	const strides = 4
	t.Run("sweep", func(t *testing.T) {
		for s := int64(0); s < strides; s++ {
			t.Run(fmt.Sprintf("stride%d", s), func(t *testing.T) {
				t.Parallel()
				for budget := s * step; budget <= total; budget += strides * step {
					dir, err := os.MkdirTemp(t.TempDir(), "crash")
					if err != nil {
						t.Fatal(err)
					}
					fs := faults.NewFaultFS(durable.OSFS{}).CrashAtByte(budget)
					acked := crashWorkload(t, dir, fs, commits)
					reopenAndVerify(t, dir, acked, commits, fmt.Sprintf("crash at byte %d", budget))
					os.RemoveAll(dir)
				}
			})
		}
	})
	t.Logf("%d crash offsets swept over a %d-byte write stream", total/step+1, total)
}

// TestCrashRecoveryKillLoop SIGKILLs a writer subprocess mid-commit in a
// loop over one shared store directory. The child prints "acked N" after
// each durable commit; after each kill the parent verifies the reopened
// store holds a prefix no shorter than the acknowledged generations.
func TestCrashRecoveryKillLoop(t *testing.T) {
	if os.Getenv("EXL_CRASH_HELPER") == "1" {
		t.Skip("helper mode")
	}
	iters := 8
	if s := os.Getenv("EXL_CRASH_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("EXL_CRASH_ITERS=%q: %v", s, err)
		}
		iters = n
	}
	dir := t.TempDir()
	for i := 0; i < iters; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestCrashWriterHelper$")
		cmd.Env = append(os.Environ(), "EXL_CRASH_HELPER=1", "EXL_CRASH_DIR="+dir)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Kill after a varying number of acknowledged commits; every
		// fourth iteration kills blind, to land inside Open's recovery
		// and the first commit as often as inside steady-state commits.
		want := 1 + i%3
		if i%4 == 3 {
			want = 0
			time.Sleep(time.Duration(i%7) * 100 * time.Microsecond)
		}
		var acked uint64
		sc := bufio.NewScanner(out)
		for want > 0 && sc.Scan() {
			line := sc.Text()
			if n, ok := strings.CutPrefix(line, "acked "); ok {
				g, err := strconv.ParseUint(n, 10, 64)
				if err != nil {
					t.Fatalf("child said %q: %v", line, err)
				}
				acked = g
				want--
			}
		}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()

		st, err := durable.Open(dir)
		if err != nil {
			t.Fatalf("iteration %d: reopen after SIGKILL: %v", i, err)
		}
		// The child may have got any number of commits past the last ack
		// the parent read before the kill landed.
		verifyPrefix(t, st, acked, int(st.Generation()), fmt.Sprintf("iteration %d", i))
		st.Close()
	}
}

// TestCrashWriterHelper is the subprocess body of the kill loop: it
// opens the store, then carries the script on from wherever the store is
// as fast as it can, printing "acked N" after each commit, until it is
// killed.
func TestCrashWriterHelper(t *testing.T) {
	if os.Getenv("EXL_CRASH_HELPER") != "1" {
		t.Skip("run by TestCrashRecoveryKillLoop")
	}
	dir := os.Getenv("EXL_CRASH_DIR")
	st, err := durable.Open(dir, durable.WithCompactAfter(-1))
	if err != nil {
		t.Fatalf("helper open: %v", err)
	}
	defer st.Close()
	if err := st.Declare(crashSchema("A")); err != nil {
		t.Fatalf("helper declare: %v", err)
	}
	g := int(st.Generation())
	for k := g + 1; k <= g+10000; k++ {
		if err := crashCommit(t, st, k); err != nil {
			t.Fatalf("helper commit %d: %v", k, err)
		}
		fmt.Printf("acked %d\n", k)
		if crashCompactsAfter(k) {
			if err := st.Compact(); err != nil {
				t.Fatalf("helper compact after %d: %v", k, err)
			}
		}
	}
}
