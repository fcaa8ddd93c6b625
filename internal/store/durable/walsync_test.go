package durable

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingFS logs the order of file creations and directory syncs, and
// lets the test drop its own marks into the same log.
type recordingFS struct {
	OSFS
	mu  sync.Mutex
	log []string
}

func (fs *recordingFS) mark(ev string) {
	fs.mu.Lock()
	fs.log = append(fs.log, ev)
	fs.mu.Unlock()
}

func (fs *recordingFS) Create(name string) (File, error) {
	fs.mark("create " + filepath.Base(name))
	return fs.OSFS.Create(name)
}

func (fs *recordingFS) SyncDir(dir string) error {
	fs.mark("syncdir")
	return fs.OSFS.SyncDir(dir)
}

// slowSyncFS holds every fsync for a moment, the way a disk does, so
// committers that append while the sync leader is inside its fsync wait
// behind it and share the next one.
type slowSyncFS struct{ OSFS }

func (fs slowSyncFS) Create(name string) (File, error) {
	f, err := fs.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f}, nil
}

type slowSyncFile struct{ File }

func (f slowSyncFile) Sync() error {
	time.Sleep(200 * time.Microsecond)
	return f.File.Sync()
}

// TestFreshWALIsReachableBeforeItsFirstAck pins the order on a freshly
// created WAL, after Open and after Compact alike: the file is created,
// then the directory is fsync'd, and only then can a commit on that file
// be acknowledged. A commit's own fsync covers the file's bytes, not the
// directory entry that leads to them; the segment's directory sync comes
// before the WAL exists and so does not cover it either.
func TestFreshWALIsReachableBeforeItsFirstAck(t *testing.T) {
	fs := &recordingFS{}
	st := openT(t, t.TempDir(), WithFS(fs), WithCompactAfter(-1))
	defer st.Close()
	put := func(k int) {
		t.Helper()
		if err := st.Put(yearCube(t, "A", map[int]float64{2019: float64(k)}), time.Unix(int64(k), 0)); err != nil {
			t.Fatal(err)
		}
		fs.mark("acked")
	}
	check := func(when string) {
		t.Helper()
		fs.mu.Lock()
		defer fs.mu.Unlock()
		created, synced := -1, -1
		for i, ev := range fs.log {
			switch {
			case strings.HasPrefix(ev, "create wal-"):
				created, synced = i, -1
			case ev == "syncdir" && created >= 0 && synced < 0:
				synced = i
			case ev == "acked" && created >= 0 && synced < 0:
				t.Fatalf("%s: a commit was acknowledged on a WAL whose directory entry was never synced:\n%s",
					when, strings.Join(fs.log, "\n"))
			}
		}
		if created < 0 {
			t.Fatalf("%s: no WAL was created", when)
		}
		fs.log = nil
	}
	put(1)
	check("after Open")
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	put(2)
	check("after Compact")
}
