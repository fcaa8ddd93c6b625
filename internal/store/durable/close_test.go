package durable

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"exlengine/internal/model"
)

// TestCloseUnderConcurrentPutAll is the regression test for the
// Close/group-commit race: Close used to fsync and close the WAL file
// while committers that had already appended their records were still
// inside the group-commit protocol, so a commit could be acked against a
// closed descriptor — or fail spuriously — without being fsync-covered.
// Fsyncs that take a moment (slowSyncFS) keep committers waiting on the
// sync leader when Close comes.
// Close must drain in-flight commits first: after Close returns, every
// PutAllGen that was acknowledged (returned nil) must survive recovery.
func TestCloseUnderConcurrentPutAll(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, WithFS(slowSyncFS{}))

	const workers = 6
	for w := 0; w < workers; w++ {
		if err := st.Declare(yearSchema(fmt.Sprintf("W%d", w))); err != nil {
			t.Fatal(err)
		}
	}

	acked := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("W%d", w)
			for i := 1; ; i++ {
				c := model.NewCube(yearSchema(name))
				if err := c.Put([]model.Value{model.Per(model.NewAnnual(2020))}, float64(i)); err != nil {
					return
				}
				c.Freeze()
				if _, err := st.PutAllGen(map[string]*model.Cube{name: c}, nil, nil, time.Unix(int64(i), 0)); err != nil {
					// The store closed mid-write: this commit was never
					// acked, so it carries no durability promise.
					return
				}
				acked[w] = i
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	if err := st.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}
	wg.Wait()

	re := openT(t, dir)
	defer re.Close()
	for w := 0; w < workers; w++ {
		if acked[w] == 0 {
			continue
		}
		c, ok := re.Get(fmt.Sprintf("W%d", w))
		if !ok {
			t.Fatalf("worker %d: acked %d commits but cube missing after recovery", w, acked[w])
		}
		got := annual(t, c, 2020)
		// Recovery may see commits past the last ack (appended but
		// unacked when Close hit), never fewer.
		if got < float64(acked[w]) {
			t.Errorf("worker %d: recovered value %v < last acked %d — an acked commit was lost", w, got, acked[w])
		}
	}
}
