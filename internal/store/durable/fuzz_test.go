package durable

import (
	"bytes"
	"runtime/metrics"
	"testing"
	"time"

	"exlengine/internal/model"
	"exlengine/internal/store"
)

// allocMeter reads the bytes this process has allocated so far: the
// difference around a call is what the call allocated, plus whatever the
// fuzzing engine's own goroutines did meanwhile.
type allocMeter struct{ s []metrics.Sample }

func newAllocMeter() *allocMeter {
	return &allocMeter{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (m *allocMeter) bytes() uint64 {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64()
}

// exceeds reports whether fn allocates more than budget bytes, and how
// many. The engine's allocations come in bursts, so fn is only held to
// have gone over when it did on each of a few tries.
func (m *allocMeter) exceeds(budget uint64, fn func()) (uint64, bool) {
	least := ^uint64(0)
	for try := 0; try < 4; try++ {
		before := m.bytes()
		fn()
		if least = min(least, m.bytes()-before); least <= budget {
			return least, false
		}
	}
	return least, true
}

// allocBudget is what decoding n bytes may allocate: a decoded tuple is
// larger than its encoding (a 2-byte value becomes a 56-byte Value, a
// 10-byte tuple a map entry with its key), by a constant factor; a claimed
// count that is believed before the bytes behind it are seen is not.
func allocBudget(n int) uint64 { return 512*uint64(n) + 64<<10 }

// fuzzSeeds returns records of every opcode and both cube forms over the
// TestCodecRoundTrip cubes, the delta form also with each of its lists
// alone and with all of them empty.
func fuzzSeeds(t testing.TB) (records []*record, versions [][]*model.Cube) {
	c := codecCube(t, 16).Freeze()
	other := yearCube(t, "Y", map[int]float64{2020: 1, 2021: 2}).Freeze()
	asOf := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	revs := []*model.Cube{
		revise(t, c, nil, nil, 0),              // nothing
		revise(t, c, nil, nil, 3),              // added only
		revise(t, c, nil, []int{0, 9}, 0),      // deleted only
		revise(t, c, []int{2, 3, 4}, nil, 0),   // changed only
		revise(t, c, []int{1, 7}, []int{3}, 2), // all three
	}
	records = []*record{
		{op: opDeclare, schema: c.Schema()},
		{op: opPut, asOf: asOf, cubes: []cubeRec{fullRec(c)}},
		{op: opPutAll, asOf: asOf, cubes: []cubeRec{fullRec(c), fullRec(other)}},
		commitRecord(asOf, []cubeRec{fullRec(other), fullRec(c)}),
	}
	for _, r := range revs {
		records = append(records, commitRecord(asOf, []cubeRec{deltaRec(model.DiffCubes("M", c, r)), fullRec(other)}))
	}
	// One no store wrote: its Changed list names a tuple twice and runs
	// backwards. The codec takes a delta's lists as they come; Apply refuses.
	bad := *model.DiffCubes("M", c, revs[3])
	bad.Changed = []model.Tuple{bad.Changed[2], bad.Changed[0], bad.Changed[0]}
	records = append(records, commitRecord(asOf, []cubeRec{deltaRec(&bad)}))
	return records, [][]*model.Cube{append([]*model.Cube{c}, revs...), {other}}
}

// FuzzDecodeRecord: whatever the bytes, decoding a WAL record does not
// panic, allocates in proportion to the input, and returns an error or a
// record that encodes back to exactly those bytes.
func FuzzDecodeRecord(f *testing.F) {
	records, _ := fuzzSeeds(f)
	for _, r := range records {
		f.Add(encodeRecord(r))
	}
	meter := newAllocMeter()
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec *record
		var err error
		if got, over := meter.exceeds(allocBudget(len(data)), func() { rec, err = decodeRecord(data) }); over {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, allocBudget(len(data)))
		}
		if err != nil {
			return
		}
		if again := encodeRecord(rec); !bytes.Equal(again, data) {
			t.Fatalf("record decodes, and encodes back to other bytes:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzDecodeSnapshot is the same for a segment's body, delta chains
// resolved; the legacy layout is held to the first two properties.
func FuzzDecodeSnapshot(f *testing.F) {
	_, versions := fuzzSeeds(f)
	st := &snapshotState{gen: 7, schemas: map[string]model.Schema{"Z": yearSchema("Z")}, history: map[string][]store.Version{}}
	for _, vs := range versions {
		name := vs[0].Schema().Name
		st.schemas[name] = vs[0].Schema()
		for k, c := range vs {
			v := store.Version{AsOf: time.Unix(int64(k), 0), Cube: c}
			if k > 0 && k != 3 { // every delta is against vs[0]: chain them all but one, which stays in full
				base := st.history[name][k-1].Cube
				v.Delta = model.DiffCubes(name, base, c)
			}
			st.history[name] = append(st.history[name], v)
		}
	}
	f.Add(encodeSnapshot(st))
	f.Add(encodeSnapshot(&snapshotState{gen: 0}))
	meter := newAllocMeter()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, legacy := range []bool{true, false} {
			var got *snapshotState
			var err error
			if n, over := meter.exceeds(allocBudget(len(data)), func() { got, err = decodeSnapshot(data, legacy) }); over {
				t.Fatalf("decoding %d bytes (legacy %v) allocated %d, budget %d", len(data), legacy, n, allocBudget(len(data)))
			}
			if err != nil || legacy {
				continue
			}
			if again := encodeSnapshot(got); !bytes.Equal(again, data) {
				t.Fatalf("segment decodes, and encodes back to other bytes:\n in  %x\n out %x", data, again)
			}
		}
	})
}
