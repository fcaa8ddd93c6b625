package durable

import (
	"bytes"
	"encoding/binary"
	"runtime/metrics"
	"sort"
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
// alone and with all of them empty, and versions with and without a
// provenance.
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
		commitRecord(asOf, 1, []cubeRec{fullRec(other), fullRec(c)}),
	}
	for k, r := range revs {
		records = append(records, commitRecord(asOf, uint64(k+2), []cubeRec{deltaRec(model.DiffCubes("M", c, r)), fullRec(other)}))
	}
	// One no store wrote: its Changed list names a tuple twice and runs
	// backwards. The codec takes a delta's lists as they come; Apply refuses.
	bad := *model.DiffCubes("M", c, revs[3])
	bad.Changed = []model.Tuple{bad.Changed[2], bad.Changed[0], bad.Changed[0]}
	records = append(records, commitRecord(asOf, 7, []cubeRec{deltaRec(&bad)}))
	// The record stores wrote before provenance, and a run's commit with it.
	records = append(records, &record{op: opCommit, asOf: asOf, cubes: []cubeRec{deltaRec(model.DiffCubes("M", c, revs[4])), fullRec(other)}})
	derived := deltaRec(model.DiffCubes("M", c, revs[1]))
	derived.prov = &store.Provenance{Stmt: 0xfeedface, Inputs: map[string]uint64{"A": 3, "B": 8, "Y": 8}}
	records = append(records, commitRecord(asOf, 8, []cubeRec{derived, fullRec(other)}))
	return records, [][]*model.Cube{append([]*model.Cube{c}, revs...), {other}}
}

// legacySegment encodes st's schemas and histories as a segment body in an
// older layout (layoutUntagged or layoutTagged), as stores wrote them before
// generations and provenance were on disk.
func legacySegment(st *store.State, layout int) []byte {
	names := make([]string, 0, len(st.Schemas))
	for n := range st.Schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	b := appendUvarint(binary.LittleEndian.AppendUint64(nil, st.Gen), uint64(len(names)))
	for _, n := range names {
		b = appendSchema(b, st.Schemas[n])
	}
	b = appendUvarint(b, uint64(len(st.History)))
	for _, n := range names {
		vs := st.History[n]
		if len(vs) == 0 {
			continue
		}
		b = appendUvarint(appendString(b, n), uint64(len(vs)))
		for i, v := range vs {
			r := fullRec(v.Cube)
			if layout == layoutTagged && i > 0 && v.Delta != nil {
				r = deltaRec(v.Delta)
			}
			b = appendCubeRec(appendVarint(b, v.AsOf.UnixNano()), r, layout)
		}
	}
	return b
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
// resolved, in every layout; the older layouts are held to the first two
// properties. What decodes is also handed to store.Restore, which must
// refuse it or take it without panicking.
func FuzzDecodeSnapshot(f *testing.F) {
	_, versions := fuzzSeeds(f)
	st := &store.State{Gen: 7, Schemas: map[string]model.Schema{"Z": yearSchema("Z")},
		History: map[string][]store.Version{}, Watermark: map[string]uint64{"M": 5}}
	for _, vs := range versions {
		name := vs[0].Schema().Name
		st.Schemas[name] = vs[0].Schema()
		for k, c := range vs {
			v := store.Version{AsOf: time.Unix(int64(k), 0), Cube: c, Gen: uint64(k + 2)}
			if k > 0 && k != 3 { // every delta is against vs[0]: chain them all but one, which stays in full
				base := st.History[name][k-1].Cube
				v.Delta = model.DiffCubes(name, base, c)
			}
			if k%2 == 1 {
				v.Prov = &store.Provenance{Stmt: uint64(k), Inputs: map[string]uint64{"Y": 2, "Z": uint64(k)}}
			}
			st.History[name] = append(st.History[name], v)
		}
	}
	f.Add(encodeSnapshot(st))
	f.Add(encodeSnapshot(&store.State{}))
	f.Add(legacySegment(st, layoutTagged))
	f.Add(legacySegment(st, layoutUntagged))
	meter := newAllocMeter()
	f.Fuzz(func(t *testing.T, data []byte) {
		for layout := layoutUntagged; layout <= layoutStamped; layout++ {
			var got *store.State
			var err error
			if n, over := meter.exceeds(allocBudget(len(data)), func() { got, err = decodeSnapshot(data, layout) }); over {
				t.Fatalf("decoding %d bytes (layout %d) allocated %d, budget %d", len(data), layout, n, allocBudget(len(data)))
			}
			if err != nil {
				continue
			}
			_, _ = store.Restore(got)
			if layout != layoutStamped {
				continue
			}
			if again := encodeSnapshot(got); !bytes.Equal(again, data) {
				t.Fatalf("segment decodes, and encodes back to other bytes:\n in  %x\n out %x", data, again)
			}
		}
	})
}
