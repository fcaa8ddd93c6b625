package sqlengine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"exlengine/internal/model"
)

// benchDB loads a monthly panel PDR (rows tuples) and a quarterly rate
// table RATE sized to join against it, bypassing the SQL INSERT path so
// setup cost stays out of the measured loop.
func benchDB(rows int) *DB {
	regions := []string{"north", "south", "east", "west"}
	pdr := model.NewCube(model.NewSchema("PDR", []model.Dim{{Name: "d", Type: model.TMonth}, {Name: "r", Type: model.TString}}, "v"))
	for i := 0; i < rows; i++ {
		y, m := 2000+i/(12*len(regions)), 1+(i/len(regions))%12
		dims := []model.Value{model.Per(model.NewMonthly(y, time.Month(m))), model.Str(regions[i%len(regions)])}
		if err := pdr.Put(dims, float64(i%97)+0.5); err != nil {
			panic(err)
		}
	}
	rate := model.NewCube(model.NewSchema("RATE", []model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "x"))
	years := rows/(12*len(regions)) + 1
	for y := 0; y < years; y++ {
		for q := 1; q <= 4; q++ {
			for _, r := range regions {
				if err := rate.Put([]model.Value{model.Per(model.NewQuarterly(2000+y, q)), model.Str(r)}, 1+float64(q)/10); err != nil {
					panic(err)
				}
			}
		}
	}
	db := NewDB()
	for _, c := range []*model.Cube{pdr.Freeze(), rate.Freeze()} {
		if err := db.LoadCube(c); err != nil {
			panic(err)
		}
	}
	return db
}

func benchQuery(b *testing.B, rows int, q string) {
	b.Helper()
	db := benchDB(rows)
	// Once outside the timer, to catch errors. Every iteration's scans fill
	// their batches from the stored versions.
	if _, err := query(context.Background(), db, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(context.Background(), db, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLJoin measures a two-table hash join with a dimension
// function on the join key.
func BenchmarkSQLJoin(b *testing.B) {
	const q = `SELECT p.r AS r, p.v AS v, t.x AS x FROM PDR p, RATE t WHERE quarter(p.d) = t.q AND p.r = t.r`
	for _, rows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("vector/rows=%d", rows), func(b *testing.B) {
			benchQuery(b, rows, q)
		})
	}
}

// BenchmarkSQLGroupBy measures aggregation with a computed group key and
// three aggregates: once the first statement has grouped PDR's key set, its
// partition.
func BenchmarkSQLGroupBy(b *testing.B) {
	const q = `SELECT quarter(d) AS q, r, sum(v) AS s, avg(v) AS a, count(1) AS n FROM PDR GROUP BY quarter(d), r`
	for _, rows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("vector/rows=%d", rows), func(b *testing.B) {
			benchQuery(b, rows, q)
		})
	}
}

// BenchmarkSQLJoinAggregate is the e5-class shape: join then group, the
// dominant pattern in generated mapping scripts (RGDP/GDP tgds).
func BenchmarkSQLJoinAggregate(b *testing.B) {
	const q = `SELECT p.r AS r, sum(p.v * t.x) AS s FROM PDR p, RATE t WHERE quarter(p.d) = t.q AND p.r = t.r GROUP BY p.r`
	b.Run("vector", func(b *testing.B) {
		benchQuery(b, 10000, q)
	})
}
