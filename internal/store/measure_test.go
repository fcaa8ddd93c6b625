package store

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestPowersOfTen: every entry of the table is 10^e as Eisel–Lemire reads it,
// checked in exact rational arithmetic — a mantissa m in [2^127, 2^128) with
// m × 2^E <= 10^e < (m+1) × 2^E, E = floor(e × 217706 / 65536) − 127 — and two
// entries are what strconv's table holds.
func TestPowersOfTen(t *testing.T) {
	table := powersOfTen()
	pow2 := func(k int) *big.Rat {
		r := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(abs(k))))
		if k < 0 {
			r.Inv(r)
		}
		return r
	}
	for e := minPow10; e <= maxPow10; e++ {
		w := table[e-minPow10]
		m := new(big.Int).Lsh(new(big.Int).SetUint64(w[1]), 64)
		m.Or(m, new(big.Int).SetUint64(w[0]))
		if m.BitLen() != 128 {
			t.Fatalf("1e%d: mantissa %x is not in [2^127, 2^128)", e, m)
		}
		p := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(e))), nil))
		if e < 0 {
			p.Inv(p)
		}
		scale := pow2(217706*e>>16 - 127)
		lo := new(big.Rat).Mul(new(big.Rat).SetInt(m), scale)
		hi := new(big.Rat).Mul(new(big.Rat).SetInt(m.Add(m, big.NewInt(1))), scale)
		if lo.Cmp(p) > 0 || hi.Cmp(p) <= 0 {
			t.Fatalf("1e%d: mantissa %x × 2^%d is not 10^%d rounded down", e, w, 217706*e>>16-127, e)
		}
	}
	if got, want := table[0-minPow10], [2]uint64{0, 0x8000000000000000}; got != want {
		t.Errorf("1e0 is %x, want %x", got, want)
	}
	if got, want := table[43-minPow10], [2]uint64{0x6D9CCD05D0000000, 0xE596B7B0C643C719}; got != want {
		t.Errorf("1e43 is %x, want %x", got, want)
	}
}

func abs(k int) int { return max(k, -k) }

// measureSeeds are bodies of a measure field: what WriteCSV writes for random
// floats, and the edges of the fast path's grammar and range.
func measureSeeds() []string {
	seeds := []string{
		"1234567890123456789", "12345678901234567890", "9999999999999999999", "18446744073709551615", "18446744073709551616",
		"0000000000000000000001.5", "0.00000000000000000000012345678901234567", "1234567890.123456789", "12345678901.23456789",
		"-0", "+0", "0", ".5", "5.", "+", "-", ".", "", "1e", "1e+", "1e-", "e5", "1E5", "1e0005", "1e99999999999", "0e99999999999",
		"4.9e-324", "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623159e308",
		"1e309", "1e-400", "1e-348", "1e347", "9007199254740993", "1_0", "0x1p-2", "Inf", "-inf", "nan", "NaN", "1.5 ", " 1", "1..5", "1e5.5",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		for _, x := range []float64{math.Float64frombits(rng.Uint64()), rng.NormFloat64() * 1e6, float64(rng.Intn(1e6)) / 100} {
			seeds = append(seeds, strconv.FormatFloat(x, 'g', -1, 64))
		}
	}
	return seeds
}

// FuzzParseMeasure: on any bytes, parseMeasure returns what
// strconv.ParseFloat(string(b), 64) returns, bit for bit, and fails exactly
// where it fails.
func FuzzParseMeasure(f *testing.F) {
	for _, s := range measureSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := parseMeasure(b)
		want, wantErr := strconv.ParseFloat(string(b), 64)
		if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("parseMeasure(%q) = %v (%#x), %v; strconv says %v (%#x), %v", b, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
	})
}

// TestParseMeasureRandom: parseMeasure agrees with strconv bit for bit on
// random floats of every magnitude written in every way WriteCSV or a person
// might, and the fast path takes 99 % of the normal ones WriteCSV writes: it
// leaves to strconv a few that lie so near a float that Eisel–Lemire cannot
// round them, most of them exact binary fractions of 16 or more digits.
func TestParseMeasureRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var written, fast int
	for i := 0; i < 100000; i++ {
		x := math.Float64frombits(rng.Uint64())
		if i%2 == 0 {
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		for _, s := range []string{
			strconv.FormatFloat(x, 'g', -1, 64),
			strconv.FormatFloat(x, 'e', rng.Intn(20), 64),
			strconv.FormatFloat(x, 'f', rng.Intn(25), 64),
		} {
			got, err := parseMeasure([]byte(s))
			want, wantErr := strconv.ParseFloat(s, 64)
			if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
				t.Fatalf("parseMeasure(%q) = %v, %v; strconv says %v, %v", s, got, err, want, wantErr)
			}
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) < 0x1p-1022 {
			continue
		}
		written++
		if _, ok := parseDecimal(strconv.AppendFloat(nil, x, 'g', -1, 64)); ok {
			fast++
		}
	}
	if fast < written*99/100 {
		t.Errorf("the fast path took %d of %d measures WriteCSV writes", fast, written)
	}
}

// BenchmarkParseMeasure: a 17-digit measure shaped like the GDP example's PDR,
// by parseMeasure and by strconv.
func BenchmarkParseMeasure(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fields := make([][]byte, 1024)
	for i := range fields {
		fields[i] = strconv.AppendFloat(nil, 1e6*(1+rng.Float64()*6), 'g', -1, 64)
	}
	var sink float64
	powersOfTen()
	b.Run("parseMeasure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, _ := parseMeasure(fields[i%len(fields)])
			sink += f
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, _ := strconv.ParseFloat(string(fields[i%len(fields)]), 64)
			sink += f
		}
	})
	sinkGen = uint64(sink)
}
