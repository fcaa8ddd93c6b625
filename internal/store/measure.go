package store

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// parseMeasure is strconv.ParseFloat(string(b), 64), bit for bit and error for
// error. A number in the plain grammar [+-]digits[.digits][(e|E)[+-]digits]
// with at most 19 significant digits — what WriteCSV writes — is read eight
// digits at a time into a uint64 and converted by Eisel–Lemire (Lemire, "Number
// Parsing at a Gigabyte per Second", arXiv:2101.11408), the algorithm strconv
// runs inside. Everything else goes to strconv itself: more digits, an exponent
// beyond the table, a conversion Eisel–Lemire calls ambiguous, a subnormal or
// overflowing result, hex, underscores, Inf, NaN and every syntax error.
func parseMeasure(b []byte) (float64, error) {
	if f, ok := parseDecimal(b); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseDecimal is parseMeasure's fast path; ok is false where it leaves the
// number to strconv.
func parseDecimal(s []byte) (f float64, ok bool) {
	i, neg := 0, false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg, i = s[0] == '-', 1
	}
	// man holds the digits from the first that is not a leading zero, nd of
	// them: it is exact while nd <= 19, and the number is man × 10^(exp-frac).
	var man uint64
	start := i
	for i < len(s) && s[i] == '0' {
		i++
	}
	at := i
	man, i = readDigits(man, s, i)
	nd, digits := i-at, i-start
	frac := 0
	if i < len(s) && s[i] == '.' {
		i++
		at = i
		if man == 0 {
			for i < len(s) && s[i] == '0' {
				i++
			}
		}
		lead := i
		man, i = readDigits(man, s, i)
		nd += i - lead
		frac = i - at
		digits += frac
	}
	if digits == 0 {
		return 0, false
	}
	exp := 0
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg, i = s[i] == '-', i+1
		}
		at = i
		for ; i < len(s) && s[i]-'0' < 10 && exp < 1<<20; i++ {
			exp = exp*10 + int(s[i]-'0')
		}
		if i == at {
			return 0, false
		}
		if eneg {
			exp = -exp
		}
	}
	if i != len(s) || nd > 19 {
		return 0, false // trailing bytes, an exponent cut short, or too many digits
	}
	return eiselLemire(man, exp-frac, neg)
}

// readDigits appends the decimal digits at s[i:] to man, eight at a time while
// eight are there (SWAR), and returns it with the index of the first byte that
// is not one. Past 19 digits man wraps, which its caller finds from the count.
func readDigits(man uint64, s []byte, i int) (uint64, int) {
	for ; i+8 <= len(s); i += 8 {
		v := binary.LittleEndian.Uint64(s[i:])
		if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
			break // not eight digits
		}
		// Two digits to a 16-bit lane, then four to a 32-bit one, then eight.
		v -= 0x3030303030303030
		v = v*10 + v>>8
		v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		man = man*100000000 + v
	}
	for ; i < len(s) && s[i]-'0' < 10; i++ {
		man = man*10 + uint64(s[i]-'0')
	}
	return man, i
}

// eiselLemire returns the float64 nearest to ±man × 10^exp10, or ok = false
// where the 128-bit product cannot tell which way to round, or the result is
// subnormal, infinite or beyond the table.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &powersOfTen()[exp10-minPow10]
	// Normalise man; 217706/65536 is log2(10), which makes the exponent the
	// table's entries share.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	xHi, xLo := bits.Mul64(man, pow[1])
	// Where the high word's lowest nine bits are all ones, the truncated low
	// word of the power could carry into them: multiply it in too.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Keep 54 bits, then round half to even to 53, unless exactly half-way.
	msb := xHi >> 63
	retMan := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMan&3 == 1 {
		return 0, false
	}
	retMan += retMan & 1
	retMan >>= 1
	if retMan>>53 > 0 {
		retMan >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, zero, infinite or NaN space
	}
	u := retExp2<<52 | retMan&(1<<52-1)
	if neg {
		u |= 1 << 63
	}
	return math.Float64frombits(u), true
}

// The table's exponents, strconv's: beyond them a number of at most 19
// significant digits is 0 or infinite.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table holds powersOfTen once it is made.
var pow10Table atomic.Pointer[[maxPow10 - minPow10 + 1][2]uint64]

// powersOfTen returns, for every exp10 from minPow10 to maxPow10, 10^exp10 as
// a 128-bit mantissa rounded down, {low, high} word: the floor of 10^exp10 ×
// 2^(127 − e2), e2 = floor(exp10 × 217706 / 65536), which lies in [2^127,
// 2^128). It is made with math/big the first time a measure is parsed.
func powersOfTen() *[maxPow10 - minPow10 + 1][2]uint64 {
	if t := pow10Table.Load(); t != nil {
		return t
	}
	return makePowersOfTen()
}

func makePowersOfTen() *[maxPow10 - minPow10 + 1][2]uint64 {
	t := new([maxPow10 - minPow10 + 1][2]uint64)
	p, ten, one := big.NewInt(1), big.NewInt(10), big.NewInt(1) // p is 10^k
	var q, scratch big.Int
	for k := 0; k <= max(maxPow10, -minPow10); k++ {
		if k <= maxPow10 {
			t[k-minPow10] = top128(&scratch, p)
		}
		if k > 0 && -k >= minPow10 {
			// 2^(128+len(10^k)) / 10^k has more than 128 bits: the top ones of
			// its floor are the floor of 10^-k scaled.
			q.Lsh(one, uint(128+p.BitLen()))
			t[-k-minPow10] = top128(&scratch, q.Quo(&q, p))
		}
		p.Mul(p, ten)
	}
	// Goroutines that race to make it make the same table.
	pow10Table.CompareAndSwap(nil, t)
	return pow10Table.Load()
}

// top128 returns the 128 highest bits of x, a positive integer, shifted up or
// down into [2^127, 2^128), as {low, high}; t is its scratch.
func top128(t, x *big.Int) [2]uint64 {
	if n := x.BitLen(); n > 128 {
		t.Rsh(x, uint(n-128))
	} else {
		t.Lsh(x, uint(128-n))
	}
	var w [16]byte
	t.FillBytes(w[:])
	return [2]uint64{binary.BigEndian.Uint64(w[8:]), binary.BigEndian.Uint64(w[:8])}
}
