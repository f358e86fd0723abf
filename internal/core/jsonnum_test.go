package core

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
	"time"
)

// oracleNumber is encoding/json's float64 encoder as the snapshot
// appender wrote it before appendNumber: strconv's shortest digits in
// 'f' form, or 'e' form below 1e-6 and from 1e21 up with a one-digit
// negative exponent unpadded (e-09 → e-9).
func oracleNumber(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// numberChecker compares appendNumber with the oracle, reusing its
// buffers; check reports the first few disagreements and counts them all.
type numberChecker struct {
	t         *testing.T
	got, want []byte
	n, bad    int
}

func (c *numberChecker) check(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return
	}
	c.n++
	c.got = appendNumber(c.got[:0], f)
	c.want = oracleNumber(c.want[:0], f)
	if !bytes.Equal(c.got, c.want) {
		if c.bad++; c.bad <= 10 {
			c.t.Errorf("%#016x: appendNumber wrote %s, want %s", math.Float64bits(f), c.got, c.want)
		}
	}
}

// checkBoth checks f and -f.
func (c *numberChecker) checkBoth(f float64) {
	c.check(f)
	c.check(-f)
}

func (c *numberChecker) done(what string, start time.Time) {
	c.t.Helper()
	if c.bad > 0 {
		c.t.Fatalf("%s: %d of %d values differ from strconv", what, c.bad, c.n)
	}
	c.t.Logf("%s: %d values byte-identical to strconv in %v", what, c.n, time.Since(start).Round(time.Millisecond))
}

// TestAppendNumber is appendNumber against strconv.AppendFloat and json's
// exponent rule on every branch of the formatter: each biased exponent
// with the significands at and next to its ends, a few ulps around every
// power of ten and both format thresholds, the integer path up to and
// past 2^53, short decimals (where a shorter-digits candidate exists and
// ties are common), and seeded random bit patterns (10^7, 2·10^5 under
// -short).
func TestAppendNumber(t *testing.T) {
	t.Run("exponents", func(t *testing.T) {
		c, start := numberChecker{t: t}, time.Now()
		for exp := uint64(0); exp < 0x7ff; exp++ {
			for _, m := range []uint64{0, 1, 2, 3, 1 << 51, 1<<51 + 1, 1<<52 - 2, 1<<52 - 1} {
				c.checkBoth(math.Float64frombits(exp<<52 | m))
			}
		}
		c.done("exponents", start)
	})
	t.Run("powers-of-ten", func(t *testing.T) {
		c, start := numberChecker{t: t}, time.Now()
		around := func(f float64) {
			for i, g := 0, f; i < 4; i++ {
				c.checkBoth(g)
				g = math.Nextafter(g, math.Inf(1))
			}
			for i, g := 0, f; i < 4; i++ {
				g = math.Nextafter(g, 0)
				c.checkBoth(g)
			}
		}
		for e := -325; e <= 308; e++ {
			f, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
			around(f)
			around(f * 5)
		}
		around(1e-6)
		around(1e21)
		around(math.MaxFloat64)
		c.done("powers of ten", start)
	})
	t.Run("integers", func(t *testing.T) {
		c, start := numberChecker{t: t}, time.Now()
		for i := range 1 << 16 {
			c.checkBoth(float64(i))
			c.check(float64(i) + 0.5)
		}
		for p := range 64 {
			for d := -3; d <= 3; d++ {
				c.checkBoth(float64(int64(1)<<p) + float64(d))
			}
		}
		rng := rand.New(rand.NewPCG(1, 2))
		for range 1 << 18 {
			c.checkBoth(float64(rng.Int64N(1 << 53)))
			c.check(float64(rng.Int64N(1<<53) << rng.IntN(11)))
		}
		c.done("integers", start)
	})
	count := 10_000_000
	if testing.Short() {
		count = 200_000
	}
	t.Run("decimals", func(t *testing.T) {
		c, start := numberChecker{t: t}, time.Now()
		rng := rand.New(rand.NewPCG(3, 4))
		for range count / 10 {
			digits := rng.Uint64N(uint64(math.Pow10(1 + rng.IntN(17))))
			f, _ := strconv.ParseFloat(strconv.FormatUint(digits, 10)+"e"+strconv.Itoa(rng.IntN(640)-340), 64)
			c.check(f)
		}
		c.done("decimals", start)
	})
	t.Run("random-bits", func(t *testing.T) {
		c, start := numberChecker{t: t}, time.Now()
		rng := rand.New(rand.NewPCG(5, 6))
		for range count {
			c.check(math.Float64frombits(rng.Uint64()))
		}
		c.done("random bits", start)
	})
}

// TestPut8 writes every n < 10^8 and compares it with a decimal odometer.
func TestPut8(t *testing.T) {
	want := []byte("00000000")
	var got [8]byte
	for n := range uint64(100_000_000) {
		put8(got[:], n)
		if !bytes.Equal(got[:], want) {
			t.Fatalf("put8(%d) wrote %s", n, got[:])
		}
		for i := 7; i >= 0; i-- {
			if want[i]++; want[i] <= '9' {
				break
			}
			want[i] = '0'
		}
	}
}

// TestPow10Table recomputes every entry as an exact rational: 10^j / 2^e
// rounded up lies in [2^127, 2^128) for e = floorLog2Pow10(j) − 127, which
// pins both the table and the exponent shortest scales by.
func TestPow10Table(t *testing.T) {
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 127), new(big.Int).Lsh(big.NewInt(1), 128)
	for j := pow10Min; j <= pow10Max; j++ {
		r := new(big.Rat).SetFrac(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(j, -j))), nil), big.NewInt(1))
		if j < 0 {
			r.Inv(r)
		}
		e := floorLog2Pow10(j) - 127
		scale := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(max(e, -e))))
		if e >= 0 {
			r.Quo(r, scale)
		} else {
			r.Mul(r, scale)
		}
		q, m := new(big.Int).QuoRem(r.Num(), r.Denom(), new(big.Int))
		if m.Sign() != 0 {
			q.Add(q, big.NewInt(1))
		}
		if q.Cmp(lo) < 0 || q.Cmp(hi) >= 0 {
			t.Fatalf("10^%d / 2^%d rounds up to %v, outside [2^127, 2^128)", j, e, q)
		}
		g := pow10Tab[j-pow10Min]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(g[0]), 64)
		got.Or(got, new(big.Int).SetUint64(g[1]))
		if got.Cmp(q) != 0 {
			t.Fatalf("pow10Tab for 10^%d holds %#x, want %#x", j, got, q)
		}
	}
}

// FuzzAppendNumber: for any bit pattern, the snapshot encoder's number
// writes strconv's bytes, or for NaN and ±Inf records an error and writes
// nothing.
func FuzzAppendNumber(f *testing.F) {
	for _, x := range edgeFloats {
		f.Add(math.Float64bits(x))
	}
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, u uint64) {
		x := math.Float64frombits(u)
		e := snapEncoder{b: []byte("kept:")}
		e.number(x)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			if e.err == nil || string(e.b) != "kept:" {
				t.Fatalf("%v: error %v, wrote %q", x, e.err, e.b)
			}
			return
		}
		if want := oracleNumber([]byte("kept:"), x); e.err != nil || !bytes.Equal(e.b, want) {
			t.Fatalf("%#016x: wrote %s (error %v), want %s", u, e.b, e.err, want)
		}
	})
}

// BenchmarkAppendNumber is the formatter alone, per float, over the
// float64 values of a 2048-body native session's bodies after 32 steps:
// appendNumber against the strconv-based encoder it replaced.
func BenchmarkAppendNumber(b *testing.B) {
	var fs []float64
	for _, body := range benchSnapshot(b, 2048, 32, true).Bodies {
		fs = append(fs, body.Pos.X, body.Pos.Y, body.Pos.Z, body.Mass, body.Cost,
			body.Vel.X, body.Vel.Y, body.Vel.Z, body.Acc.X, body.Acc.Y, body.Acc.Z, body.Phi)
	}
	for _, c := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{{"strconv", oracleNumber}, {"appendNumber", appendNumber}} {
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			n := 0
			for b.Loop() {
				buf = buf[:0]
				for _, f := range fs {
					buf = c.fn(buf, f)
				}
				n += len(fs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/float")
		})
	}
}
