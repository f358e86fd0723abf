package core

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// appendNumber appends finite f as encoding/json writes a float64: the
// fewest significant digits that read back as f (the closest such
// decimal, ties to an even last digit), in 'f' form, or in 'e' form below
// 1e-6 and from 1e21 up, where a one-digit negative exponent is not
// padded (1e-7, 1.5e+21). Those digits are a function of f alone, the one
// strconv.AppendFloat(f, fmt, -1, 64) computes by Ryū, so the bytes are
// json.Marshal's (DESIGN.md §12.6); this writes them in under half
// strconv's time. The caller rejects NaN and ±Inf.
func appendNumber(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	mant, exp := u&(1<<52-1), int(u>>52&0x7ff)
	var s uint64
	k := 0
	switch c, q := mant|1<<52, exp-1075; {
	case exp == 0 && mant == 0:
		return append(b, '0')
	case exp == 0: // subnormal
		s, k = shortest(mant, -1074, false)
	case q <= 0 && q >= -52 && c&(1<<-q-1) == 0: // an integer below 2^53: its own shortest digits
		s = c >> -q
	default:
		s, k = shortest(c, q, mant == 0 && exp > 1)
	}

	// s < 10^17: its 17 digits, leading zeros included, of which
	// digs are the significant ones, d = 0.digs × 10^dp.
	var buf [17]byte
	hi := s / 1e8
	buf[0] = '0' + byte(hi/1e8)
	put8(buf[1:], hi%1e8)
	put8(buf[9:], s%1e8)
	i, j := 0, len(buf)
	for buf[i] == '0' {
		i++
	}
	for buf[j-1] == '0' {
		j--
	}
	digs, dp := buf[i:j], len(buf)-i+k

	if a := math.Abs(f); a < 1e-6 || a >= 1e21 {
		b = append(b, digs[0])
		if len(digs) > 1 {
			b = append(b, '.')
			b = append(b, digs[1:]...)
		}
		x, sign := dp-1, byte('+')
		if x < 0 {
			x, sign = -x, '-'
		}
		b = append(b, 'e', sign)
		if x >= 100 {
			b = append(b, '0'+byte(x/100))
			x %= 100
		} else if x < 10 {
			return append(b, '0'+byte(x))
		}
		return binary.LittleEndian.AppendUint16(b, digitPairs[x])
	}
	const zeros = "000000000000000000000"
	switch n := len(digs); {
	case dp <= 0:
		b = append(b, "0."...)
		b = append(b, zeros[:-dp]...)
		return append(b, digs...)
	case dp < n:
		b = append(b, digs[:dp]...)
		b = append(b, '.')
		return append(b, digs[dp:]...)
	default:
		b = append(b, digs...)
		return append(b, zeros[:dp-n]...)
	}
}

// shortest is Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020): for v = c·2^q it returns the decimal s·10^k that
// encoding/json prints, the member of v's rounding interval with the
// fewest digits and, among those, the closest to v, ties to even s.
// Trailing zeros of s are left for the caller. closerBelow marks a
// power-of-two v above the smallest normal, whose lower neighbour is half
// as far as its upper one.
func shortest(c uint64, q int, closerBelow bool) (s uint64, k int) {
	cb := c << 2 // v, its interval's ends cbl and cbr, in units of 2^q/4
	cbl, cbr := cb-2, cb+2
	k = q * 1262611 >> 22 // ⌊log10 2^q⌋
	if closerBelow {
		cbl++
		k = (q*1262611 - 524031) >> 22 // ⌊log10 (3/4)·2^q⌋
	}
	g := &pow10Tab[-k-pow10Min]
	h := q + floorLog2Pow10(-k) + 1 // in [1, 4]: cb<<h · g / 2^128 is 4v·10^-k
	vb := roundToOdd(g, cb<<h)
	lower, upper := roundToOdd(g, cbl<<h), roundToOdd(g, cbr<<h)
	if c&1 != 0 { // the interval is open
		lower++
		upper--
	}
	s = vb >> 2
	// At most one multiple of 10^(k+1) lies in the interval; when one
	// does, it is the shortest decimal there is.
	if sp := s / 10; sp > 0 {
		if uIn, wIn := lower <= 40*sp, 40*sp+40 <= upper; uIn != wIn {
			if wIn {
				sp++
			}
			return sp, k + 1
		}
	}
	// Else the closest of s·10^k and (s+1)·10^k that lies in it.
	uIn, wIn := lower <= 4*s, 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd is ⌊g·cp / 2^128⌋, its last bit set when the quotient is
// inexact. The low word of g's low product is dropped, and g overestimates
// the power of ten by under one unit: together they can carry one into
// the middle word of an exact product, so exact is a middle word of 0 or
// 1. Schubfach's error bound keeps an inexact one above 1.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xHi, _ := bits.Mul64(g[1], cp)
	yHi, yLo := bits.Mul64(g[0], cp)
	mid, carry := bits.Add64(yLo, xHi, 0)
	if mid > 1 {
		return (yHi + carry) | 1
	}
	return yHi + carry
}

// floorLog2Pow10 is ⌊log2 10^j⌋ for |j| ≤ 1233.
func floorLog2Pow10(j int) int { return j * 1741647 >> 19 }

// The powers of ten shortest scales by: 10^-k for every k a finite
// double's ⌊log10 2^q⌋ (or ⌊log10 (3/4)·2^q⌋) takes.
const pow10Min, pow10Max = -292, 324

// pow10Tab[j-pow10Min] is ⌈10^j / 2^e⌉ for e = ⌊log2 10^j⌋ − 127, the
// 128 leading bits of 10^j rounded up, as {high word, low word}. It is
// built once at package init (under a millisecond, and a few kilobytes
// of garbage), never on a first encode, whose time would land in a
// session's set-up.
var pow10Tab = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	var p, num, g, r big.Int
	ten, one := big.NewInt(10), big.NewInt(1)
	var words [16]byte
	p.SetInt64(1) // 10^a
	for a := 0; a <= max(pow10Max, -pow10Min); a++ {
		for _, j := range [2]int{a, -a} {
			if j < pow10Min || j > pow10Max {
				continue
			}
			switch e := floorLog2Pow10(j) - 127; {
			case j < 0: // 2^-e / 10^a
				g.QuoRem(num.Lsh(one, uint(-e)), &p, &r)
			case e < 0: // exact
				g.Lsh(&p, uint(-e))
				r.SetInt64(0)
			default:
				g.QuoRem(&p, num.Lsh(one, uint(e)), &r)
			}
			if r.Sign() != 0 {
				g.Add(&g, one)
			}
			g.FillBytes(words[:])
			t[j-pow10Min] = [2]uint64{binary.BigEndian.Uint64(words[:8]), binary.BigEndian.Uint64(words[8:])}
		}
		p.Mul(&p, ten)
	}
	return t
}()

// digitPairs[p] is p < 100 as two digits, the tens first, laid out to
// be stored as one little-endian uint16; its 128 entries let a 7-bit
// index go unchecked.
var digitPairs = func() (t [128]uint16) {
	for i := range 100 {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// put8 writes n < 10^8 as eight digits into b[:8], leading zeros kept,
// with no division: y is n/10^6 in 57-bit fixed point, rounded up, so
// its integer part is the first pair and each ×100 of its fraction lifts
// out the next. The rounding error, under 10^8 · 2^-57 ≈ 7·10^-10 of a
// unit, grows to 7·10^-4 by the last pair: never enough to carry.
func put8(b []byte, n uint64) {
	const shift, mask = 57, 1<<57 - 1
	y := n * (1<<shift/1000000 + 1)
	_ = b[7]
	binary.LittleEndian.PutUint16(b[0:], digitPairs[y>>shift])
	y = (y & mask) * 100
	binary.LittleEndian.PutUint16(b[2:], digitPairs[y>>shift])
	y = (y & mask) * 100
	binary.LittleEndian.PutUint16(b[4:], digitPairs[y>>shift])
	y = (y & mask) * 100
	binary.LittleEndian.PutUint16(b[6:], digitPairs[y>>shift])
}
