// Package vec provides small value-type 3D vector math used throughout the
// N-body code. All methods are value methods returning new vectors; the
// compiler inlines them, so there is no allocation cost.
package vec

import "math"

// V3 is a 3-component double-precision vector.
type V3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v V3) Scale(s float64) V3 { return V3{v.X * s, v.Y * s, v.Z * s} }

// AddScaled returns v + w*s without intermediate allocation.
func (v V3) AddScaled(w V3, s float64) V3 {
	return V3{v.X + w.X*s, v.Y + w.Y*s, v.Z + w.Z*s}
}

// Dot returns the inner product of v and w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Len2 returns the squared Euclidean length of v.
func (v V3) Len2() float64 { return v.Dot(v) }

// Len returns the Euclidean length of v.
func (v V3) Len() float64 { return math.Sqrt(v.Len2()) }

// Dist2 returns the squared distance between v and w.
func (v V3) Dist2(w V3) float64 { return v.Sub(w).Len2() }

// Min returns the component-wise minimum of v and w. The builtin min
// inlines, and its result is math.Min's (-0 is below +0, a NaN wins)
// except where a NaN meets -Inf: there it is NaN, where math.Min says
// -Inf. A box over bodies that holds a NaN coordinate is NaN either way
// unless another body sits at -Inf.
func (v V3) Min(w V3) V3 {
	return V3{min(v.X, w.X), min(v.Y, w.Y), min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w: math.Max's result
// except where a NaN meets +Inf (NaN here, +Inf there), as for Min.
func (v V3) Max(w V3) V3 {
	return V3{max(v.X, w.X), max(v.Y, w.Y), max(v.Z, w.Z)}
}

// MaxComponent returns the largest of the three components.
func (v V3) MaxComponent() float64 {
	return math.Max(v.X, math.Max(v.Y, v.Z))
}
