// Package raytrace implements the paper's parallel ray-tracing
// application (§5.1.2): a recursive Whitted-style ray tracer (spheres and
// planes, point lights, Phong shading, hard shadows, specular reflection)
// whose image plane is divided into vertical strips, one framework task
// per strip — the paper's 600×600 plane in 24 slices of 25×600.
package raytrace

import (
	"fmt"
	"math"
)

// Vec is a 3-vector.
type Vec struct{ X, Y, Z float64 }

// Arithmetic helpers.
func (a Vec) Add(b Vec) Vec       { return Vec{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }
func (a Vec) Sub(b Vec) Vec       { return Vec{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }
func (a Vec) Scale(s float64) Vec { return Vec{a.X * s, a.Y * s, a.Z * s} }
func (a Vec) Dot(b Vec) float64   { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }
func (a Vec) Mul(b Vec) Vec       { return Vec{a.X * b.X, a.Y * b.Y, a.Z * b.Z} }
func (a Vec) Len() float64        { return math.Sqrt(a.Dot(a)) }
func (a Vec) Norm() Vec {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Reflect mirrors a direction d about normal n.
func Reflect(d, n Vec) Vec { return d.Sub(n.Scale(2 * d.Dot(n))) }

// Material is a Phong material.
type Material struct {
	Color      Vec // diffuse RGB, components in [0,1]
	Specular   float64
	Shininess  float64
	Reflective float64 // 0..1 mirror contribution
}

// Sphere is a scene object.
type Sphere struct {
	Center Vec
	Radius float64
	Mat    Material
}

// Plane is an infinite plane given by a point and normal.
type Plane struct {
	Point  Vec
	Normal Vec
	Mat    Material
	// Checker, if true, modulates the diffuse color in a checkerboard.
	Checker bool
}

// Light is a point light.
type Light struct {
	Pos       Vec
	Intensity float64
}

// Scene is a full renderable scene description; it is encoded into
// the program bundle the code server ships to workers.
type Scene struct {
	Spheres    []Sphere
	Planes     []Plane
	Lights     []Light
	Ambient    float64
	Background Vec
	CameraPos  Vec
	// ViewportDist is the focal distance of the pinhole camera.
	ViewportDist float64
	MaxDepth     int
}

// DefaultScene returns the scene the examples and experiments render:
// three spheres over a checkered floor with two lights.
func DefaultScene() Scene {
	return Scene{
		Spheres: []Sphere{
			{Center: Vec{0, 0.6, 3.4}, Radius: 1.0,
				Mat: Material{Color: Vec{0.9, 0.2, 0.2}, Specular: 0.8, Shininess: 64, Reflective: 0.35}},
			{Center: Vec{-1.6, 0.1, 2.6}, Radius: 0.5,
				Mat: Material{Color: Vec{0.2, 0.55, 0.9}, Specular: 0.6, Shininess: 32, Reflective: 0.2}},
			{Center: Vec{1.4, 0.0, 2.2}, Radius: 0.4,
				Mat: Material{Color: Vec{0.25, 0.85, 0.3}, Specular: 0.4, Shininess: 16, Reflective: 0.1}},
		},
		Planes: []Plane{
			{Point: Vec{0, -0.5, 0}, Normal: Vec{0, 1, 0}, Checker: true,
				Mat: Material{Color: Vec{0.85, 0.85, 0.8}, Specular: 0.1, Shininess: 8, Reflective: 0.12}},
		},
		Lights:       []Light{{Pos: Vec{-3, 4, -1}, Intensity: 0.8}, {Pos: Vec{4, 5, 1}, Intensity: 0.4}},
		Ambient:      0.12,
		Background:   Vec{0.07, 0.08, 0.12},
		CameraPos:    Vec{0, 0.6, -1.5},
		ViewportDist: 1.0,
		MaxDepth:     3,
	}
}

type hit struct {
	t      float64
	point  Vec
	normal Vec
	mat    Material
}

const eps = 1e-6

func (s Sphere) intersect(origin, dir Vec) (hit, bool) {
	oc := origin.Sub(s.Center)
	b := oc.Dot(dir)
	c := oc.Dot(oc) - s.Radius*s.Radius
	disc := b*b - c
	if disc < 0 {
		return hit{}, false
	}
	sq := math.Sqrt(disc)
	t := -b - sq
	if t < eps {
		t = -b + sq
		if t < eps {
			return hit{}, false
		}
	}
	p := origin.Add(dir.Scale(t))
	return hit{t: t, point: p, normal: p.Sub(s.Center).Norm(), mat: s.Mat}, true
}

func (pl Plane) intersect(origin, dir Vec) (hit, bool) {
	denom := pl.Normal.Dot(dir)
	if math.Abs(denom) < eps {
		return hit{}, false
	}
	t := pl.Point.Sub(origin).Dot(pl.Normal) / denom
	if t < eps {
		return hit{}, false
	}
	p := origin.Add(dir.Scale(t))
	mat := pl.Mat
	if pl.Checker {
		if (int(math.Floor(p.X))+int(math.Floor(p.Z)))%2 == 0 {
			mat.Color = mat.Color.Scale(0.45)
		}
	}
	n := pl.Normal
	if denom > 0 {
		n = n.Scale(-1)
	}
	return hit{t: t, point: p, normal: n.Norm(), mat: mat}, true
}

// closestHit finds the nearest intersection along the ray.
func (sc *Scene) closestHit(origin, dir Vec) (hit, bool) {
	best := hit{t: math.Inf(1)}
	found := false
	for i := range sc.Spheres {
		if h, ok := sc.Spheres[i].intersect(origin, dir); ok && h.t < best.t {
			best, found = h, true
		}
	}
	for i := range sc.Planes {
		if h, ok := sc.Planes[i].intersect(origin, dir); ok && h.t < best.t {
			best, found = h, true
		}
	}
	return best, found
}

// occluded reports whether the segment from p towards light l is blocked.
func (sc *Scene) occluded(p Vec, l Light) bool {
	toLight := l.Pos.Sub(p)
	dist := toLight.Len()
	dir := toLight.Scale(1 / dist)
	h, ok := sc.closestHit(p.Add(dir.Scale(1e-4)), dir)
	return ok && h.t < dist
}

// Trace returns the RGB color of a single ray.
func (sc *Scene) Trace(origin, dir Vec, depth int) Vec {
	h, ok := sc.closestHit(origin, dir)
	if !ok {
		return sc.Background
	}
	col := h.mat.Color.Scale(sc.Ambient)
	for _, l := range sc.Lights {
		if sc.occluded(h.point, l) {
			continue
		}
		ldir := l.Pos.Sub(h.point).Norm()
		if diff := h.normal.Dot(ldir); diff > 0 {
			col = col.Add(h.mat.Color.Scale(diff * l.Intensity))
		}
		if h.mat.Specular > 0 {
			r := Reflect(ldir.Scale(-1), h.normal)
			if spec := -r.Dot(dir); spec > 0 {
				col = col.Add(Vec{1, 1, 1}.Scale(h.mat.Specular * l.Intensity * math.Pow(spec, h.mat.Shininess)))
			}
		}
	}
	if h.mat.Reflective > 0 && depth < sc.MaxDepth {
		rdir := Reflect(dir, h.normal).Norm()
		rcol := sc.Trace(h.point.Add(rdir.Scale(1e-4)), rdir, depth+1)
		col = col.Add(rcol.Scale(h.mat.Reflective))
	}
	return col
}

// RenderStrip renders pixel columns [x0, x1) of a w×h image and returns
// the RGB bytes in row-major order within the strip (3 bytes per pixel).
func (sc *Scene) RenderStrip(w, h, x0, x1 int) ([]byte, error) {
	if w <= 0 || h <= 0 || x0 < 0 || x1 > w || x0 >= x1 {
		return nil, fmt.Errorf("raytrace: bad strip [%d,%d) of %dx%d", x0, x1, w, h)
	}
	out := make([]byte, (x1-x0)*h*3)
	aspect := float64(w) / float64(h)
	i := 0
	for y := 0; y < h; y++ {
		for x := x0; x < x1; x++ {
			// Map pixel to the viewport.
			u := (float64(x)+0.5)/float64(w)*2 - 1
			v := 1 - (float64(y)+0.5)/float64(h)*2
			dir := Vec{u * aspect, v, sc.ViewportDist}.Norm()
			c := sc.Trace(sc.CameraPos, dir, 0)
			out[i] = toByte(c.X)
			out[i+1] = toByte(c.Y)
			out[i+2] = toByte(c.Z)
			i += 3
		}
	}
	return out, nil
}

func toByte(f float64) byte {
	v := int(math.Sqrt(math.Max(0, math.Min(1, f))) * 255.0) // gamma 2.0
	if v > 255 {
		v = 255
	}
	return byte(v)
}
