package main

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/rand"

	"arrayvers/internal/array"
)

// series is a seeded, smoothly drifting 2-D int32 array history. Cell i
// of version k is a closed-form function of k, so any version or region
// can be regenerated on demand: nothing per version is kept in memory
// and the store only ever sees the generated payloads.
//
// Each cell drifts by a small step every period versions, with periods
// in [10, 30], so about 5% of the cells change from one version to the
// next and the changes are small: the delta-friendly shape of a
// scientific time series.
type series struct {
	h, w   int64
	base   []int32
	step   []int8
	period []uint8
	off    []uint8
}

func newSeries(seed int64, salt int64, h, w int64) *series {
	rng := rand.New(rand.NewSource(seed*7919 + salt))
	n := h * w
	s := &series{h: h, w: w, base: make([]int32, n), step: make([]int8, n), period: make([]uint8, n), off: make([]uint8, n)}
	fx, fy := 1+rng.Float64()*3, 1+rng.Float64()*3
	px, py := rng.Float64(), rng.Float64()
	amp := 200 + rng.Float64()*800
	for y := int64(0); y < h; y++ {
		for x := int64(0); x < w; x++ {
			i := y*w + x
			v := amp * math.Sin(2*math.Pi*(float64(x)/float64(w)*fx+px)) * math.Cos(2*math.Pi*(float64(y)/float64(h)*fy+py))
			s.base[i] = int32(1000+v) + int32(rng.Intn(4))
			st := int8(1 + rng.Intn(2))
			if rng.Intn(2) == 0 {
				st = -st
			}
			s.step[i] = st
			p := uint8(10 + rng.Intn(21))
			s.period[i] = p
			s.off[i] = uint8(rng.Intn(int(p)))
		}
	}
	return s
}

func (s *series) cell(k int, i int64) int32 {
	return s.base[i] + int32(s.step[i])*int32((k+int(s.off[i]))/int(s.period[i]))
}

func (s *series) planeBytes() int64 { return s.h * s.w * 4 }

// version materializes version k as a fresh dense payload.
func (s *series) version(k int) *array.Dense {
	d := array.MustDense(array.Int32, []int64{s.h, s.w})
	buf := d.Bytes()
	for i := int64(0); i < s.h*s.w; i++ {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(s.cell(k, i)))
	}
	return d
}

// appendRegion appends the row-major little-endian cells of box b of
// version k, the byte layout the store returns.
func (s *series) appendRegion(dst []byte, k int, b array.Box) []byte {
	for y := b.Lo[0]; y < b.Hi[0]; y++ {
		for x := b.Lo[1]; x < b.Hi[1]; x++ {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(s.cell(k, y*s.w+x)))
		}
	}
	return dst
}

// full is the box covering the whole plane.
func (s *series) full() array.Box { return array.NewBox([]int64{0, 0}, []int64{s.h, s.w}) }

// randomBox picks an hxw box at a uniformly random position.
func (s *series) randomBox(rng *rand.Rand, h, w int64) array.Box {
	y := rng.Int63n(s.h - h + 1)
	x := rng.Int63n(s.w - w + 1)
	return array.NewBox([]int64{y, x}, []int64{y + h, x + w})
}

var hashSeed = maphash.MakeSeed()

// contentHash hashes a reply's shape and cell bytes.
func contentHash(shape []int64, data []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var b [8]byte
	for _, d := range shape {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	h.Write(data)
	return h.Sum64()
}
